"""Confidence distillation: loss, cascade inputs, and a small trainable model.

A separate confidence model learns to predict the softened ensemble
probability of the true class from the instance features concatenated
with the softened probability vector. Because that target is available
without ground truth at training time only, the trained model serves as
its stand-in at inference, scoring each prediction with a confidence in
(0, 1).

Cascade data is built for all rows at once: (n, d) features and
(n, M, K) member probabilities give an (n, d + K) input matrix whose last
K columns are the softened ensemble means, and the training targets are
an (n,) vector.

The model itself is deliberately plain: fully connected layers with tanh
hidden activations and a sigmoid output, trained by mini-batch gradient
descent on the confidence loss: binary cross entropy against the soft
target, the same clamped log loss that ``eval`` reports as cross entropy
(:mod:`uqkit.scoring`). Everything is numpy; on one machine a fixed seed
reproduces training bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .ensemble import actual_class_confidence, average_probs, temperature_scale
from .rng import PortableRng, check_seed
from .scoring import LOG_CLAMP, _clamped_log_loss

MODEL_FORMAT = "udist-model-v1"
TARGET_CLAMP = 1e-4
DEFAULT_HIDDEN = (32, 32)


def _scalar_loss(s: float, p_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Range-check one (score, target) pair; return its clamped log loss and d/ds."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"confidence {s} outside [0, 1]")
    if not (0.0 <= p_t <= 1.0):
        raise ValueError(f"target {p_t} outside [0, 1]")
    return _clamped_log_loss(np.float64(s), np.float64(p_t))


def confidence_loss(s: float, p_t: float) -> float:
    """Cross entropy between a confidence score and a soft target, >= 0.

    One element of the clamped log loss that :func:`loss_and_grads` averages:
    the score is clamped to [1e-7, 1 - 1e-7] before the logs; the minimum
    over s sits at s = p_t, where the loss equals the entropy of p_t.
    """
    return float(_scalar_loss(s, p_t)[0])


def confidence_loss_grad(s: float, p_t: float) -> float:
    """Derivative of :func:`confidence_loss` with respect to s, at the clamped s."""
    return float(_scalar_loss(s, p_t)[1])


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; the defaults fit the bundled synthetic task.

    Plain full-batch descent on a constant-target dataset decreases the
    loss monotonically for learning rates up to about 0.25; the larger
    default relies on the step decay to settle.

    ``train_temperature`` is the softening temperature that produces the
    training data; training itself only sees the softened arrays, so it is
    a class constant, not a field. The model has ``DEFAULT_HIDDEN`` hidden
    layers.

    ``lr_decay`` has no CLI flag, yet it stays a field: a decay of 1 gives
    the plain descent whose monotone loss the tests check, and the
    oracle-equivalence tests draw it, so fixing it would test less.
    """

    train_temperature: ClassVar[float] = 8.0

    learning_rate: float = 1.0
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0
    lr_decay: float = 0.1  # multiplier applied at 1/2 and 3/4 of the epochs

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be a finite number, got {self.learning_rate}")
        if self.learning_rate <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning_rate, epochs and batch_size must be positive")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must lie in (0, 1]")
        check_seed(self.seed)


class ConfidenceModel:
    """Fully connected tanh network with a sigmoid output head.

    ``weights[i]`` has shape (layer_sizes[i], layer_sizes[i+1]); biases are
    row vectors. The final layer output is passed through a sigmoid, so
    predictions always lie strictly in (0, 1).
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or len(weights) < 1:
            raise ValueError("need matching, non-empty weight and bias lists")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: inconsistent parameter shapes")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input width does not match previous layer")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        self.weights = weights
        self.biases = biases
        self.epoch_losses: list[float] = []

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; returns sigmoid outputs of shape (n, output_dim)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"input width {x.shape[-1] if x.ndim else 0} does not match model "
                f"input dim {self.input_dim}"
            )
        return _layer_outputs(self, x)[1]

    def to_json(self) -> str:
        obj = {
            "format": MODEL_FORMAT,
            "layer_sizes": self.layer_sizes,
            "activation": "tanh",
            "weights": [w.flatten().tolist() for w in self.weights],  # row-major
            "biases": [b.tolist() for b in self.biases],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "ConfidenceModel":
        """Load a model file; raises ValueError if it does not follow the schema."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("model file is not valid JSON: nesting too deep") from None
        if not isinstance(obj, dict):
            raise ValueError(f"model file holds a JSON {type(obj).__name__}, not an object")
        if obj.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format: {obj.get('format')!r}")
        for key in ("layer_sizes", "weights", "biases"):
            if not isinstance(obj.get(key), list):
                raise ValueError(f"model file needs a list under {key!r}")
        sizes = obj["layer_sizes"]
        for size in sizes:
            if isinstance(size, bool) or not isinstance(size, (int, float)):
                raise ValueError(f"model file has a non-numeric layer size {size!r}")
            if not (isinstance(size, int) and size > 0):
                raise ValueError(f"model file has layer size {size!r}, not a positive integer")
        n_layers = len(sizes) - 1
        if len(obj["weights"]) != n_layers or len(obj["biases"]) != n_layers:
            raise ValueError(
                f"model file has {len(obj['weights'])} weight and {len(obj['biases'])} "
                f"bias arrays for {n_layers} layers"
            )
        weights = [_parameters(w, "weights", (sizes[i], sizes[i + 1]))
                   for i, w in enumerate(obj["weights"])]
        biases = [_parameters(b, "biases", (sizes[i + 1],)) for i, b in enumerate(obj["biases"])]
        model = cls(weights, biases)
        activation = obj.get("activation")
        if activation != "tanh":
            raise ValueError(f"unsupported model activation {activation!r} (need 'tanh')")
        return model


def _parameters(values, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """A model file's parameter array as float64 of ``shape``; a fault names ``key``.

    Only finite JSON numbers are parameters. A string, a boolean or a null
    among the values is an error, as in record files, where numpy would read
    ``"1e3"`` as 1000.0, ``true`` as 1.0 and ``null`` as NaN. So are a ragged
    array, an integer past float64, a value that is not finite, and a count
    of values that does not fill ``shape``.
    """
    odd = [v for v in np.array(values, dtype=object).ravel() if type(v) not in (int, float)]
    if odd and type(odd[0]) is list:  # numpy leaves a list where the nesting is uneven
        raise ValueError(f"model file has a ragged array under {key!r}")
    if odd:
        raise ValueError(f"model file has non-numeric parameters under {key!r}: {odd[0]!r}")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"model file has a number too large for float64 under {key!r}") from None
    if not np.isfinite(array).all():
        raise ValueError(f"model file has non-finite parameters under {key!r}")
    if array.size != math.prod(shape):
        raise ValueError(f"model file cannot reshape {array.size} values under {key!r} "
                         f"into shape {shape}")
    return array.reshape(shape)


def _layer_outputs(model: ConfidenceModel, x: np.ndarray):
    """The input and each tanh hidden layer's activations, and the sigmoid output.

    Each layer is computed in its own fresh array, one ufunc at a time in
    the order of ``tanh(a @ w + b)`` and ``1 / (1 + exp(-z))``.
    """
    activations = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = activations[-1] @ w
        h += b
        activations.append(np.tanh(h, out=h))
    z = activations[-1] @ model.weights[-1]
    z += model.biases[-1]
    np.negative(z, out=z)
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the sigmoid's limit, 0
        np.exp(z, out=z)
    z += 1.0
    return activations, np.divide(1.0, z, out=z)


def init_confidence_model(
    input_dim: int,
    hidden_sizes: Sequence[int] = DEFAULT_HIDDEN,
    output_dim: int = 1,
    rng: PortableRng | None = None,
) -> ConfidenceModel:
    """Glorot-uniform initialized model: bound sqrt(6 / (fan_in + fan_out))."""
    if rng is None:
        rng = PortableRng(0)
    sizes = [input_dim] + list(hidden_sizes) + [output_dim]
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform_block(-bound, bound, fan_in * fan_out).reshape(fan_in, fan_out))
    return ConfidenceModel(weights, [np.zeros(fan_out) for fan_out in sizes[1:]])


def loss_and_grads(
    model: ConfidenceModel,
    x: np.ndarray,
    targets: np.ndarray,
    out: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean confidence loss over a batch and its parameter gradients.

    The gradient is exact for the clamped loss: where the sigmoid output
    falls outside the clamp range the loss is locally constant in the
    score, so the contribution is zero. ``out``, if given, holds one
    ``(dw, db)`` pair of buffers per layer, shaped like the parameters;
    the gradients are written into them and ``out`` is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    if x.ndim != 2 or x.shape[0] != t.shape[0] or t.shape[1] != model.output_dim:
        raise ValueError("batch inputs and targets have inconsistent shapes")
    if out is None:
        out = [(np.empty_like(w), np.empty_like(b)) for w, b in zip(model.weights, model.biases)]

    activations, s = _layer_outputs(model, x)
    losses, dz = _clamped_log_loss(s, t)
    # dz = dloss/ds * (1 / t.size) * inside_clamp * s * (1 - s), left to right
    dz *= 1.0 / t.size
    dz *= (s > LOG_CLAMP) & (s < 1.0 - LOG_CLAMP)
    dz *= s
    dz *= np.subtract(1.0, s, out=s)

    for layer in range(len(model.weights) - 1, -1, -1):
        dw, db = out[layer]
        np.matmul(activations[layer].T, dz, out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if layer > 0:
            # da * (1 - a**2), with the spent activation as scratch
            a = activations[layer]
            dz = dz @ model.weights[layer].T
            dz *= np.subtract(1.0, np.square(a, out=a), out=a)
    return float(np.add.reduce(losses, axis=None) / losses.size), out


def train_confidence_model(
    data: tuple[np.ndarray, np.ndarray], config: TrainConfig
) -> ConfidenceModel:
    """Fit a confidence model to ``(inputs, targets)`` by mini-batch gradient descent.

    ``inputs`` is the (n, d + K) cascade matrix and ``targets`` the (n,)
    soft targets, each strictly inside (0, 1), as returned by
    :func:`make_cascade_examples`.

    Deterministic given the seed: each layer's weights and each epoch's
    order are one block draw of the portable generator. Targets are clamped
    to [1e-4, 1 - 1e-4] so saturated ensemble outputs cannot pin the loss
    at the log boundary. The learning rate is multiplied by ``lr_decay``
    at the half and three-quarter epoch marks. Raises ArithmeticError if
    the loss goes non-finite.
    """
    x, t = (np.asarray(a, dtype=np.float64) for a in data)
    if x.ndim != 2 or t.ndim != 1 or x.shape[0] != t.shape[0]:
        raise ValueError(f"need (n, d) inputs and (n,) targets, got {x.shape} and {t.shape}")
    if x.shape[0] == 0:
        raise ValueError("no training examples given")
    outside = ~((t > 0.0) & (t < 1.0))
    if np.any(outside):
        raise ValueError(f"targets must lie strictly in (0, 1), got {t[outside][0]}")
    t = np.clip(t.reshape(-1, 1), TARGET_CLAMP, 1.0 - TARGET_CLAMP)

    rng = PortableRng(config.seed)
    model = init_confidence_model(x.shape[1], DEFAULT_HIDDEN, 1, rng)
    return _fit(model, x, t, config, rng)


def _layer_views(flat: np.ndarray, model: ConfidenceModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """A ``(w, b)`` pair of views into ``flat`` per layer, laid out and shaped as in ``model``."""
    views = []
    start = 0
    for w, b in zip(model.weights, model.biases):
        mid = start + w.size
        views.append((flat[start:mid].reshape(w.shape), flat[mid : mid + b.size]))
        start = mid + b.size
    return views


def _fit(
    model: ConfidenceModel,
    x: np.ndarray,
    t: np.ndarray,
    config: TrainConfig,
    rng: PortableRng,
) -> ConfidenceModel:
    # the parameters move into one flat buffer that each step updates in
    # place: g *= lr; params -= g is w -= lr * dw for every element at once
    params = np.concatenate([a.ravel() for wb in zip(model.weights, model.biases) for a in wb])
    grad = np.empty_like(params)
    grads = _layer_views(grad, model)
    layers = _layer_views(params, model)
    model.weights = [w for w, _ in layers]
    model.biases = [b for _, b in layers]

    n = x.shape[0]
    lr = config.learning_rate
    decay_points = {config.epochs // 2, (3 * config.epochs) // 4}
    model.epoch_losses = []
    for epoch in range(config.epochs):
        if epoch in decay_points and epoch > 0:
            lr *= config.lr_decay
        order = rng.permutation(n)
        x_epoch = x[order]
        t_epoch = t[order]
        epoch_loss_total = 0.0
        for start in range(0, n, config.batch_size):
            xb = x_epoch[start : start + config.batch_size]
            loss, _ = loss_and_grads(model, xb, t_epoch[start : start + config.batch_size], grads)
            if not math.isfinite(loss):
                raise ArithmeticError(
                    f"non-finite training loss at epoch {epoch}, batch start {start}"
                )
            epoch_loss_total += loss * xb.shape[0]
            grad *= lr
            params -= grad
        model.epoch_losses.append(epoch_loss_total / n)
    return model


# ---------------------------------------------------------------------------
# Cascade construction from per-instance ensemble outputs
# ---------------------------------------------------------------------------


def make_cascade_examples(
    features: np.ndarray,
    member_probs: np.ndarray,
    true_labels: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Training data from raw ensemble outputs: average, soften, index by truth.

    ``features`` is (n, d), ``member_probs`` is (n, M, K), ``true_labels``
    is (n,). Returns the (n, d + K) :func:`cascade_inputs` and the (n,)
    targets, the softened mean probability of each row's true class.
    """
    inputs = cascade_inputs(features, member_probs, temperature)
    softened = inputs[:, -np.shape(member_probs)[-1] :]
    return inputs, actual_class_confidence(softened, true_labels)


def cascade_inputs(features: np.ndarray, member_probs: np.ndarray, temperature: float) -> np.ndarray:
    """(n, d) features next to the (n, K) softened ensemble means of (n, M, K) members."""
    return np.hstack([features, temperature_scale(average_probs(member_probs), temperature)])
