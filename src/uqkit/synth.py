"""Seeded synthetic data with analytically known confidence structure.

Two generators back the test suite and the desk-scale distillation
experiment:

- :func:`gen_outcomes` draws (correct, confidence) pairs with the two
  conditional confidence distributions chosen freely, so rank statistics
  have closed-form or Monte-Carlo-checkable expectations.

- :func:`gen_udist_task` manufactures a classification task whose
  feature vector carries a planted reliability signal in its last
  coordinate. The larger the signal, the harder every simulated ensemble
  member's logits are pushed toward one shared wrong class, yielding
  confidently wrong predictions: their max-softmax stays high while the
  features plainly reveal the corruption. A confidence model that reads
  the features can therefore outrank max-softmax, which only sees the
  probability vector.

All draws come from the portable generator, so a config draws the same
numbers on every platform. A split is made in two passes: a scalar pass
takes every draw, one word at a time, in row order; a numpy pass then
computes the features, the corrupted logits and the member softmax for
all rows at once. The member probabilities pass through numpy's ``exp``,
whose last bits may depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import _softmax
from .records import OutcomeSet
from .rng import PortableRng, check_seed

CLASS_MEAN_SCALE = 0.8  # spread of the class centroids in feature space


@dataclass(frozen=True)
class ConfidenceDist:
    """Distribution spec over [0, 1]: uniform(a, b), beta(alpha, beta) or constant(c)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind == "uniform":
            a, b = self.params
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError(f"uniform support [{a}, {b}] must lie inside [0, 1]")
        elif self.kind == "beta":
            alpha, beta = self.params
            if alpha <= 0 or beta <= 0:
                raise ValueError("beta parameters must be positive")
            if not (math.isfinite(alpha) and math.isfinite(beta)):
                raise ValueError(f"beta parameters must be finite, got {alpha}, {beta}")
        elif self.kind == "constant":
            (c,) = self.params
            if not (0.0 <= c <= 1.0):
                raise ValueError(f"constant {c} must lie in [0, 1]")
        else:
            raise ValueError(f"unknown distribution kind: {self.kind!r}")

    @classmethod
    def uniform(cls, a: float, b: float) -> "ConfidenceDist":
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "ConfidenceDist":
        return cls("beta", (float(alpha), float(beta)))

    @classmethod
    def constant(cls, c: float) -> "ConfidenceDist":
        return cls("constant", (float(c),))

    @classmethod
    def parse(cls, text: str) -> "ConfidenceDist":
        """Parse "uniform:a,b", "beta:alpha,beta" or "constant:c"."""
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        try:
            params = tuple(float(p) for p in rest.split(",")) if rest else ()
        except ValueError:
            raise ValueError(f"bad distribution parameters in {text!r}") from None
        expected = {"uniform": 2, "beta": 2, "constant": 1}.get(kind)
        if expected is None:
            raise ValueError(f"unknown distribution kind in {text!r}")
        if len(params) != expected:
            raise ValueError(f"{kind} takes {expected} parameter(s), got {len(params)}")
        return cls(kind, params)

    def sample(self, rng: PortableRng) -> float:
        if self.kind == "uniform":
            return rng.uniform(*self.params)
        if self.kind == "beta":
            return rng.beta(*self.params)
        return self.params[0]


@dataclass(frozen=True)
class SynthOutcomeConfig:
    n_correct: int
    n_incorrect: int
    correct_conf_dist: ConfidenceDist
    incorrect_conf_dist: ConfidenceDist
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_correct < 1 or self.n_incorrect < 1:
            raise ValueError("counts must be at least 1")
        check_seed(self.seed)


def gen_outcomes(config: SynthOutcomeConfig) -> OutcomeSet:
    """Outcome set with the configured counts; correct entries come first."""
    rng = PortableRng(config.seed)
    correct = [True] * config.n_correct + [False] * config.n_incorrect
    confidence = [config.correct_conf_dist.sample(rng) for _ in range(config.n_correct)]
    confidence += [config.incorrect_conf_dist.sample(rng) for _ in range(config.n_incorrect)]
    return OutcomeSet(correct, confidence)


@dataclass(frozen=True)
class SynthUdistConfig:
    n_train: int = 2000
    n_test: int = 2000
    feature_dim: int = 8
    n_classes: int = 4
    ensemble_size: int = 4
    noise_scale: float = 0.05
    error_signal_strength: float = 5.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("split sizes must be at least 1")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be at least 2 (one coordinate is the signal)")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.ensemble_size < 1:
            raise ValueError("need at least one ensemble member")
        for name, flag in (("noise_scale", "--noise-scale"),
                           ("error_signal_strength", "--signal-strength")):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} ({flag}) must be finite and non-negative, got {value}")
        check_seed(self.seed)


DEFAULT_UDIST_CONFIG = SynthUdistConfig()


@dataclass(frozen=True)
class UdistSplit:
    """One data split: features (n, d), labels (n,), member probs (n, M, K)."""

    features: np.ndarray
    labels: np.ndarray
    member_probs: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class UdistTask:
    train: UdistSplit
    test: UdistSplit
    config: SynthUdistConfig


def _gen_split(n: int, means: np.ndarray, config: SynthUdistConfig, rng: PortableRng) -> UdistSplit:
    """One split: every scalar draw in row order, then numpy over all rows.

    Row i draws its label, its ``feature_dim - 1`` feature normals, its
    signal, its wrong-class offset, then ``ensemble_size * n_classes``
    jitter normals, member-major (member m's draws before member m + 1's).
    """
    n_struct, k, n_members = config.feature_dim - 1, config.n_classes, config.ensemble_size
    normal, random, randint = rng.normal, rng.random, rng.randint
    labels, signal, offset, normals = [], [], [], []
    for _ in range(n):
        labels.append(randint(k))
        normals += [normal() for _ in range(n_struct)]
        signal.append(random())
        offset.append(randint(k - 1))
        normals += [normal() for _ in range(n_members * k)]

    labels = np.array(labels, dtype=np.int64)
    signal = np.array(signal)
    draws = np.array(normals).reshape(n, n_struct + n_members * k)
    struct = means[labels] + draws[:, :n_struct]
    # nearest-centroid logits: a well-behaved base classifier
    base = -0.5 * np.sum((struct[:, None, :] - means) ** 2, axis=-1)
    # the planted corruption: quadratic in the signal, aimed at one wrong class
    wrong = (labels + 1 + np.array(offset, dtype=np.int64)) % k
    try:  # a flag large enough to overflow the logits is named, not the records it spoils
        with np.errstate(over="raise", invalid="raise"):
            base[np.arange(n), wrong] += config.error_signal_strength * signal * signal
            jitter = config.noise_scale * draws[:, n_struct:].reshape(n, n_members, k)
            probs = _softmax(base[:, None, :] + jitter)
    except FloatingPointError:
        raise ValueError("noise_scale (--noise-scale) and error_signal_strength "
                         "(--signal-strength) are too large: the member logits overflow") from None
    return UdistSplit(np.column_stack([struct, signal]), labels, probs)


def gen_udist_task(config: SynthUdistConfig = DEFAULT_UDIST_CONFIG) -> UdistTask:
    """Generate the planted-signal distillation task (train and test splits).

    Class centroids are drawn once, then each instance gets Gaussian
    features around its class centroid plus a uniform [0, 1) signal
    coordinate. Ensemble members share the corrupted logits and differ
    only by per-member Gaussian jitter of scale ``noise_scale``, so a
    zero noise scale makes all members identical.
    """
    rng = PortableRng(config.seed)
    n_struct = config.feature_dim - 1
    means = np.array(
        [
            [CLASS_MEAN_SCALE * rng.normal() for _ in range(n_struct)]
            for _ in range(config.n_classes)
        ]
    )
    train = _gen_split(config.n_train, means, config, rng)
    test = _gen_split(config.n_test, means, config, rng)
    return UdistTask(train=train, test=test, config=config)
