import math

import numpy as np
import pytest

from oracles import central_difference, relative_error
from uqkit.distill import (
    ConfidenceModel,
    TrainConfig,
    cascade_inputs,
    confidence_loss,
    confidence_loss_grad,
    init_confidence_model,
    loss_and_grads,
    make_cascade_examples,
    train_confidence_model,
)
from uqkit.rng import PortableRng


class TestConfidenceLoss:
    def test_half_half_is_ln_two(self):
        assert confidence_loss(0.5, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_match_near_zero(self):
        assert confidence_loss(1.0, 1.0) <= 2e-7

    def test_minimized_at_target(self):
        grid = np.linspace(0.01, 0.99, 99)
        losses = [confidence_loss(s, 0.3) for s in grid]
        assert grid[int(np.argmin(losses))] == pytest.approx(0.3, abs=0.011)

    def test_lower_bound_is_entropy_of_target(self):
        rng = PortableRng(5)
        for _ in range(50):
            p_t = 0.02 + 0.96 * rng.random()
            s = rng.random()
            assert confidence_loss(s, p_t) >= confidence_loss(p_t, p_t) - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            confidence_loss(1.2, 0.5)
        with pytest.raises(ValueError, match="outside"):
            confidence_loss(0.5, -0.1)


class TestConfidenceLossGrad:
    def test_zero_at_minimum(self):
        assert confidence_loss_grad(0.5, 0.5) == 0.0

    def test_hand_value(self):
        assert confidence_loss_grad(0.8, 0.5) == pytest.approx(1.875, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = PortableRng(17)
        for _ in range(100):
            s = 0.01 + 0.98 * rng.random()
            p_t = rng.random()
            fd = central_difference(lambda v: confidence_loss(v, p_t), s)
            assert relative_error(confidence_loss_grad(s, p_t), fd) < 1e-6


def constant_model(n_in, biases):
    """Zero weights and the given output biases: every input scores sigmoid(bias)."""
    return ConfidenceModel(
        [np.zeros((n_in, 2)), np.zeros((2, len(biases)))], [np.zeros(2), np.asarray(biases)]
    )


class TestMultilabelLoss:
    """The multi-output loss of ``loss_and_grads`` is the mean over outputs and rows."""

    def test_two_half_classes(self):
        loss, _ = loss_and_grads(constant_model(1, [0.0, 0.0]), [[1.0]], [[0.5, 0.5]])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_single_class_reduces_to_scalar_loss(self):
        bias = math.log(0.7 / 0.3)  # sigmoid(bias) = 0.7
        loss, _ = loss_and_grads(constant_model(1, [bias]), [[1.0]], [0.4])
        assert loss == pytest.approx(confidence_loss(0.7, 0.4), abs=1e-12)

    def test_saturated_match_near_zero(self):
        loss, _ = loss_and_grads(constant_model(1, [40.0, 40.0]), [[1.0]], [[1.0, 1.0]])
        assert loss <= 2e-7

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            loss_and_grads(constant_model(1, [0.0]), [[1.0]], [[0.5, 0.5]])

    def test_permutation_invariant_over_classes(self):
        s = [0.2, 0.5, 0.9]
        t = [[0.3, 0.6, 0.8]]
        logits = [math.log(v / (1.0 - v)) for v in s]
        forward, _ = loss_and_grads(constant_model(1, logits), [[1.0]], t)
        backward, _ = loss_and_grads(constant_model(1, logits[::-1]), [[1.0]], [t[0][::-1]])
        assert forward == pytest.approx(backward, abs=1e-12)


class TestCascadeInput:
    def test_concatenation_order(self):
        out = cascade_inputs(np.array([[1.0, 2.0]]), np.array([[[0.7, 0.3]]]), 1.0)
        assert out.shape == (1, 4)
        assert list(out[0, :2]) == [1.0, 2.0]
        assert np.allclose(out[0, 2:], [0.7, 0.3], rtol=0, atol=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="no ensemble members"):
            cascade_inputs(np.ones((1, 1)), np.empty((1, 0, 2)), 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            cascade_inputs(np.ones((1, 1)), np.empty((1, 1, 0)), 1.0)

    def test_changing_probs_only_changes_suffix(self):
        features = np.array([[1.0, 2.0]])
        a = cascade_inputs(features, np.array([[[0.7, 0.3]]]), 2.0)
        b = cascade_inputs(features, np.array([[[0.1, 0.9]]]), 2.0)
        assert list(a[0, :2]) == list(b[0, :2])
        assert list(a[0, 2:]) != list(b[0, 2:])

    def test_targets_are_softened_true_class(self):
        members = np.array([[[0.8, 0.2], [0.6, 0.4]], [[0.1, 0.9], [0.3, 0.7]]])
        inputs, targets = make_cascade_examples(np.eye(2), members, np.array([0, 1]), 3.0)
        assert inputs.shape == (2, 4)
        assert targets.tolist() == [inputs[0, 2], inputs[1, 3]]


class TestModel:
    def test_zero_weight_model_outputs_half(self):
        model = ConfidenceModel(
            [np.zeros((3, 2)), np.zeros((2, 1))], [np.zeros(2), np.zeros(1)]
        )
        assert model.forward([[5.0, -2.0, 1.0]]).tolist() == [[0.5]]

    def test_dimension_mismatch(self):
        model = init_confidence_model(4)
        with pytest.raises(ValueError, match="input"):
            model.forward([[1.0, 2.0]])
        with pytest.raises(ValueError, match="input"):
            model.forward([1.0, 2.0, 3.0, 4.0])

    def test_output_strictly_inside_unit_interval(self):
        model = init_confidence_model(3, rng=PortableRng(2))
        rng = PortableRng(3)
        x = np.array([[rng.normal() for _ in range(3)] for _ in range(20)])
        s = model.forward(x)
        assert s.shape == (20, 1)
        assert np.all((s > 0.0) & (s < 1.0))
    def test_layer_sizes(self):
        model = init_confidence_model(7, hidden_sizes=(5, 4), output_dim=2)
        assert model.layer_sizes == [7, 5, 4, 2]

    def test_json_round_trip_is_bit_exact(self):
        model = init_confidence_model(6, rng=PortableRng(9))
        again = ConfidenceModel.from_json(model.to_json())
        for w1, w2 in zip(model.weights, again.weights):
            assert w1.tobytes() == w2.tobytes()
        for b1, b2 in zip(model.biases, again.biases):
            assert b1.tobytes() == b2.tobytes()

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            ConfidenceModel.from_json('{"format": "something-else"}')

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"format": "udist-model-v1"}', "'layer_sizes'"),
            ("[1, 2]", "not an object"),
            ('{"format": "udist-model-v1", "layer_sizes": [2, 1], "weights": [], "biases": []}',
             "0 weight and 0 bias arrays for 1 layers"),
            ('{"format": "udist-model-v1", "layer_sizes": ["2", 1], "weights": [[0.0, 0.0]], '
             '"biases": [[0.0]]}', "non-numeric"),
        ],
        ids=["missing-key", "not-object", "layer-count", "string-size"],
    )
    def test_schema_errors_are_value_errors(self, doc, message):
        with pytest.raises(ValueError, match=message):
            ConfidenceModel.from_json(doc)


class TestNetworkGradients:
    def test_backprop_matches_finite_differences(self):
        rng = PortableRng(21)
        for trial in range(20):
            n_in = 2 + rng.randint(4)
            hidden = (2 + rng.randint(3), 2 + rng.randint(3))
            n_out = 1 + rng.randint(2)
            model = init_confidence_model(n_in, hidden, n_out, rng)
            x = np.array([[rng.normal() for _ in range(n_in)] for _ in range(4)])
            t = np.array([[0.05 + 0.9 * rng.random() for _ in range(n_out)] for _ in range(4)])
            _, grads = loss_and_grads(model, x, t)
            params = list(zip(model.weights, model.biases))
            for layer, (w, b) in enumerate(params):
                for arr, grad in ((w, grads[layer][0]), (b, grads[layer][1])):
                    flat = arr.reshape(-1)
                    gflat = grad.reshape(-1)
                    for idx in range(flat.size):
                        orig = flat[idx]
                        flat[idx] = orig + 1e-5
                        up, _ = loss_and_grads(model, x, t)
                        flat[idx] = orig - 1e-5
                        down, _ = loss_and_grads(model, x, t)
                        flat[idx] = orig
                        fd = (up - down) / 2e-5
                        assert relative_error(gflat[idx], fd) < 1e-4


class TestTraining:
    def make_constant_target_data(self, n=64, c=0.3, seed=4):
        rng = PortableRng(seed)
        inputs = np.array([[rng.normal(), rng.normal(), 0.6, 0.4] for _ in range(n)])
        return inputs, np.full(n, c)

    def test_constant_target_convergence(self):
        c = 0.3
        inputs, targets = self.make_constant_target_data(c=c)
        model = train_confidence_model(
            (inputs, targets), TrainConfig(learning_rate=0.5, epochs=150, batch_size=16, seed=0)
        )
        assert np.all(np.abs(model.forward(inputs) - c) < 0.02)

    def test_single_example_memorization(self):
        inputs = np.array([[0.5, -1.0, 0.8, 0.2]])
        model = train_confidence_model(
            (inputs, np.array([0.65])),
            TrainConfig(learning_rate=0.5, epochs=400, batch_size=1, seed=1),
        )
        assert abs(model.forward(inputs)[0, 0] - 0.65) < 0.01

    def test_loss_non_increasing_on_constant_target_full_batch(self):
        data = self.make_constant_target_data(n=32)
        config = TrainConfig(learning_rate=0.25, epochs=50, batch_size=32, seed=2, lr_decay=1.0)
        model = train_confidence_model(data, config)
        losses = model.epoch_losses
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_training_is_bit_deterministic(self):
        data = self.make_constant_target_data(n=48)
        config = TrainConfig(learning_rate=0.3, epochs=20, batch_size=8, seed=11)
        m1 = train_confidence_model(data, config)
        m2 = train_confidence_model(data, config)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert w1.tobytes() == w2.tobytes()
        for b1, b2 in zip(m1.biases, m2.biases):
            assert b1.tobytes() == b2.tobytes()

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        bad = (np.array([[math.nan, 0.5, 0.5]]), np.array([0.5]))
        with pytest.raises(ArithmeticError, match="non-finite"):
            train_confidence_model(bad, TrainConfig(epochs=1, batch_size=1))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="no training examples"):
            train_confidence_model((np.empty((0, 3)), np.empty(0)), TrainConfig())

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, d\) inputs and \(n,\) targets"):
            train_confidence_model((np.ones((3, 2)), np.full(2, 0.5)), TrainConfig())

    def test_target_range_enforced_on_examples(self):
        for target in (0.0, 1.0, math.nan):
            data = (np.ones((2, 3)), np.array([0.5, target]))
            with pytest.raises(ValueError, match="strictly in"):
                train_confidence_model(data, TrainConfig(epochs=1))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
