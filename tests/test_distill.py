import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    central_difference,
    loss_and_grads_allocating,
    relative_error,
    train_per_parameter,
)
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
from uqkit.synth import gen_udist_task


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

    @pytest.mark.parametrize(
        "weights, biases, message",
        [
            ([], [], "need matching, non-empty weight and bias lists"),
            ([np.zeros((3, 1))], [], "need matching, non-empty weight and bias lists"),
            ([np.zeros(3)], [np.zeros(1)], "layer 0: inconsistent parameter shapes"),
            ([np.zeros((3, 2))], [np.zeros(3)], "layer 0: inconsistent parameter shapes"),
            ([np.zeros((3, 2)), np.zeros((4, 1))], [np.zeros(2), np.zeros(1)],
             "layer 1: input width does not match previous layer"),
            ([np.full((3, 1), np.nan)], [np.zeros(1)], "layer 0: non-finite parameters"),
            ([np.zeros((3, 2)), np.zeros((2, 1))], [np.zeros(2), np.full(1, np.inf)],
             "layer 1: non-finite parameters"),
        ],
        ids=["no-layers", "bias-missing", "weights-1d", "bias-width", "chain", "nan", "inf"],
    )
    def test_constructor_rejects_inconsistent_parameters(self, weights, biases, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ConfidenceModel(weights, biases)

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
    def test_bias_gradient_is_mean_of_scalar_loss_grad(self):
        """Training's gradient and the scalar confidence_loss_grad are the same loss."""
        rng = PortableRng(8)
        model = init_confidence_model(3, (), 1, rng)
        model.biases[0][0] = 0.3
        x = np.array([[rng.normal() for _ in range(3)] for _ in range(16)])
        t = np.array([0.05 + 0.9 * rng.random() for _ in range(16)])
        _, grads = loss_and_grads(model, x, t)
        s = model.forward(x)[:, 0]
        expected = np.mean([confidence_loss_grad(si, ti) * si * (1.0 - si)
                            for si, ti in zip(s, t)])
        assert abs(grads[0][1][0] - expected) <= 1e-12

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


def grad_bytes(grads):
    return [(dw.tobytes(), db.tobytes()) for dw, db in grads]


class TestLossAndGradsBuffers:
    """``loss_and_grads`` with ``out=`` buffers computes the same bits as without."""

    def batch(self, n=7, n_in=5, n_out=1, seed=3):
        rng = np.random.default_rng(seed)
        model = init_confidence_model(n_in, (4, 3), n_out, PortableRng(seed))
        return model, rng.normal(size=(n, n_in)), rng.uniform(0.01, 0.99, size=(n, n_out))

    def buffers(self, model):
        return [(np.full_like(w, np.nan), np.full_like(b, np.nan))
                for w, b in zip(model.weights, model.biases)]

    @pytest.mark.parametrize("n, n_out", [(1, 1), (7, 1), (64, 1), (9, 3)])
    def test_same_bits_with_and_without_buffers(self, n, n_out):
        model, x, t = self.batch(n=n, n_out=n_out)
        loss, grads = loss_and_grads(model, x, t)
        out = self.buffers(model)
        loss_out, grads_out = loss_and_grads(model, x, t, out)
        assert np.float64(loss_out).tobytes() == np.float64(loss).tobytes()
        assert grad_bytes(grads_out) == grad_bytes(grads)
        assert grads_out is out

    @pytest.mark.parametrize("n, n_out", [(1, 1), (7, 1), (9, 3)])
    def test_same_bits_as_allocating_oracle(self, n, n_out):
        model, x, t = self.batch(n=n, n_out=n_out, seed=n)
        loss, grads = loss_and_grads(model, x, t, self.buffers(model))
        expected_loss, expected = loss_and_grads_allocating(model, x, t)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert grad_bytes(grads) == grad_bytes(expected)

    def test_leaves_inputs_and_parameters_unchanged(self):
        model, x, t = self.batch()
        before = [a.copy() for a in (x, t, *model.weights, *model.biases)]
        loss_and_grads(model, x, t, self.buffers(model))
        after = (x, t, *model.weights, *model.biases)
        assert [a.tobytes() for a in before] == [a.tobytes() for a in after]

    def test_accepts_lists_and_flat_targets(self):
        model, x, t = self.batch()
        loss, grads = loss_and_grads(model, x.tolist(), t[:, 0].tolist())
        loss_out, grads_out = loss_and_grads(model, x, t, self.buffers(model))
        assert loss == loss_out
        assert grad_bytes(grads) == grad_bytes(grads_out)

    def test_inconsistent_shapes_rejected_with_buffers(self):
        model, x, t = self.batch()
        with pytest.raises(ValueError, match="batch inputs and targets have inconsistent shapes"):
            loss_and_grads(model, x, t[:-1], self.buffers(model))


def random_training_data(n, width, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, width)), rng.uniform(0.001, 0.999, size=n)


def assert_same_training(model, expected):
    assert [w.tobytes() for w in model.weights] == [w.tobytes() for w in expected.weights]
    assert [b.tobytes() for b in model.biases] == [b.tobytes() for b in expected.biases]
    assert (np.array(model.epoch_losses).tobytes()
            == np.array(expected.epoch_losses).tobytes())


class TestTrainingMatchesPerParameterOracle:
    """Flat-buffer training gives the bits of per-batch gathers and per-array updates."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bit_identical_to_oracle(self, data):
        n = data.draw(st.integers(1, 300), label="n")
        batch_size = data.draw(
            st.one_of(st.just(1), st.just(n), st.just(n + 5), st.integers(1, n + 5)),
            label="batch_size",
        )
        config = TrainConfig(
            learning_rate=data.draw(st.floats(1e-3, 2.0), label="learning_rate"),
            epochs=data.draw(st.integers(1, 6), label="epochs"),
            batch_size=batch_size,
            seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
            lr_decay=data.draw(st.floats(0.01, 1.0), label="lr_decay"),
        )
        width = data.draw(st.integers(1, 20), label="width")
        examples = random_training_data(n, width, data.draw(st.integers(0, 2**32 - 1)))
        assert_same_training(train_confidence_model(examples, config),
                             train_per_parameter(examples, config))

    def test_bit_identical_to_oracle_on_default_task(self):
        task = gen_udist_task()
        config = TrainConfig()
        examples = make_cascade_examples(task.train.features, task.train.member_probs,
                                         task.train.labels, config.train_temperature)
        assert_same_training(train_confidence_model(examples, config),
                             train_per_parameter(examples, config))


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

    def test_one_core_draw_per_epoch_and_layer(self, monkeypatch):
        data = self.make_constant_target_data(n=40)
        draws = []
        next_u64 = PortableRng.next_u64
        monkeypatch.setattr(PortableRng, "next_u64", lambda rng: draws.append(1) or next_u64(rng))
        config = TrainConfig(epochs=5)
        model = train_confidence_model(data, config)
        assert len(draws) <= config.epochs + len(model.weights)

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
        for lr in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="learning rate must be a finite number"):
                TrainConfig(learning_rate=lr)


def test_lr_decay_lies_in_the_half_open_unit_interval():
    # a decay of 0 would stop training at half the epochs; 1 keeps the rate
    for decay in (0.0, -0.5, 1.0 + 2**-52, math.nan):
        with pytest.raises(ValueError, match=r"lr_decay must lie in \(0, 1\]"):
            TrainConfig(lr_decay=decay)
    assert TrainConfig(lr_decay=1.0).lr_decay == 1.0
    assert TrainConfig(lr_decay=5e-324).lr_decay == 5e-324
