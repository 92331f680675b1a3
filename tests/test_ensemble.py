import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import power_temperature
from uqkit.ensemble import _softmax, actual_class_confidence, average_probs, temperature_scale


@st.composite
def distributions(draw, max_classes=10):
    # integer weights: exact ties are common, but no two distinct entries sit
    # within a few ulps of each other, where any float implementation of a
    # strictly monotone map may collapse them and move the argmax
    k = draw(st.integers(min_value=2, max_value=max_classes))
    raw = draw(st.lists(st.integers(1, 1_000_000), min_size=k, max_size=k))
    arr = np.asarray(raw, dtype=np.float64)
    return arr / arr.sum()


@st.composite
def member_arrays(draw, max_rows=12, max_members=6, max_classes=10):
    """(n, M, K) member distributions with frequent exact zeros."""
    shape = (
        draw(st.integers(1, max_rows)),
        draw(st.integers(1, max_members)),
        draw(st.integers(1, max_classes)),
    )
    size = shape[0] * shape[1] * shape[2]
    raw = np.asarray(draw(st.lists(st.integers(0, 1000), min_size=size, max_size=size)))
    arr = raw.reshape(shape).astype(np.float64)
    arr[..., 0] += arr.sum(axis=-1) == 0  # at least one non-zero entry per member
    return arr / arr.sum(axis=-1, keepdims=True)


def per_row_soften(members, temperature):
    return np.array([temperature_scale(average_probs(m), temperature) for m in members])


class TestAverageProbs:
    def test_opposite_one_hots_average_to_uniform(self):
        assert np.array_equal(average_probs([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_single_member_is_identity(self):
        out = average_probs([[0.7, 0.3]])
        assert out[0] == 0.7 and out[1] == 0.3

    def test_hand_mean(self):
        out = average_probs([[0.8, 0.2], [0.6, 0.4]])
        assert np.allclose(out, [0.7, 0.3], atol=1e-12)

    def test_empty_member_list(self):
        with pytest.raises(ValueError, match="no ensemble members"):
            average_probs([])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            average_probs([[0.5, 0.5], [0.2, 0.3, 0.5]])

    def test_invalid_member_distribution(self):
        with pytest.raises(ValueError, match="sums to"):
            average_probs([[0.9, 0.3]])

    def test_permutation_invariance_and_idempotence(self):
        a, b = [0.8, 0.2], [0.1, 0.9]
        assert np.array_equal(average_probs([a, b]), average_probs([b, a]))
        # summation order costs at most one ulp
        assert np.allclose(average_probs([a, a, a]), a, rtol=0, atol=1e-15)

    @given(distributions())
    @settings(max_examples=40, deadline=None)
    def test_output_sums_to_one(self, p):
        out = average_probs([p, p[::-1].copy()])
        assert abs(out.sum() - 1.0) <= 1e-9


class TestSoftmax:
    @pytest.mark.parametrize("shape", [(300, 4, 4), (50, 8, 10), (7, 1, 2)])
    def test_batched_call_equals_per_row_calls_bitwise(self, shape):
        z = np.random.default_rng(11).normal(scale=3.0, size=shape)
        per_row = np.array([[_softmax(row) for row in block] for block in z])
        assert np.array_equal(_softmax(z), per_row)


class TestTemperatureScale:
    def test_unit_temperature_is_identity(self):
        p = np.array([0.6, 0.3, 0.1])
        assert np.max(np.abs(temperature_scale(p, 1.0) - p)) <= 1e-12

    def test_known_binary_value(self):
        out = temperature_scale([0.8, 0.2], 2.0)
        assert np.max(np.abs(out - [2.0 / 3.0, 1.0 / 3.0])) <= 1e-9

    def test_huge_temperature_tends_to_uniform(self):
        out = temperature_scale([0.8, 0.2], 1e6)
        assert np.max(np.abs(out - 0.5)) <= 1e-4

    def test_nonpositive_temperature_rejected(self):
        for temperature in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive"):
                temperature_scale([0.5, 0.5], temperature)

    def test_infinite_or_overflowing_temperature_rejected(self):
        # log(1e-12) / T is -0.0 at T = inf and overflows below about 1e-307
        for temperature in (float("inf"), 1e-320, 5e-324):
            with pytest.raises(ValueError, match="temperature must be positive and finite"):
                temperature_scale([0.5, 0.5], temperature)
        assert np.all(np.isfinite(temperature_scale([1.0, 0.0], 1e-300)))

    def test_handles_exact_zero_probability(self):
        out = temperature_scale([1.0, 0.0], 2.0)
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-9
        assert out.argmax() == 0

    @given(distributions(), st.sampled_from([0.5, 2.0, 3.0, 8.0, 10.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_power_closed_form(self, p, temperature):
        out = temperature_scale(p, temperature)
        oracle = power_temperature(p, temperature)
        assert np.max(np.abs(out - oracle)) <= 1e-9
        assert abs(out.sum() - 1.0) <= 1e-9
        assert out.argmax() == np.argmax(p)

    def test_sharpens_below_one_flattens_above(self):
        p = np.array([0.7, 0.3])
        assert temperature_scale(p, 0.5).max() >= p.max()
        assert temperature_scale(p, 4.0).max() <= p.max()


class TestActualClassConfidence:
    def test_indexing(self):
        assert actual_class_confidence([0.6, 0.4], 0) == 0.6
        assert actual_class_confidence([0.6, 0.4], 1) == 0.4

    def test_out_of_range_label(self):
        for label in (2, -1):
            with pytest.raises(ValueError, match=f"true label {label} out of range"):
                actual_class_confidence([0.6, 0.4], label)

    def test_composed_with_temperature_scale(self):
        softened = temperature_scale([0.8, 0.2], 2.0)
        assert actual_class_confidence(softened, 0) == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestSoftenEnsemble:
    """``temperature_scale(average_probs(P), T)`` on whole (n, M, K) arrays."""

    def test_bundles_members_mean_and_softened(self):
        members = np.array([[[0.8, 0.2], [0.6, 0.4]], [[0.1, 0.9], [0.3, 0.7]]])
        mean = average_probs(members)
        assert mean.shape == (2, 2)
        assert np.allclose(mean, [[0.7, 0.3], [0.2, 0.8]], rtol=0, atol=1e-12)
        softened = temperature_scale(mean, 2.0)
        for row, m in zip(softened, mean):
            assert np.allclose(row, power_temperature(m, 2.0), rtol=0, atol=1e-9)

    @given(member_arrays(), st.sampled_from([0.5, 1.0, 3.0, 8.0]))
    @settings(max_examples=80, deadline=None)
    def test_batched_matches_per_row_bytes(self, members, temperature):
        batched = temperature_scale(average_probs(members), temperature)
        assert batched.tobytes() == per_row_soften(members, temperature).tobytes()

    def test_wide_batch_with_zeros_matches_per_row_bytes(self):
        rng = np.random.default_rng(3)
        raw = rng.random((500, 8, 10)) * (rng.random((500, 8, 10)) < 0.7)
        raw[..., 0] += 0.01
        members = raw / raw.sum(axis=-1, keepdims=True)
        for temperature in (0.5, 1.0, 3.0, 8.0):
            batched = temperature_scale(average_probs(members), temperature)
            assert batched.tobytes() == per_row_soften(members, temperature).tobytes()

    def test_errors_name_the_row_and_member(self):
        members = np.full((3, 2, 2), 0.5)
        members[2, 1] = [0.9, 0.3]
        with pytest.raises(ValueError, match="row 2, member 1 sums to 1.2"):
            average_probs(members)
        members[2, 1] = [1.5, -0.5]
        with pytest.raises(ValueError, match="row 2, member 1 has entries outside"):
            average_probs(members)
        with pytest.raises(ValueError, match="row 1 sums to"):
            temperature_scale([[0.5, 0.5], [0.5, 0.6]], 2.0)


class TestActualClassConfidenceBatched:
    def test_picks_each_rows_label(self):
        softened = np.array([[0.6, 0.4], [0.1, 0.9], [0.3, 0.7]])
        assert actual_class_confidence(softened, np.array([0, 1, 0])).tolist() == [0.6, 0.9, 0.3]

    @pytest.mark.parametrize("label", [2, 7, -1])
    def test_label_outside_classes_names_row(self, label):
        with pytest.raises(ValueError, match=f"row 1: true label {label} out of range"):
            actual_class_confidence([[0.6, 0.4], [0.5, 0.5]], [0, label])


# accepted by the record reader: its exact sum lies within 1e-6 of 1, numpy's sum just past it
EDGE_ROW = [0.03254725338205713, 0.16800034966235264, 0.14413835873949352, 0.10097471687380824,
            0.23900856640479415, 0.24333844814996475, 0.037242320570758394, 0.034750986216771175]


def test_rows_the_record_reader_accepts_are_distributions():
    members = np.array([[EDGE_ROW, EDGE_ROW], [[0.125] * 8] * 2])
    softened = temperature_scale(average_probs(members), 3.0)
    assert softened.shape == (2, 8) and int(softened[0].argmax()) == 5
    assert temperature_scale(EDGE_ROW, 1.0).shape == (8,)


def test_sum_error_prints_the_sum_that_failed():
    with pytest.raises(ValueError) as rejected:
        average_probs(np.array([[[0.5, 0.500002]]]))
    assert str(rejected.value) == ("row 0, member 0 sums to 1.0000019999999998, "
                                   "not 1 within tolerance")
