import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gen_split_per_row, pairwise_auccc, splitmix64_words
from uqkit.ccc import auccc_rank
from uqkit.distill import TrainConfig
from uqkit.records import OutcomeSet
from uqkit.rng import PortableRng
from uqkit.synth import (
    CLASS_MEAN_SCALE,
    ConfidenceDist,
    SynthOutcomeConfig,
    SynthUdistConfig,
    _gen_split,
    gen_outcomes,
    gen_udist_task,
)


class TestPortableRng:
    def test_stream_is_seed_deterministic(self):
        a = PortableRng(42)
        b = PortableRng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert PortableRng(1).next_u64() != PortableRng(2).next_u64()

    def test_uniform_range(self):
        rng = PortableRng(0)
        draws = [rng.random() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.45 < np.mean(draws) < 0.55

    def test_randint_bounds_and_coverage(self):
        rng = PortableRng(3)
        draws = [rng.randint(5) for _ in range(500)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_normal_moments(self):
        rng = PortableRng(8)
        draws = np.array([rng.normal() for _ in range(20000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    def test_beta_support_and_mean(self):
        rng = PortableRng(9)
        draws = np.array([rng.beta(2.0, 5.0) for _ in range(5000)])
        assert np.all((draws > 0) & (draws < 1))
        assert abs(draws.mean() - 2.0 / 7.0) < 0.02

    @pytest.mark.parametrize("shape", [0.001, 0.0001])
    def test_beta_of_tiny_symmetric_shapes(self, shape):
        # both gamma draws underflow to 0 on most seeds; their logs still give the ratio
        draws = np.array([PortableRng(seed).beta(shape, shape) for seed in range(2000)])
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert abs(draws.mean() - 0.5) < 0.05
        # beta(a, a) piles up at the ends as a -> 0: 99.4 % (a = 0.001) and 99.95 % (a = 0.0001)
        # of these draws lie within 0.01 of 0 or 1; U^(1/a) misread as U^a gives 79 % and 16 %
        assert np.mean(np.minimum(draws, 1.0 - draws) < 0.01) >= 0.95

    def test_log_gamma_mean_is_digamma(self):
        # E[log G] = psi(1) = -0.5772... for G ~ Gamma(1), with variance psi'(1) = pi^2 / 6
        # (Marsaglia & Tsang, ACM TOMS 2000); a squeeze that accepts points the exact test
        # rejects moves the mean by more than 10 standard errors
        rng = PortableRng(11)
        n = 20_000
        logs = np.array([rng._gamma_and_log(1.0)[1] for _ in range(n)])
        z = (logs.mean() + 0.5772156649015329) / (math.pi / math.sqrt(6 * n))
        assert abs(z) < 4

    def test_permutation_is_a_permutation(self):
        rng = PortableRng(4)
        assert sorted(rng.permutation(20)) == list(range(20))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_block_matches_scalar_splitmix64(self, seed, n):
        key = PortableRng(seed).next_u64()
        block = PortableRng(seed).u64_block(n)
        assert block.dtype == np.uint64
        assert block.tolist() == splitmix64_words(key, n)

    def test_seeding_matches_scalar_splitmix64(self):
        for seed in (0, 5, -3, 2**64 + 9):
            assert PortableRng(seed)._s == splitmix64_words(seed % 2**64, 4)

    @pytest.mark.parametrize("n", [0, 1, 2, 2000])
    def test_permutation_sizes(self, n):
        assert sorted(PortableRng(n).permutation(n).tolist()) == list(range(n))

    def test_block_stream_is_pinned(self):
        # golden integers: any change to seeding, the key draw or the block mix shows here
        assert PortableRng(2024).u64_block(3).tolist() == [
            17906168426703532546, 14779163462206821631, 16323221909845190605
        ]
        assert PortableRng(2024).permutation(10).tolist() == [4, 6, 5, 7, 3, 9, 8, 1, 2, 0]

    def test_uniform_block_range(self):
        draws = PortableRng(6).uniform_block(-0.25, 0.75, 5000)
        assert draws.shape == (5000,)
        assert np.all((draws >= -0.25) & (draws < 0.75))
        assert 0.23 < draws.mean() < 0.27
        # the 53-bit mapping of random(), word for word
        words = splitmix64_words(PortableRng(6).next_u64(), 5000)
        assert draws.tolist() == [-0.25 + 1.0 * ((w >> 11) * (1.0 / (1 << 53))) for w in words]


class TestConfidenceDist:
    def test_parse_round_trip(self):
        d = ConfidenceDist.parse("uniform:0.5,1")
        assert d.kind == "uniform" and d.params == (0.5, 1.0)
        assert ConfidenceDist.parse("constant:0.7").params == (0.7,)
        assert ConfidenceDist.parse("beta:2,5").params == (2.0, 5.0)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            ConfidenceDist.parse("gauss:0,1")
        with pytest.raises(ValueError, match="parameter"):
            ConfidenceDist.parse("uniform:0.5")
        with pytest.raises(ValueError, match="bad distribution"):
            ConfidenceDist.parse("uniform:a,b")

    def test_support_validation(self):
        with pytest.raises(ValueError, match="inside"):
            ConfidenceDist.uniform(0.5, 1.5)
        with pytest.raises(ValueError, match="positive"):
            ConfidenceDist.beta(-1.0, 2.0)
        with pytest.raises(ValueError, match="must lie in"):
            ConfidenceDist.constant(1.1)


class TestGenOutcomes:
    def test_counts_respected_exactly(self):
        config = SynthOutcomeConfig(
            n_correct=17, n_incorrect=5,
            correct_conf_dist=ConfidenceDist.uniform(0, 1),
            incorrect_conf_dist=ConfidenceDist.uniform(0, 1), seed=1,
        )
        out = gen_outcomes(config)
        assert int(np.sum(out.correct)) == 17
        assert int(np.sum(~out.correct)) == 5

    def test_deterministic_per_seed(self):
        config = SynthOutcomeConfig(
            n_correct=50, n_incorrect=50,
            correct_conf_dist=ConfidenceDist.beta(5, 2),
            incorrect_conf_dist=ConfidenceDist.beta(2, 5), seed=44,
        )
        assert gen_outcomes(config).confidence.tobytes() == gen_outcomes(config).confidence.tobytes()

    def test_separated_constants_give_auccc_one(self):
        config = SynthOutcomeConfig(
            n_correct=10, n_incorrect=10,
            correct_conf_dist=ConfidenceDist.constant(0.9),
            incorrect_conf_dist=ConfidenceDist.constant(0.1), seed=0,
        )
        assert auccc_rank(gen_outcomes(config)) == 1.0

    def test_matched_uniforms_give_auccc_half(self):
        config = SynthOutcomeConfig(
            n_correct=10_000, n_incorrect=10_000,
            correct_conf_dist=ConfidenceDist.uniform(0, 1),
            incorrect_conf_dist=ConfidenceDist.uniform(0, 1), seed=5,
        )
        assert 0.48 <= auccc_rank(gen_outcomes(config)) <= 0.52

    def test_half_overlapping_uniforms_give_three_quarters(self):
        # P(U(0.5,1) > U(0,1)) = 0.75 by direct integration
        config = SynthOutcomeConfig(
            n_correct=20_000, n_incorrect=20_000,
            correct_conf_dist=ConfidenceDist.uniform(0.5, 1),
            incorrect_conf_dist=ConfidenceDist.uniform(0, 1), seed=6,
        )
        assert auccc_rank(gen_outcomes(config)) == pytest.approx(0.75, abs=0.02)

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match="at least 1"):
            SynthOutcomeConfig(
                n_correct=0, n_incorrect=5,
                correct_conf_dist=ConfidenceDist.constant(0.5),
                incorrect_conf_dist=ConfidenceDist.constant(0.5),
            )


def ensemble_errors(split):
    mean = split.member_probs.mean(axis=1)
    return mean.argmax(axis=1) != split.labels


class TestGenUdistTask:
    def test_shapes(self):
        config = SynthUdistConfig(n_train=40, n_test=30, feature_dim=6, n_classes=3,
                                  ensemble_size=2, seed=1)
        task = gen_udist_task(config)
        assert task.train.features.shape == (40, 6)
        assert task.test.features.shape == (30, 6)
        assert task.train.member_probs.shape == (40, 2, 3)
        assert set(np.unique(task.train.labels)) <= {0, 1, 2}

    def test_bit_exact_determinism(self):
        config = SynthUdistConfig(n_train=60, n_test=60, seed=123)
        a = gen_udist_task(config)
        b = gen_udist_task(config)
        assert a.train.features.tobytes() == b.train.features.tobytes()
        assert a.test.member_probs.tobytes() == b.test.member_probs.tobytes()
        assert a.train.labels.tobytes() == b.train.labels.tobytes()

    def test_zero_noise_makes_members_identical(self):
        config = SynthUdistConfig(n_train=30, n_test=5, noise_scale=0.0, seed=2)
        task = gen_udist_task(config)
        for m in range(1, config.ensemble_size):
            assert np.array_equal(task.train.member_probs[:, m], task.train.member_probs[:, 0])

    def test_member_probs_are_distributions(self):
        task = gen_udist_task(SynthUdistConfig(n_train=50, n_test=5, seed=3))
        sums = task.train.member_probs.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_errors_increase_with_signal(self):
        task = gen_udist_task(SynthUdistConfig(n_train=1500, n_test=5, seed=4))
        errors = ensemble_errors(task.train)
        assert errors.any() and not errors.all()
        signal = task.train.features[:, -1]
        # positive rank correlation: the signal ranks errors above correct cases
        assert pairwise_auccc(errors, signal) > 0.6

    def test_zero_strength_breaks_the_association(self):
        config = SynthUdistConfig(n_train=1500, n_test=5, error_signal_strength=0.0, seed=4)
        task = gen_udist_task(config)
        errors = ensemble_errors(task.train)
        assert errors.any() and not errors.all()
        signal = task.train.features[:, -1]
        assert 0.45 <= pairwise_auccc(errors, signal) <= 0.55

    def test_config_validation(self):
        with pytest.raises(ValueError, match="feature_dim"):
            SynthUdistConfig(feature_dim=1)
        with pytest.raises(ValueError, match="classes"):
            SynthUdistConfig(n_classes=1)
        with pytest.raises(ValueError, match="member"):
            SynthUdistConfig(ensemble_size=0)
        with pytest.raises(ValueError, match="non-negative"):
            SynthUdistConfig(noise_scale=-0.1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"noise_scale \(--noise-scale\) must be finite"):
                SynthUdistConfig(noise_scale=value)
            with pytest.raises(ValueError, match=r"\(--signal-strength\) must be finite"):
                SynthUdistConfig(error_signal_strength=value)


def assert_split_matches_per_row(n: int, config: SynthUdistConfig) -> None:
    """The two-pass split equals the per-row one bit for bit, and leaves the stream where it did."""
    rng = PortableRng(config.seed)
    means = np.array([[CLASS_MEAN_SCALE * rng.normal() for _ in range(config.feature_dim - 1)]
                      for _ in range(config.n_classes)])
    rngs = rng, copy.deepcopy(rng)
    split = _gen_split(n, means, config, rngs[0])
    features, labels, member_probs = gen_split_per_row(n, means, config, rngs[1])
    assert split.features.tobytes() == features.tobytes()
    assert split.features.shape == features.shape
    assert split.labels.tobytes() == labels.tobytes()
    assert split.member_probs.tobytes() == member_probs.tobytes()
    assert split.member_probs.shape == member_probs.shape
    # the next word and the next normal, which may be a cached spare: same draws, same order
    assert [rngs[0].next_u64(), rngs[0].normal()] == [rngs[1].next_u64(), rngs[1].normal()]


class TestTwoPassSplit:
    """``_gen_split`` takes every draw, then computes in numpy; the oracle goes row by row."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 25),
        feature_dim=st.integers(2, 40),
        n_classes=st.integers(2, 13),
        ensemble_size=st.integers(1, 8),
        noise_scale=st.sampled_from([0.0, 0.05, 1.5]),
        strength=st.sampled_from([0.0, 5.0, 0.3]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_per_row_split(self, n, feature_dim, n_classes, ensemble_size,
                                   noise_scale, strength, seed):
        config = SynthUdistConfig(feature_dim=feature_dim, n_classes=n_classes,
                                  ensemble_size=ensemble_size, noise_scale=noise_scale,
                                  error_signal_strength=strength, seed=seed)
        assert_split_matches_per_row(n, config)

    @pytest.mark.parametrize("config", [
        SynthUdistConfig(error_signal_strength=1e308),
        SynthUdistConfig(noise_scale=1e300),
    ], ids=["strength-1e308", "noise-1e300"])
    def test_large_flags_that_do_not_overflow_match_per_row_split(self, config):
        assert_split_matches_per_row(50, config)

    def test_overflowing_flags_are_named(self):
        with pytest.raises(ValueError, match=r"\(--noise-scale\) and .* \(--signal-strength\)"):
            gen_udist_task(SynthUdistConfig(n_train=5, n_test=5, noise_scale=1e308))

    @pytest.mark.parametrize("config", [
        SynthUdistConfig(),
        SynthUdistConfig(feature_dim=12, n_classes=7, ensemble_size=3, seed=1),
        SynthUdistConfig(feature_dim=200, n_classes=2, ensemble_size=1, seed=2),
    ], ids=["default", "12x7x3", "wide-features"])
    def test_matches_per_row_split_at_size(self, config):
        assert_split_matches_per_row(500, config)


@pytest.mark.parametrize("build", [
    lambda seed: SynthOutcomeConfig(1, 1, ConfidenceDist.constant(0.5),
                                    ConfidenceDist.constant(0.5), seed=seed),
    lambda seed: SynthUdistConfig(seed=seed),
    lambda seed: TrainConfig(seed=seed),
], ids=["outcomes", "udist", "train"])
def test_configs_take_seeds_in_64_bits_only(build):
    for seed in (-1, 2**64, -(2**63)):
        with pytest.raises(ValueError, match=r"^seed \(--seed\) must be an integer in \[0, 2"):
            build(seed)
    assert build(2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("params, message", [
    ((float("nan"), 1.0), "beta parameters must be finite, got nan, 1.0"),
    ((2.0, float("inf")), "beta parameters must be finite, got 2.0, inf"),
    ((0.0, 1.0), "beta parameters must be positive"),
    ((1.0, -1.0), "beta parameters must be positive"),
])
def test_beta_rejects_parameters_that_are_not_positive_and_finite(params, message):
    # as ConfidenceDist does; NaN and infinity would give NaN draws
    with pytest.raises(ValueError) as raised:
        PortableRng(0).beta(*params)
    assert str(raised.value) == message


def test_one_row_splits_are_the_smallest():
    task = gen_udist_task(SynthUdistConfig(n_train=1, n_test=1))
    assert len(task.train) == len(task.test) == 1
    assert task.train.features.shape == (1, SynthUdistConfig.feature_dim)
    with pytest.raises(ValueError, match="split sizes must be at least 1"):
        SynthUdistConfig(n_train=0, n_test=1)
