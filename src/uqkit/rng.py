"""Portable seeded pseudo-random generator.

Every stochastic piece of the toolkit (synthetic data, weight init, batch
shuffling) draws from this generator so that a seed pins down results
bit-for-bit, independent of numpy version or platform. The core stream is
xoshiro256** (Blackman & Vigna), seeded through SplitMix64; derived draws
use fixed textbook algorithms:

- blocks of n words: the SplitMix64 counter stream (Steele, Lea & Flood)
  keyed by one core word, in numpy uint64, which wraps modulo 2**64
- uniform doubles: 53 high bits of a word divided by 2**53, singly or per block
- normals: Box-Muller transform (pair-cached)
- gamma: Marsaglia-Tsang squeeze method, with the standard shape<1 boost,
  kept with its log
- beta: ratio of two gamma draws, from their logs when both underflow
- integers below a bound: rejection on the high bits (unbiased)
- permutations: stable argsort of one block
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(key: int, n: int) -> np.ndarray:
    """Words 1..n of the SplitMix64 stream that starts at ``key``."""
    z = np.uint64(key) + np.uint64(0x9E3779B97F4A7C15) * np.arange(1, n + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64), which :class:`PortableRng` would alias to one inside."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed (--seed) must be an integer in [0, 2**64), got {seed}")


class PortableRng:
    """xoshiro256** stream with uniform/normal/gamma/beta draws.

    Instances are cheap; create one per independent task from an integer
    seed. Never share an instance across logically independent pipelines,
    or their streams interleave.
    """

    def __init__(self, seed: int):
        self._s = [int(word) for word in _splitmix64(seed & _MASK64, 4)]
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        # the two rotations are written out: this runs once per scalar draw
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64  # rotl(s1 * 5, 7) * 9
        s2 ^= s0
        s3 ^= s1
        self._s = [s0 ^ s3, s1 ^ s2, s2 ^ ((s1 << 17) & _MASK64),
                   ((s3 << 45) | (s3 >> 19)) & _MASK64]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = max(bound - 1, 1).bit_length()
        while True:
            value = self.next_u64() >> (64 - nbits)
            if value < bound:
                return value

    def normal(self) -> float:
        """Standard Gaussian draw via the Box-Muller transform."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = self.random()
            while u1 <= 0.0:
                u1 = self.random()
            u2 = self.random()
            radius = math.sqrt(-2.0 * math.log(u1))
            z = radius * math.cos(2.0 * math.pi * u2)
            self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return z

    def _gamma_and_log(self, shape: float) -> tuple[float, float]:
        """A Gamma(shape > 0, 1) draw via Marsaglia-Tsang, and its log.

        The log stays finite where a tiny shape's draw underflows to 0.
        """
        if shape < 1.0:
            # boost: Gamma(a) = Gamma(a+1) * U^(1/a)
            u = self.random()
            while u <= 0.0:
                u = self.random()
            g, log_g = self._gamma_and_log(shape + 1.0)
            return g * u ** (1.0 / shape), log_g + math.log(u) / shape
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.random()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v, math.log(d * v)
            if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v, math.log(d * v)

    def beta(self, alpha: float, beta_param: float) -> float:
        if alpha <= 0.0 or beta_param <= 0.0:
            raise ValueError("beta parameters must be positive")
        if not (math.isfinite(alpha) and math.isfinite(beta_param)):
            raise ValueError(f"beta parameters must be finite, got {alpha}, {beta_param}")
        x, log_x = self._gamma_and_log(alpha)
        y, log_y = self._gamma_and_log(beta_param)
        if x + y == 0.0:  # both draws underflowed: x / (x + y) = 1 / (1 + exp(log y - log x))
            e = math.exp(-abs(log_y - log_x))
            return 1.0 / (1.0 + e) if log_x >= log_y else e / (1.0 + e)
        return x / (x + y)

    def u64_block(self, n: int) -> np.ndarray:
        """n words of the SplitMix64 stream keyed by one ``next_u64()``."""
        return _splitmix64(self.next_u64(), n)

    def uniform_block(self, low: float, high: float, n: int) -> np.ndarray:
        """n uniform doubles in [low, high), mapped from one block as :meth:`random` maps a word."""
        return low + (high - low) * ((self.u64_block(n) >> np.uint64(11)) * (1.0 / (1 << 53)))

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random order of range(n): the stable argsort of one block."""
        return np.argsort(self.u64_block(n), kind="stable")
