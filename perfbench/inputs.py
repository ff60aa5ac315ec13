"""Seeded benchmark inputs: the SplitMix64 stream exactly as the README documents it.

The benchmark draws its own parameters instead of calling the package's
generator, so the package receives only generated inputs; ``run.py`` checks
that a prefix of this stream equals ``verify.fuzz`` for the same config.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

_MASK = (1 << 64) - 1

RawParams = Tuple[Fraction, Fraction, Fraction, Fraction]


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def rational(self, max_num: int, max_den: int) -> Fraction:
        num = self.next_u64() % (2 * max_num + 1) - max_num
        den = self.next_u64() % max_den + 1
        return Fraction(num, den)


def draw_pool(seed: int, count: int, max_num: int, max_den: int) -> List[RawParams]:
    """`count` parameter tuples (a, b, c, t), redrawing b and c on collision."""
    rng = SplitMix64(seed)
    pool: List[RawParams] = []
    for _ in range(count):
        a = rng.rational(max_num, max_den)
        b = rng.rational(max_num, max_den)
        while b == a:
            b = rng.rational(max_num, max_den)
        c = rng.rational(max_num, max_den)
        while c == a or c == b:
            c = rng.rational(max_num, max_den)
        t = rng.rational(max_num, max_den)
        pool.append((a, b, c, t))
    return pool
