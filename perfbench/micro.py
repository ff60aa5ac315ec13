"""Scalar microbenchmarks for the `numeric` layer.

Each figure is the median over REPEATS timed loops of LOOP operations, in ns
per operation including the loop's own overhead.  Operands are the first
instance's parameters, so `fuzz-exact-wide` times wide operands.  The
bare-`Fraction` figure is the floor that removing the `Scalar` wrapper aims at.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Dict, Sequence

LOOP = 2000
REPEATS = 7


def _mul_add(x, y, z) -> int:
    start = time.perf_counter_ns()
    for _ in range(LOOP):
        x * y + z
    return time.perf_counter_ns() - start


def _div(x, y, _z) -> int:
    start = time.perf_counter_ns()
    for _ in range(LOOP):
        x / y
    return time.perf_counter_ns() - start


def _is_zero_with(is_zero):
    def loop(x, _y, _z) -> int:
        start = time.perf_counter_ns()
        for _ in range(LOOP):
            is_zero(x)
        return time.perf_counter_ns() - start
    return loop


def _per_op_ns(loop, operands) -> float:
    return statistics.median(loop(*operands) for _ in range(REPEATS)) / LOOP


def numeric_micro(pkg, raw: Sequence[Fraction]) -> Dict[str, float]:
    """`numeric.*_ns` metrics from one instance's parameters (a, b, c, t)."""
    values = [v for v in raw if v != 0][:3]
    while len(values) < 3:
        values.append(Fraction(1))
    floats = pkg.FloatBackend(1e-9)
    operands = {
        "exact": [pkg.EXACT.scalar(v) for v in values],
        "float": [floats.scalar(v) for v in values],
        "fraction": values,
    }
    is_zero = _is_zero_with(pkg.numeric.is_zero)
    out = {}
    for backend, ops in operands.items():
        out[f"numeric.{backend}.mul_add_ns"] = _per_op_ns(_mul_add, ops)
        if backend != "fraction":
            out[f"numeric.{backend}.div_ns"] = _per_op_ns(_div, ops)
            out[f"numeric.{backend}.is_zero_ns"] = _per_op_ns(is_zero, ops)
    return out
