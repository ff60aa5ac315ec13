"""simson's integer helpers against the rational bodies they replaced.

On the exact backend ``vertex_point``, ``apply_similarity`` and
``perspector_k`` write p and t as n/d, read a point as homogeneous integers
and evaluate one integer formula per coordinate.  The reference below is the
earlier code, kept verbatim (same names, same bodies): it computes on the
``Fraction`` (or ``float``) values and divides with ``Backend.div``.  Every
result must have the same ``repr``, or raise the same exception type with
the same message, at magnitudes 10, 10^6 and 10^200, with t = 0, p = 0 and
negative p among the inputs, on both backends.
"""

import random
from fractions import Fraction

import pytest

from oblique_simson import simson
from oblique_simson.errors import BackendMismatch
from oblique_simson.geom import Point
from oblique_simson.numeric import EXACT, FloatBackend, Scalar


# -- reference: the rational bodies, verbatim -----------------------------------------


def vertex_point(p: Scalar) -> Point:
    """The circumcircle point (2, 2p) / (1 + p^2) for vertex parameter p."""
    be, v = p.backend, p.value
    den = 1 + v * v
    return Point(Scalar(be, be.div(2, den)), Scalar(be, be.div(2 * v, den)))


def apply_similarity(t: Scalar, p: Point) -> Point:
    """The direct similarity about J = (0,0) taking the orthocentre H to Q.

    As a matrix it is ((1/2, -t), (t, 1/2)): a rotation-dilation whose
    squared scale factor is (1 + 4 t^2) / 4.
    """
    be = p.x.backend
    if t.backend != be:
        raise BackendMismatch("similarity and point must share one backend")
    tv, x, y = t.value, p.x.value, p.y.value
    return Point(Scalar(be, x / 2 - tv * y), Scalar(be, tv * x + y / 2))


def perspector_k(t: Scalar) -> Point:
    """The common second intersection of every vertex-image line with Sigma.

    K = (8t^2, 4t) / (1 + 4t^2); independent of the vertex parameters, and
    equal to J itself at t = 0.
    """
    be, v = t.backend, t.value
    den = 1 + 4 * v * v
    return Point(Scalar(be, be.div(8 * v * v, den)), Scalar(be, be.div(4 * v, den)))


# -- the comparison ---------------------------------------------------------------------


def values(mag, seed, count):
    """0, negative and mixed-sign rationals up to mag, then seeded ones."""
    rng = random.Random(seed)
    out = [Fraction(0), Fraction(-1), Fraction(-3, 7), Fraction(mag), Fraction(-mag, 3),
           Fraction(1, mag)]
    out += [Fraction(rng.randint(-mag, mag), rng.randint(1, mag)) for _ in range(count)]
    return out


def outcome(fn, args):
    try:
        return "=", repr(fn(*args))
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


@pytest.mark.parametrize("backend,mag,seed,count", [
    (EXACT, 10, 1, 30), (EXACT, 10 ** 6, 2, 20), (EXACT, 10 ** 200, 3, 8),
    (FloatBackend(1e-9), 10, 4, 20), (FloatBackend(1e-9), 10 ** 6, 5, 10),
], ids=["exact-mag10", "exact-mag1e6", "exact-mag1e200", "float-mag10", "float-mag1e6"])
def test_helpers_match_rational_bodies(backend, mag, seed, count):
    scalars = [backend.scalar(v) for v in values(mag, seed, count)]
    rng = random.Random(seed)
    for p in scalars:
        assert outcome(simson.vertex_point, (p,)) == outcome(vertex_point, (p,)), p
        assert outcome(simson.perspector_k, (p,)) == outcome(perspector_k, (p,)), p
    # points over equal and over different denominators, vertices among them
    points = [Point(x, y) for x, y in zip(scalars, reversed(scalars))]
    points += [vertex_point(p) for p in scalars[:6]]
    for pt in points:
        for t in [scalars[0]] + rng.sample(scalars, 4):  # t = 0 first
            assert outcome(simson.apply_similarity, (t, pt)) == \
                outcome(apply_similarity, (t, pt)), (t, pt)
    other = FloatBackend(1e-6) if backend.exact else EXACT
    mismatch = (other.scalar(1), points[0])
    assert outcome(simson.apply_similarity, mismatch) == outcome(apply_similarity, mismatch)
    assert outcome(apply_similarity, mismatch)[1] == "BackendMismatch"
