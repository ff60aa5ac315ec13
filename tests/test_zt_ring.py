"""The exact kernel over Z[t]: every check for all t on one triangle.

A test-only backend whose elements are polynomials in t with integer
coefficients runs the unmodified ``build_scene``, ``run_checks`` and
``audit_printed_formulas`` with a symbolic t and rational a, b, c, and
nothing is monkeypatched.  The kernel reaches the ring only through the
operations an exact-kind backend supplies (see :mod:`oblique_simson.numeric`):
``+ - *``, exact ``//``, ``==``, ``<`` and ``>`` against 0 and the full
``gcd``, which also writes the witnesses.  An element refuses everything else (truth
value, ``abs``, ``int``, ``<=``), so a kernel that used more would raise here.

A check that holds over Z[t] holds identically in t: a canonical tuple is
the content-free one, unique up to sign, so tuple equality is polynomial
identity.  Substituting a sample t into every object must give the exact
backend's object at that t, and a similarity with the wrong orientation
must fail.
"""

import dataclasses
import math
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest

import pytest

from conftest import check_witness
from oblique_simson import geom, simson, verify
from oblique_simson.errors import BackendMismatch, ConstructionError, DivisionByZero
from oblique_simson.numeric import EXACT, Backend, Scalar
from oblique_simson.simson import CIRCLE_NAMES, LINE_NAMES, POINT_NAMES, Params


class Poly:
    """An element of Z[t]: integer coefficients, constant term first, no
    trailing zero.  Ordered as t -> +infinity: the sign of an element is
    the sign of its leading coefficient."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    def __add__(self, other):
        o = _lift(other)
        if o is NotImplemented:
            return o
        return Poly(x + y for x, y in zip_longest(self.c, o.c, fillvalue=0))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-x for x in self.c)

    def __sub__(self, other):
        o = _lift(other)
        return o if o is NotImplemented else self + -o

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _lift(other)
        if o is NotImplemented:
            return o
        if not self.c or not o.c:
            return Poly(())
        out = [0] * (len(self.c) + len(o.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(o.c):
                    out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient; ArithmeticError when other does not divide self."""
        b = _lift(other).c
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        r, q = list(self.c), [0] * max(len(self.c) - len(b) + 1, 0)
        while len(r) >= len(b):
            shift = len(r) - len(b)
            coef, rest = divmod(r[-1], b[-1])
            if rest:
                raise ArithmeticError("inexact division in Z[t]")
            q[shift] = coef
            for i, y in enumerate(b):
                r[shift + i] -= coef * y
            while r and r[-1] == 0:
                r.pop()
        if r:
            raise ArithmeticError("inexact division in Z[t]")
        return Poly(q)

    def __rfloordiv__(self, other):
        return _lift(other) // self

    def __eq__(self, other):
        o = _lift(other)
        return o if o is NotImplemented else self.c == o.c

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __bool__(self):
        raise TypeError("a Z[t] element has no truth value; compare it with 0")

    def sign(self) -> int:
        return (self.c[-1] > 0) - (self.c[-1] < 0) if self.c else 0

    def at(self, t: Fraction) -> Fraction:
        value = Fraction(0)
        for x in reversed(self.c):
            value = value * t + x
        return value

    def __repr__(self):
        terms = [f"{x}*t^{i}" if i else str(x) for i, x in enumerate(self.c) if x]
        return " + ".join(reversed(terms)) or "0"


def _lift(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly((x,))
    return NotImplemented


def _primitive(c):
    g = math.gcd(*c)
    return [x // g for x in c]


def _prem(a, b):
    """The pseudo-remainder of a by b, as coefficient lists (deg a >= deg b)."""
    r, lead = list(a), b[-1]
    while len(r) >= len(b):
        shift, top = len(r) - len(b), r[-1]
        r = [lead * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= top * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd2(a, b):
    """The gcd of two coefficient lists: the gcd of the contents times the
    primitive gcd from a primitive pseudo-remainder sequence; leading
    coefficient positive."""
    if not a or not b:
        g = list(a or b)
    else:
        content = math.gcd(math.gcd(*a), math.gcd(*b))
        a, b = _primitive(a), _primitive(b)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _prem(a, b)
            b = _primitive(b) if b else b
        g = [content * x for x in a]
    return [-x for x in g] if g and g[-1] < 0 else g


def zt_gcd(*values) -> Poly:
    """The full gcd in Z[t], leading coefficient positive (0 when all are 0)."""
    g = []
    for v in values:
        g = _gcd2(g, list(_lift(v).c))
    return Poly(g)


Quotient = namedtuple("Quotient", "numerator denominator")


class ZtBackend(Backend):
    """Z[t] as an exact-kind backend; a quotient is a reduced fraction of
    polynomials, its denominator's leading coefficient positive."""

    name = "Z[t]"
    exact = True
    one = 1
    gcd = staticmethod(zt_gcd)

    def coerce(self, value):
        return Quotient(value, 1) if isinstance(value, Poly) else Fraction(value)

    def is_zero(self, value, entries=()) -> bool:
        return value == 0

    def div(self, n, d) -> Quotient:
        if d == 0:
            raise DivisionByZero("division by zero scalar")
        g = zt_gcd(n, d)
        if d < 0:
            g = -g
        return Quotient(n // g, d // g)


ZT = ZtBackend()
T = Poly((0, 1))
SAMPLE_T = Fraction(3, 7)

GOLDEN = (1, 2, 3)
SEEDED = [(p.a.value, p.b.value, p.c.value) for _, p, _ in verify.fuzz_instances(
    verify.FuzzConfig(seed=5, count=20, max_numerator=10, max_denominator=10))[0]]
TRIANGLES = [GOLDEN] + SEEDED


def zt_params(a, b, c) -> Params:
    return Params.make(a, b, c, T, backend=ZT)


def at_sample(h):
    """The entries of a Z[t] tuple at t = SAMPLE_T, as integers over one denominator."""
    values = [v.at(SAMPLE_T) if isinstance(v, Poly) else Fraction(v) for v in h]
    m = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values]


@pytest.fixture(scope="module")
def zt_scenes():
    return {abc: simson.build_scene(zt_params(*abc)) for abc in TRIANGLES}


def test_seeded_triangles_are_distinct_and_twenty():
    assert len(set(SEEDED)) == 20 and GOLDEN not in SEEDED


@pytest.mark.parametrize("abc", TRIANGLES)
def test_every_check_holds_for_all_t(zt_scenes, abc):
    scene = zt_scenes[abc]
    assert any(isinstance(v, Poly) and len(v.c) > 1 for v in scene.points["Q"]._h)
    report = verify.run_checks(scene)
    assert [r.name for r in report.results] == list(verify.CHECK_NAMES)
    assert report.failures == (), report.failures


@pytest.mark.parametrize("abc", TRIANGLES)
def test_sample_t_reproduces_every_exact_object(zt_scenes, abc):
    scene = zt_scenes[abc]
    exact = simson.build_scene(Params.make(*abc, SAMPLE_T))
    writers = [(POINT_NAMES, "points", geom._point_h), (LINE_NAMES, "lines", geom._line_h),
               (CIRCLE_NAMES, "circles", geom._over_v)]
    compared = 0
    for names, kind, canonical in writers:
        for n in names:
            h = getattr(scene, kind)[n]._h
            assert canonical(EXACT, *at_sample(h)) == getattr(exact, kind)[n]._h, n
            compared += 1
    assert compared == 33
    assert scene.flags == exact.flags == ()


@pytest.mark.parametrize("abc", TRIANGLES)
def test_audit_follows_criterion_4_for_all_t(abc):
    a, b, c = map(Fraction, abc)
    report = verify.audit_printed_formulas(zt_params(a, b, c))
    verdict = {r.name: r.passed for r in report.results}
    expected = dict.fromkeys(verify.AUDIT_NAMES, True)
    expected.update({"eq2.5.x": a * b * c == 0, "eq2.6.const": b + c == 0})
    assert verdict == expected, report.results
    assert report.params["t"] == repr(T)


def test_similarity_of_the_wrong_orientation_fails(monkeypatch):
    """The conjugate map, (x, y) -> (x/2 + ty, -tx + y/2), in place of the
    similarity.  The vertex circles are then about the conjugate images, so
    the closed form of X, which does not read the similarity, is off cA over
    Z[t], and the build stops at X's certificate before any check runs."""

    def conjugate(be, t, p):
        (x, y, w), (n, d) = p, t._ratio()
        return geom._point_h(be, x * d + 2 * n * y, -2 * n * x + y * d, 2 * d * w)

    monkeypatch.setattr(simson, "_similarity_h", conjugate)
    with pytest.raises(ConstructionError, match=r"^closed-form certificate failed: X is off cA$"):
        simson.build_scene(zt_params(*GOLDEN))


@pytest.mark.parametrize("abc", TRIANGLES)
def test_image_double_simson_passes_on_its_certificate(zt_scenes, monkeypatch, abc):
    """The certificate of line_equals_double_simson_of_image holds over Z[t]:
    its check never reaches the concyclicity test of its constructive body."""

    def body(*_args):
        raise AssertionError("the constructive body ran")

    monkeypatch.setattr(geom, "_concyclic4_h", body)
    assert check_witness(zt_scenes[abc], "line_equals_double_simson_of_image") is None


def test_perspector_of_the_wrong_orientation_fails(zt_scenes):
    """K of the conjugate map, (8t^2, -4t)/(1 + 4t^2), in place of K: the
    two checks that put K on a circle other than Sigma fail, and their
    witnesses are written over Z[t]."""
    scene = zt_scenes[GOLDEN]
    k = geom._hom_point(ZT, 8 * T * T, -4 * T, 1 + 4 * T * T)
    report = verify.run_checks(dataclasses.replace(scene, points={**scene.points, "K": k}))
    failed = {r.name: r.witness for r in report.failures}
    assert set(failed) == {"sigma0_through_J_and_K", "perspector_common"}
    assert "t" in failed["perspector_common"]["second"]


def test_ring_gcd_and_quotient():
    p, q = T * T - 1, 2 * T + 2  # (t - 1)(t + 1) and 2(t + 1)
    assert zt_gcd(p * 6, q * 3) == 6 * (T + 1)
    assert zt_gcd(-T, 0, 0) == T and zt_gcd(0, 0) == 0 and zt_gcd(4, 6) == 2
    assert ZT.div(p, -q) == (1 - T, 2)
    with pytest.raises(ArithmeticError):
        T // 2
    with pytest.raises(TypeError):
        bool(T)
    with pytest.raises(TypeError):
        T <= 0


def test_public_constructors_read_polynomial_denominators():
    """make_line, Point and line_eval bring values over a polynomial
    denominator to one denominator through the ring's gcd."""
    line = geom.make_line(Scalar(ZT, ZT.div(1, T)), ZT.scalar(1), ZT.scalar(0))  # x/t + y = 0
    assert line._h == (1, T, 0)
    assert geom.lines_equal(line, geom.Line(ZT.scalar(1), ZT.scalar(T), ZT.scalar(0)))
    p = geom.Point(Scalar(ZT, ZT.div(1, T)), ZT.scalar(1))  # (1/t, 1)
    assert p._h == (1, T, T)
    assert geom.line_eval(line, p)._ratio() == (1 + T * T, T)
    on = geom.Point(ZT.scalar(T), ZT.scalar(-1))
    assert geom.on_line(line, on) and geom.line_eval(line, on)._ratio() == (0, 1)


def test_ring_never_mixes_with_exact():
    with pytest.raises(BackendMismatch):
        Params(EXACT.scalar(1), EXACT.scalar(2), EXACT.scalar(3), ZT.scalar(T))
    assert ZT != EXACT and EXACT != ZT
