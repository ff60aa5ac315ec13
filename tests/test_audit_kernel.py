"""The audit's printed formulas, written once for both backends, against
the bodies they replaced.

``verify`` evaluates each printed closed form as one homogeneous
polynomial over a common denominator D of its parameters: integers over
their lcm on exact, the floats over D = 1.0 on float, where each term keeps
the float operations in their order (a product with 1.0 is exact).  The
``_audit_eq25``/``_audit_eq26`` rows compare (n, d) pairs through
``geom._same_value`` on both backends.  The reference below is the earlier
code, kept verbatim (same names, same bodies) but for two changes: it reads
a vertex's parameters through ``vertex_parameter`` and ``other_parameters``
(once methods of ``Params``), and its rows compare with the objects that
``stage_objects`` writes from the construction stage's tuples.  It computes
on the ``Fraction`` (or ``float``) values and divides with ``Backend.div``.  Every
printed object, and the whole ``audit_printed_formulas`` report, must have
the same ``repr``, or raise the same exception with the same message, on
seeded parameters of magnitude 10, 10^6 and 10^200, including the instances
whose verdicts change (a = 0, abc = 0, b + c = 0) and t = 0, on both
backends, and on float at -0.0, the least subnormal, 1e-300 and 1e150.  A
guard makes every ``Fraction`` arithmetic and ordering operator raise and
runs the integer paths.
"""

import random
import sys
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Tuple

import pytest

from conftest import _fmt, _fmt_circle, _fmt_line, _fmt_point, printed_formula, printed_object
from oblique_simson import geom, simson, verify
from oblique_simson.geom import Circle, Line, Point
from oblique_simson.numeric import EXACT, FloatBackend, Scalar
from oblique_simson.simson import VERTEX_ORDER, Params


# -- reference: the rational bodies, verbatim -----------------------------------------


def vertex_parameter(params: Params, vertex: str) -> Scalar:
    return {"A": params.a, "B": params.b, "C": params.c}[vertex]


def other_parameters(params: Params, vertex: str) -> Tuple[Scalar, Scalar]:
    return {
        "A": (params.b, params.c),
        "B": (params.c, params.a),
        "C": (params.a, params.b),
    }[vertex]


def stage_objects(be, stage) -> SimpleNamespace:
    """The objects the reference rows compare with, keyed by vertex, written
    from the tuples of ``simson.construct_core``."""
    point, line = partial(geom._point_of, be), partial(geom._line_of, be)
    xyz = {v: (point(stage[n]), None) for v, n in zip(VERTEX_ORDER, "XYZ")}
    return SimpleNamespace(
        h=point(stage["H"]), xyz=xyz,
        joins={v: line(stage[v + v + "0"]) for v in VERTEX_ORDER},
        altitudes={v: line(stage["alt" + v]) for v in VERTEX_ORDER},
        circles={v: geom._circle_of(be, stage["c" + v]) for v in VERTEX_ORDER},
        hagge=lambda: geom.circle_through3(*(p for p, _ in xyz.values())))


def _printed_vertex_line(p: Scalar, t: Scalar) -> Line:
    # (p - 2t) x - (1 + 2pt) y + 4t = 0
    be, p, t = p.backend, p.value, t.value
    return geom.make_line(*(Scalar(be, v) for v in (p - 2 * t, -(1 + 2 * p * t), 4 * t)))


def _printed_vertex_circle(p: Scalar, t: Scalar) -> Circle:
    be, p, t = p.backend, p.value, t.value
    den = 1 + p * p
    return Circle(Scalar(be, be.div(-2 * (1 - 2 * p * t), den)),
                  Scalar(be, be.div(-2 * (p + 2 * t), den)), be.scalar(0))


def _printed_orthocenter(a: Scalar, b: Scalar, c: Scalar) -> Point:
    be, a, b, c = a.backend, a.value, b.value, c.value
    den = (1 + a * a) * (1 + b * b) * (1 + c * c)
    a2, b2, c2 = a * a, b * b, c * c
    x = be.div(2 * (2 + a2 + b2 + c2 - 2 * a2 * b2 * c2), den)
    y = be.div(2 * (a + b + c
                    + a * b2 * c2 + b * c2 * a2 + c * a2 * b2
                    + a * b2 + a * c2 + b * c2 + b * a2 + c * a2 + c * b2), den)
    return Point(Scalar(be, x), Scalar(be, y))


def _printed_altitude_coeffs(params: Params) -> Tuple[Scalar, Scalar, Scalar]:
    # (1+a^2)(b+c) x - (1+a^2)(1-bc) y + 2(a+b+c-abc) = 0, the altitude from A
    be, a, b, c = params.backend, params.a.value, params.b.value, params.c.value
    return (Scalar(be, (1 + a * a) * (b + c)),
            Scalar(be, -(1 + a * a) * (1 - b * c)),
            Scalar(be, 2 * (a + b + c - a * b * c)))


def _printed_xyz(own: Scalar, q: Scalar, r: Scalar, t: Scalar) -> Point:
    be, own, q, r, t = own.backend, own.value, q.value, r.value, t.value
    den = (1 + own * own) * (1 + q * q) * (1 + r * r)
    lead = own * q * r - own + q + r
    x = be.div(2 * (q + r + 2 * t - 2 * q * r * t) * lead, den)
    y = be.div(2 * lead * (q * r + 2 * t * (q + r) - 1), den)
    return Point(Scalar(be, x), Scalar(be, y))


def _printed_hagge(params: Params) -> Circle:
    be = params.backend
    a, b, c, t = params.a.value, params.b.value, params.c.value, params.t.value
    a2, b2, c2 = a * a, b * b, c * c
    den = (1 + a2) * (1 + b2) * (1 + c2)
    sym = a2 * b + a2 * c + b2 * c + b2 * a + c2 * a + c2 * b
    ee = b * c + c * a + a * b
    xb = (a2 * b2 * c2 + 2 * a * b * c * t * ee + 2 * t * sym
          + 2 * t * (a + b + c) - a2 - b2 - c2 - 2)
    yb = (2 * a2 * b2 * c2 * t - a * b * c * ee - 2 * t * (a2 + b2 + c2)
          - sym - (a + b + c + 4 * t))
    return Circle(Scalar(be, be.div(2 * xb, den)), Scalar(be, be.div(2 * yb, den)),
                  be.scalar(0))


def _audit_eq23(params: Params, core):
    for v in simson.VERTEX_ORDER:
        printed = _printed_vertex_line(vertex_parameter(params, v), params.t)
        if not geom.lines_equal(printed, core.joins[v]):
            return {"vertex": v, "printed": _fmt_line(printed),
                    "constructive": _fmt_line(core.joins[v])}
    return None


def _audit_eq24(params: Params, core):
    for v in simson.VERTEX_ORDER:
        printed = _printed_vertex_circle(vertex_parameter(params, v), params.t)
        if not geom.circles_equal(printed, core.circles[v]):
            return {"vertex": v, "printed": _fmt_circle(printed),
                    "constructive": _fmt_circle(core.circles[v])}
    return None


def _audit_eq25(params: Params, core):
    printed, built = _printed_orthocenter(params.a, params.b, params.c), core.h
    be = params.backend
    px, py, bx, by = printed.x.value, printed.y.value, built.x.value, built.y.value
    wx = wy = None
    if not be.is_zero(px - bx, (px, bx)):
        wx = {"printed": _fmt(printed.x), "constructive": _fmt(built.x)}
    if not be.is_zero(py - by, (py, by)):
        wy = {"printed": _fmt(printed.y), "constructive": _fmt(built.y)}
    return wx, wy


def _audit_eq26(params: Params, core):
    pa, pb, pc = _printed_altitude_coeffs(params)
    built = core.altitudes["A"]
    be = params.backend
    ra, rb, rc = pa.value, pb.value, pc.value
    ba, bb, bc = built.a.value, built.b.value, built.c.value
    ra_bb, rb_ba = ra * bb, rb * ba
    if not be.is_zero(ra_bb - rb_ba, (ra_bb, rb_ba)):
        wcoef = {"printed": f"[{_fmt(pa)}, {_fmt(pb)}]",
                 "constructive": _fmt_line(built)}
        return wcoef, None
    lam = be.div(ra, ba) if not be.is_zero(ba) else be.div(rb, bb)
    scaled_const = lam * bc
    if not be.is_zero(rc - scaled_const, (rc, scaled_const)):
        return None, {"printed": _fmt(pc), "constructive": _fmt(Scalar(be, scaled_const))}
    return None, None


def _audit_eq27(params: Params, core):
    for v in simson.VERTEX_ORDER:
        q, r = other_parameters(params, v)
        printed = _printed_xyz(vertex_parameter(params, v), q, r, params.t)
        built, _ = core.xyz[v]
        if not geom.points_equal(printed, built):
            return {"vertex": v, "printed": _fmt_point(printed),
                    "constructive": _fmt_point(built)}
    return None


def _audit_eq28(params: Params, core):
    printed = _printed_hagge(params)
    built = core.hagge()
    if not geom.circles_equal(printed, built):
        return {"printed": _fmt_circle(printed), "constructive": _fmt_circle(built)}
    return None


REFERENCE = {name: fn for name, fn in dict(globals()).items()
             if name.startswith(("_printed_", "_audit_eq"))}


# -- instances --------------------------------------------------------------------


def special_params(mag):
    """Rows whose verdicts change: a = 0 and abc = 0 (eq2.5.x matches),
    b + c = 0 (eq2.6.const matches); and the classical case t = 0."""
    p, q = Fraction(mag, 3), Fraction(-7, mag + 2)
    return [(p, q, Fraction(2, 5), 0), (0, p, q, Fraction(1, mag)),
            (p, q, 0, Fraction(-mag, 11)), (Fraction(1, 2), p, -p, Fraction(3, 4)),
            (0, p, -p, 0)]


# float values where a product with 1.0 must keep every bit: a signed zero,
# the least subnormal, a tiny and a huge normal
FLOAT_EDGES = (-0.0, 5e-324, 1e-300, 1e150)


def float_edge_params():
    """Each edge value as a vertex parameter and as t, and rows mixing them."""
    rows = [(e, Fraction(1, 2), -2, Fraction(3, 4)) for e in FLOAT_EDGES]
    rows += [(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), e) for e in FLOAT_EDGES]
    return rows + [(1e-300, 1e150, -3, -0.0), (5e-324, -1e150, 2, 1e-300)]


def drawn_params(mag, seed, count):
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-mag, mag), rng.randint(1, mag))

    out = []
    while len(out) < count:
        a, b, c, t = rat(), rat(), rat(), rat()
        if len({a, b, c}) == 3:
            out.append((a, b, c, t))
    return out


def printed_calls(params):
    """Every printed object the audit evaluates, as (helper name, args)."""
    calls = []
    for v in simson.VERTEX_ORDER:
        own, (q, r) = vertex_parameter(params, v), other_parameters(params, v)
        calls += [("_printed_vertex_line", (own, params.t)),
                  ("_printed_vertex_circle", (own, params.t)),
                  ("_printed_xyz", (own, q, r, params.t))]
    calls += [("_printed_orthocenter", (params.a, params.b, params.c)),
              ("_printed_altitude_coeffs", (params,)), ("_printed_hagge", (params,))]
    return calls


def outcome(fn, args):
    try:
        return "=", repr(fn(*args))
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


def printed_outcome(name, args):
    return outcome(lambda *a: printed_object(name, *a), args)


def reference_report(params, monkeypatch):
    """The report with each row replaced by its reference; a row of the
    audit takes (backend, stage, numbers), its reference params and the
    stage's objects."""
    with monkeypatch.context() as patch:
        for name, fn in REFERENCE.items():
            if name.startswith("_audit_eq"):
                patch.setattr(verify, name, lambda be, stage, _num, _fn=fn:
                              _fn(params, stage_objects(be, stage)))
        return outcome(verify.audit_printed_formulas, (params,))


@pytest.fixture
def no_text_limit():
    """Values at 10^200 pass the integer-to-text digit limit; lift it so
    their reprs are compared, not two OutputErrors."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


BACKENDS = {"exact": EXACT, "float": FloatBackend(1e-9)}


# float only up to 10^6: at 10^200 the parameters underflow the tolerance and
# the triangle is degenerate on that backend
@pytest.mark.parametrize("backend,mag,seed,count", [
    ("exact", 10, 1, 40), ("exact", 10 ** 6, 2, 15), ("exact", 10 ** 200, 3, 4),
    ("float", 10, 4, 40), ("float", 10 ** 6, 5, 15),
], ids=["exact-mag10", "exact-mag1e6", "exact-mag1e200", "float-mag10", "float-mag1e6"])
def test_audit_matches_rational_bodies(backend, mag, seed, count, monkeypatch,
                                       no_text_limit):
    be = BACKENDS[backend]
    verdicts = set()
    edges = [] if be.exact else float_edge_params()
    for raw in special_params(mag) + drawn_params(mag, seed, count) + edges:
        params = Params.make(*raw, backend=be)
        for name, args in printed_calls(params):
            want = outcome(REFERENCE[name], args)
            assert printed_outcome(name, args) == want, (name, raw)
        want = reference_report(params, monkeypatch)
        got = outcome(verify.audit_printed_formulas, (params,))
        assert got == want, raw
        if be.exact:
            report = verify.audit_printed_formulas(params)
            a, b, c, _ = map(Fraction, raw)
            assert report.result("eq2.5.x").passed == (a * b * c == 0), raw
            assert report.result("eq2.6.const").passed == (b + c == 0), raw
            verdicts.add(tuple(r.passed for r in report.results))
    if be.exact:  # both verdicts of each changing row were compared
        assert len(verdicts) == 4


def test_float_rows_keep_their_tolerance(monkeypatch):
    """A float instance within eps of abc = 0 matches eq2.5.x, as before."""
    fb = FloatBackend(1e-6)
    params = Params.make(Fraction(1, 3), Fraction(-2, 7), 1e-9, 0.5, backend=fb)
    assert reference_report(params, monkeypatch) == outcome(
        verify.audit_printed_formulas, (params,))
    assert verify.audit_printed_formulas(params).result("eq2.5.x").passed


class TestNoFractionArithmetic:
    """With every Fraction arithmetic and ordering operator made to raise,
    the six printed formulas, the eq2.5/eq2.6 comparisons and EXACT.parse
    still run on exact input."""

    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                 "__mod__", "__rmod__", "__pow__", "__rpow__",
                 "__neg__", "__pos__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__")

    def test_audit_and_reader_compute_on_integers(self, monkeypatch):
        instances = [Params.make(*raw) for raw in
                     special_params(10) + drawn_params(10 ** 200, 6, 2)]
        stages = [simson.construct_core(p)[0] for p in instances]
        texts = ["3/4", "-3/4", "5", "-0", "-0/7", "007/010", "2/4", "7" * 300]

        def forbidden(*_args):
            raise AssertionError("Fraction arithmetic on the exact audit-io path")

        for name in self.OPERATORS:
            monkeypatch.setattr(Fraction, name, forbidden)
        for params, stage in zip(instances, stages):
            for name, args in printed_calls(params):
                printed_formula(name, *args)
            num = geom._over_common(params.a, params.b, params.c, params.t)
            verify._audit_eq25(params.backend, stage, num)
            verify._audit_eq26(params.backend, stage, num)
        for text in texts:
            EXACT.parse(text)
