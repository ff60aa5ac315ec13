"""The float side of geom's single formulas against the float bodies they replaced.

Nine primitives are one homogeneous formula for both backends; on floats
they read (x, y, 1.0), (a, b, c) and (d, e, f, 1.0), and multiplying by the
weight 1.0 is exact, so each must give the bits of the affine float body it
replaced.  The reference below keeps those bodies verbatim, with the float
writers they called, the float ``_hom_point`` (a coordinate-wise
``FloatBackend.div``), and the bodies of the primitives that still branch
but now read their inputs from ``_h``.  Every primitive must give a result
with the same ``repr`` (so the sign of a zero counts), or raise the same
exception type with the same message, on seeded floats at two tolerances
and three magnitudes and on degenerate inputs.
"""

import math
import random

import pytest

from oblique_simson import geom
from oblique_simson.errors import (
    CoincidentPoints,
    GeometryError,
    IdenticalCircles,
    KnownPointNotIncident,
    NoRadicalLine,
    ParallelLines,
)
from oblique_simson.geom import Circle, DirectedTan, Line, Point
from oblique_simson.numeric import FloatBackend, Scalar

BE = FloatBackend(1e-9)  # rebound by the `backend` fixture


# -- reference: the float bodies ------------------------------------------------------


def ref_point(x, y):
    return Point(Scalar(BE, x), Scalar(BE, y))


def ref_line(a, b, c):
    if BE.is_zero(a) and BE.is_zero(b):
        raise GeometryError("line coefficients degenerate: a = b = 0")
    norm = math.hypot(a, b)
    fa, fb, fc = a / norm, b / norm, c / norm
    lead = fa if abs(fa) > BE.eps_abs else fb
    if lead < 0:
        fa, fb, fc = -fa, -fb, -fc
    return Line(Scalar(BE, fa), Scalar(BE, fb), Scalar(BE, fc))


def ref_circle(d, e, f):
    if not d * d + e * e - 4 * f * 1 > 0:
        raise GeometryError("not a proper circle: d^2 + e^2 - 4f <= 0")
    return Circle(Scalar(BE, d), Scalar(BE, e), Scalar(BE, f))


def ref_hom_point(x, y, w):
    return ref_point(BE.div(x, w), BE.div(y, w))


def ref_make_circle(d, e, f):
    circle = Circle(d, e, f)
    if not d.value * d.value + e.value * e.value - 4 * f.value * 1 > 0:
        raise GeometryError("not a proper circle: d^2 + e^2 - 4f <= 0")
    return circle


def ref_center(c):
    return Point(Scalar(BE, -c.d.value / 2), Scalar(BE, -c.e.value / 2))


def ref_midpoint(p, q):
    return ref_point((p.x.value + q.x.value) / 2, (p.y.value + q.y.value) / 2)


def ref_dist_sq(p, q):
    dx, dy = p.x.value - q.x.value, p.y.value - q.y.value
    return Scalar(BE, dx * dx + dy * dy)


def ref__on_line(a, b, c, x, y):
    ax, by = a * x, b * y
    return BE.is_zero(ax + by + c, (ax, by, c))


def ref_on_line(l, p):
    return ref__on_line(l.a.value, l.b.value, l.c.value, p.x.value, p.y.value)


def ref__on_circle(d, e, f, x, y):
    xx, yy, dx, ey = x * x, y * y, d * x, e * y
    return BE.is_zero(xx + yy + dx + ey + f, (xx, yy, dx, ey, f))


def ref_line_through(p, q):
    px, py, qx, qy = p.x.value, p.y.value, q.x.value, q.y.value
    if BE.is_zero(px - qx) and BE.is_zero(py - qy):
        raise CoincidentPoints(f"no unique line through coincident points {p}")
    return ref_line(py - qy, qx - px, px * qy - qx * py)


def ref_perpendicular_through(p, l):
    a, b = l.b.value, -l.a.value
    return ref_line(a, b, -(a * p.x.value + b * p.y.value))


def ref__foot(p, l):
    x, y = p.x.value, p.y.value
    a, b = l.a.value, l.b.value
    k = BE.div(a * x + b * y + l.c.value, a * a + b * b)
    return x - k * a, y - k * b


def ref_foot_perpendicular(p, l):
    return ref_point(*ref__foot(p, l))


def ref_reflect_in_line(p, l):
    fx, fy = ref__foot(p, l)
    return ref_point(2 * fx - p.x.value, 2 * fy - p.y.value)


def ref_intersect_lines(l1, l2):
    a1, b1, c1 = l1.a.value, l1.b.value, l1.c.value
    a2, b2, c2 = l2.a.value, l2.b.value, l2.c.value
    a1b2, a2b1 = a1 * b2, a2 * b1
    det = a1b2 - a2b1
    if BE.is_zero(det, (a1b2, a2b1)):
        raise ParallelLines("lines are parallel or identical")
    return ref_point(BE.div(b1 * c2 - b2 * c1, det), BE.div(c1 * a2 - c2 * a1, det))


def ref_radical_line(c1, c2):
    d1, e1, f1 = c1.d.value, c1.e.value, c1.f.value
    d2, e2, f2 = c2.d.value, c2.e.value, c2.f.value
    d, e, f = d1 - d2, e1 - e2, f1 - f2
    if BE.is_zero(d, (d1, d2)) and BE.is_zero(e, (e1, e2)):
        if BE.is_zero(f, (f1, f2)):
            raise IdenticalCircles("radical line of identical circles is undefined")
        raise NoRadicalLine("concentric distinct circles have no radical line")
    return ref_line(d, e, f)


def ref_second_line_circle(l, c, known):
    a, b, lc = l.a.value, l.b.value, l.c.value
    cd, ce = c.d.value, c.e.value
    kx, ky = known.x.value, known.y.value
    if not ref__on_line(a, b, lc, kx, ky):
        raise KnownPointNotIncident("known point is not on the line")
    if not ref__on_circle(cd, ce, c.f.value, kx, ky):
        raise KnownPointNotIncident("known point is not on the circle")
    if abs(b) >= abs(a):
        sum_roots = BE.div(-(2 * a * lc + cd * b * b - ce * a * b), a * a + b * b)
        x1 = sum_roots - kx
        y1 = BE.div(-(a * x1 + lc), b)
    else:
        sum_roots = BE.div(-(2 * b * lc + ce * a * a - cd * a * b), a * a + b * b)
        y1 = sum_roots - ky
        x1 = BE.div(-(b * y1 + lc), a)
    if BE.is_zero(x1 - kx) and BE.is_zero(y1 - ky):
        return known, True
    return ref_point(x1, y1), False


def ref_directed_tan(l1, l2):
    a1, b1, a2, b2 = l1.a.value, l1.b.value, l2.a.value, l2.b.value
    a1a2, b1b2 = a1 * a2, b1 * b2
    den = a1a2 + b1b2
    if BE.is_zero(den, (a1a2, b1b2)):
        return DirectedTan.infinity()
    return DirectedTan.of(Scalar(BE, BE.div(a1 * b2 - a2 * b1, den)))


# -- inputs ---------------------------------------------------------------------------


def cases(mag: float, seed: int, rounds: int):
    """(name, args) pairs for every primitive, rounds times over."""
    rng = random.Random(seed)

    def num():
        # a float in [-mag, mag], or a short decimal, or a signed zero
        roll = rng.random()
        if roll < 0.1:
            return rng.choice((0.0, -0.0))
        if roll < 0.4:
            return rng.randint(-100, 100) * mag / 100
        return rng.uniform(-mag, mag)

    def pt():
        return ref_point(num(), num())

    origin, negative_origin = ref_point(0.0, 0.0), ref_point(-0.0, -0.0)
    out = []
    for _ in range(rounds):
        p, q, r, s = pt(), pt(), pt(), pt()
        l1, l2 = ref_line_through(p, q), ref_line_through(r, s)
        parallel = Line(l1.a, l1.b, Scalar(BE, l1.c.value + mag))
        identical = Line(l1.a, l1.b, l1.c)
        perpendicular = ref_perpendicular_through(r, l1)
        ra, rb, rc = num(), num(), num()
        if BE.is_zero(ra) and BE.is_zero(rb):
            rb = 1.0  # a Line with a = b = 0 raises; the draws, and the stream, are kept
        raw_line = Line(Scalar(BE, ra), Scalar(BE, rb), Scalar(BE, rc))
        c1, c2 = (ref_circle(-2 * c.x.value, -2 * c.y.value,
                             c.x.value * c.x.value + c.y.value * c.y.value - rr)
                  for c, rr in ((p, mag * mag), (q, mag * mag / 4)))
        concentric = ref_circle(c1.d.value, c1.e.value, c1.f.value + mag * mag / 2)
        raw_circle = Circle(Scalar(BE, num()), Scalar(BE, num()), Scalar(BE, num()))
        start = ref_point(-c1.d.value / 2 + mag, -c1.e.value / 2)  # on c1
        on_c1, _ = ref_second_line_circle(ref_line_through(start, s), c1, start)
        # circles that the vertical and the horizontal line through p touch at p
        px, py = p.x.value, p.y.value
        beside = ref_circle(-2 * (px + mag), -2 * py, (px + mag) * (px + mag) + py * py - mag * mag)
        above = ref_circle(-2 * px, -2 * (py + mag), px * px + (py + mag) * (py + mag) - mag * mag)
        out += [
            ("line_through", (p, q)), ("line_through", (q, p)), ("line_through", (p, origin)),
            ("line_through", (origin, negative_origin)),
            ("line_through", (p, ref_point(p.x.value, p.y.value))),
            ("line_through", (p, ref_point(p.x.value + 1e-12, p.y.value))),
            ("perpendicular_through", (r, l1)), ("perpendicular_through", (origin, l1)),
            ("perpendicular_through", (negative_origin, l2)),
            ("perpendicular_through", (origin, perpendicular)),
            ("perpendicular_through", (r, raw_line)), ("perpendicular_through", (p, l1)),
            ("intersect_lines", (l1, l2)), ("intersect_lines", (l1, parallel)),
            ("intersect_lines", (l1, identical)), ("intersect_lines", (l1, perpendicular)),
            ("intersect_lines", (raw_line, l2)),
            ("radical_line", (c1, c2)), ("radical_line", (c1, c1)),
            ("radical_line", (c1, Circle(c1.d, c1.e, c1.f))), ("radical_line", (c1, concentric)),
            ("radical_line", (raw_circle, c2)),
            ("midpoint", (p, q)), ("midpoint", (p, p)), ("midpoint", (origin, negative_origin)),
            ("dist_sq", (p, q)), ("dist_sq", (p, p)), ("dist_sq", (origin, negative_origin)),
            ("on_line", (l1, p)), ("on_line", (l1, q)), ("on_line", (l1, r)),
            ("on_line", (raw_line, origin)), ("on_line", (perpendicular, r)),
            ("directed_tan", (l1, l2)), ("directed_tan", (l1, perpendicular)),
            ("directed_tan", (perpendicular, l1)), ("directed_tan", (l1, parallel)),
            ("directed_tan", (raw_line, l2)),
            ("center", (c1,)), ("center", (raw_circle,)),
            ("center", (Circle(Scalar(BE, 0.0), Scalar(BE, -0.0), Scalar(BE, -1.0)),)),
            ("make_circle", tuple(vars(c2).values())),
            ("make_circle", tuple(vars(raw_circle).values())),
            ("make_circle", (Scalar(BE, 2.0), Scalar(BE, 0.0), Scalar(BE, 1.0))),
            ("hom_point", (num(), num(), num())), ("hom_point", (num(), -0.0, 2.0)),
            ("hom_point", (num(), num(), 0.0)), ("hom_point", (num(), num(), 1e-12)),
            ("foot_perpendicular", (r, l1)), ("foot_perpendicular", (origin, l1)),
            ("foot_perpendicular", (r, raw_line)),
            ("reflect_in_line", (r, l1)), ("reflect_in_line", (p, l1)),
            ("reflect_in_line", (origin, raw_line)),
            ("second_line_circle", (ref_line_through(start, s), c1, start)),
            ("second_line_circle", (ref_perpendicular_through(
                start, ref_line_through(ref_center(c1), start)), c1, start)),
            ("second_line_circle", (l2, c1, start)), ("second_line_circle", (l1, c2, p)),
            ("second_line_circle", (ref_line_through(on_c1, origin), c1, on_c1)),
            ("second_line_circle", (ref_line(1.0, 0.0, -px), beside, p)),
            ("second_line_circle", (ref_line(0.0, 1.0, -py), above, p)),
        ]
    return out


KERNEL = {"center": Circle.center,
          "hom_point": lambda x, y, w: geom._hom_point(BE, x, y, w)}
REFERENCE = {name[4:]: fn for name, fn in globals().items()
             if name.startswith("ref_") and not name.startswith("ref__")
             and name not in ("ref_point", "ref_line", "ref_circle")}


def outcome(fn, args):
    try:
        return "=", repr(fn(*args))
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


@pytest.fixture(params=[1e-6, 1e-9], ids=["eps1e-6", "eps1e-9"])
def backend(request):
    global BE
    saved, BE = BE, FloatBackend(request.param)
    yield BE
    BE = saved


@pytest.mark.parametrize("mag,seed", [(10.0, 1), (1e4, 2), (1e6, 3)],
                         ids=["mag10", "mag1e4", "mag1e6"])
def test_single_formulas_match_float_bodies(mag, seed, backend):
    seen = set()
    for name, args in cases(mag, seed, 15):
        kernel = KERNEL.get(name) or getattr(geom, name)
        want = outcome(REFERENCE[name], args)
        assert outcome(kernel, args) == want, (name, args)
        seen.add((name, want[0] if want[0] == "=" else want[1]))
    for expected in (
        ("line_through", "CoincidentPoints"), ("intersect_lines", "ParallelLines"),
        ("radical_line", "IdenticalCircles"), ("radical_line", "NoRadicalLine"),
        ("make_circle", "GeometryError"), ("hom_point", "DivisionByZero"),
        ("second_line_circle", "KnownPointNotIncident"), ("second_line_circle", "="),
    ):
        assert expected in seen


def test_signed_zeros(backend):
    """The perpendicular through the origin keeps the constant's sign: -0.0
    from -(b x + (-a) y) where a y - b x would give 0.0."""
    origin = ref_point(0.0, 0.0)
    line = ref_line(1.0, 2.0, 5.0)
    want = ref_perpendicular_through(origin, line)
    assert repr(want) == repr(geom.perpendicular_through(origin, line))
    assert repr(want).endswith(", -0.0)")
    assert repr(geom.midpoint(origin, ref_point(-0.0, -0.0))) == "Point(0.0, 0.0)"
    assert repr(geom.Circle(*(Scalar(BE, v) for v in (0.0, 0.0, -1.0))).center()) \
        == "Point(-0.0, -0.0)"
