"""The exact kernel of geom against the rational formulas it replaced.

On the exact backend geom computes on homogeneous integers.  The reference
below is the earlier exact path, kept verbatim: each primitive computes on the
``Fraction`` coordinates, tests zero with ``EXACT.is_zero`` and divides with
``EXACT.div``.  Every primitive must give a result with the same ``repr``, or
raise the same exception type with the same message, on seeded rationals of
magnitude 10 and 10^200, on lines and circles built directly from
non-canonical coefficients, and on degenerate inputs.  A second test makes
every ``Fraction`` arithmetic operator raise and runs each rewritten
primitive and the construction stage of ``simson``, so the kernel stays
integer-only.  A third counts the 3x3 determinants that building and
checking the golden scene evaluates.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from oblique_simson.errors import (
    CoincidentPoints,
    CollinearPoints,
    GeometryError,
    IdenticalCircles,
    KnownPointNotIncident,
    NoRadicalLine,
    ParallelLines,
    ZeroRadius,
)
from oblique_simson import geom, simson, verify
from oblique_simson.geom import Circle, DirectedTan, Line, Point
from oblique_simson.numeric import EXACT, Scalar
from oblique_simson.simson import Params

BE = EXACT


def E(value):
    return Scalar(BE, Fraction(value))


# -- reference: the rational formulas -----------------------------------------------


def ref_point(x, y):
    return Point(Scalar(BE, x), Scalar(BE, y))


def ref_line(a, b, c):
    if BE.is_zero(a) and BE.is_zero(b):
        raise GeometryError("line coefficients degenerate: a = b = 0")
    lcm = math.lcm(a.denominator, b.denominator, c.denominator)
    ia = a.numerator * (lcm // a.denominator)
    ib = b.numerator * (lcm // b.denominator)
    ic = c.numerator * (lcm // c.denominator)
    g = math.gcd(ia, ib, ic)
    ia, ib, ic = ia // g, ib // g, ic // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib, ic = -ia, -ib, -ic
    return Line(Scalar(BE, Fraction(ia)), Scalar(BE, Fraction(ib)), Scalar(BE, Fraction(ic)))


def ref_make_line(a, b, c):
    return ref_line(a.value, b.value, c.value)


def ref_circle(d, e, f):
    if not d * d + e * e - 4 * f > 0:
        raise GeometryError("not a proper circle: d^2 + e^2 - 4f <= 0")
    return Circle(Scalar(BE, d), Scalar(BE, e), Scalar(BE, f))


def ref_make_circle(d, e, f):
    return ref_circle(d.value, e.value, f.value)


def ref_center(c):
    return Point(Scalar(BE, -c.d.value / 2), Scalar(BE, -c.e.value / 2))


def ref_radius_sq(c):
    d, e = c.d.value, c.e.value
    return Scalar(BE, (d * d + e * e) / 4 - c.f.value)


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


def ref_on_circle(c, p):
    return ref__on_circle(c.d.value, c.e.value, c.f.value, p.x.value, p.y.value)


def ref_points_equal(p, q):
    return BE.is_zero(p.x.value - q.x.value) and BE.is_zero(p.y.value - q.y.value)


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


def ref_circle_through3(p, q, r):
    if ref_collinear3(p, q, r):
        raise CollinearPoints("no circle through collinear (or repeated) points")
    px, py, qx, qy, rx, ry = p.x.value, p.y.value, q.x.value, q.y.value, r.x.value, r.y.value
    s1 = px * px + py * py
    s2 = qx * qx + qy * qy
    s3 = rx * rx + ry * ry
    a11, a12, b1 = px - qx, py - qy, s2 - s1
    a21, a22, b2 = px - rx, py - ry, s3 - s1
    det = a11 * a22 - a21 * a12
    d = BE.div(b1 * a22 - b2 * a12, det)
    e = BE.div(a11 * b2 - a21 * b1, det)
    f = -(s1 + d * px + e * py)
    return ref_circle(d, e, f)


def ref_circle_center_through(center, p):
    cx, cy, px, py = center.x.value, center.y.value, p.x.value, p.y.value
    dx, dy = cx - px, cy - py
    if BE.is_zero(dx) and BE.is_zero(dy):
        raise ZeroRadius("circle through its own center has zero radius")
    r_sq = dx * dx + dy * dy
    return ref_circle(-2 * cx, -2 * cy, cx * cx + cy * cy - r_sq)


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


def ref_second_circle_circle(c1, c2, known):
    return ref_second_line_circle(ref_radical_line(c1, c2), c1, known)


def ref_collinear3(p, q, r):
    px, py, qx, qy, rx, ry = p.x.value, p.y.value, q.x.value, q.y.value, r.x.value, r.y.value
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return BE.is_zero(det, (px, py, qx, qy, rx, ry))


def ref__det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def ref_concyclic4(p, q, r, s):
    rows = []
    for pt_ in (p, q, r, s):
        x, y = pt_.x.value, pt_.y.value
        rows.append((x, y, x * x + y * y))
    r0, r1, r2, r3 = rows
    d1 = tuple(r1[i] - r0[i] for i in range(3))
    d2 = tuple(r2[i] - r0[i] for i in range(3))
    d3 = tuple(r3[i] - r0[i] for i in range(3))
    return BE.is_zero(ref__det3(d1, d2, d3), [v for row in rows for v in row])


def ref_directed_tan(l1, l2):
    a1, b1, a2, b2 = l1.a.value, l1.b.value, l2.a.value, l2.b.value
    a1a2, b1b2 = a1 * a2, b1 * b2
    den = a1a2 + b1b2
    if BE.is_zero(den, (a1a2, b1b2)):
        return DirectedTan.infinity()
    return DirectedTan.of(Scalar(BE, BE.div(a1 * b2 - a2 * b1, den)))


def ref_lines_equal(l1, l2):
    return (BE.is_zero(l1.a.value - l2.a.value) and BE.is_zero(l1.b.value - l2.b.value)
            and BE.is_zero(l1.c.value - l2.c.value))


def ref_circles_equal(c1, c2):
    return (BE.is_zero(c1.d.value - c2.d.value) and BE.is_zero(c1.e.value - c2.e.value)
            and BE.is_zero(c1.f.value - c2.f.value))


def ref_tan_eq(t1, t2):
    if t1.infinite or t2.infinite:
        return t1.infinite and t2.infinite
    return BE.is_zero(t1.value.value - t2.value.value)


# -- inputs ---------------------------------------------------------------------------

SCALES = (Fraction(-1), Fraction(-3, 7), Fraction(5, 2), Fraction(1, 3), Fraction(-9, 4))


def scaled_line(l, k):
    """The line built directly from l's coefficients times k."""
    return Line(E(l.a.value * k), E(l.b.value * k), E(l.c.value * k))


def scaled_circle(c, k):
    """A circle built directly from c's coefficients times k."""
    return Circle(E(c.d.value * k), E(c.e.value * k), E(c.f.value * k))


def copy_point(p):
    return ref_point(Fraction(p.x.value.numerator, p.x.value.denominator),
                     Fraction(p.y.value.numerator, p.y.value.denominator))


def cases(mag: int, seed: int, rounds: int):
    """(name, args) pairs for every primitive, rounds times over."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-mag, mag), rng.randint(1, mag))

    def pt():
        return ref_point(rat(), rat())

    def over(w):
        """A point of canonical weight w: its y has a numerator 1 mod w."""
        return ref_point(Fraction(rng.randint(-mag, mag), w),
                         Fraction(1 + w * rng.randint(-mag, mag), w))

    out = []
    for _ in range(rounds):
        p, q, r, s = pt(), pt(), pt(), pt()
        k = rng.choice(SCALES)
        raw_line = Line(E(rat()), E(rat()), E(rat()))
        raw_circle = Circle(E(rat()), E(rat()), E(rat()))
        d, e = rat(), rat()
        improper = (E(d), E(e), E(d * d + e * e))  # discriminant -3(d^2 + e^2) <= 0
        on_pq = ref_point(p.x.value + k * (q.x.value - p.x.value),
                          p.y.value + k * (q.y.value - p.y.value))
        l1, l2 = ref_line_through(p, q), ref_line_through(r, s)
        vertical = ref_make_line(E(1), E(0), E(-p.x.value))
        horizontal = ref_make_line(E(0), E(1), E(-p.y.value))
        parallel = Line(l1.a, l1.b, E(l1.c.value + 1))
        c1 = ref_circle_through3(p, q, r)
        c2 = ref_circle_center_through(s, p)
        concentric = ref_circle_center_through(ref_center(c1), s)
        tangent_at_p = ref_perpendicular_through(p, ref_line_through(ref_center(c1), p))
        touching = ref_circle_center_through(ref_midpoint(ref_center(c1), p), p)
        # circles that the vertical and the horizontal line through p touch at p
        beside = ref_circle_center_through(ref_point(p.x.value + k, p.y.value), p)
        above = ref_circle_center_through(ref_point(p.x.value, p.y.value + k), p)
        on_c1, _ = ref_second_line_circle(ref_line_through(p, s), c1, p)
        t12 = ref_directed_tan(l1, l2)
        # three points over one common weight w, the third once on the line of the first two
        w = rng.randint(2, mag)
        u1, u2, u3 = over(w), over(w), over(w)
        u_on = ref_point(2 * u2.x.value - u1.x.value, 2 * u2.y.value - u1.y.value)
        assert {u._h[2] for u in (u1, u2, u3, u_on)} == {w}
        ints = [ref_point(Fraction(rng.randint(-mag, mag)), Fraction(rng.randint(-mag, mag)))
                for _ in range(3)]
        # weights proportional to, but not equal to, w
        v1, v2, v3 = over(w), over(2 * w), over(3 * w)
        j = ref_point(Fraction(0), Fraction(0))
        on_jpq, _ = ref_second_line_circle(ref_line_through(j, r), ref_circle_through3(j, p, q), j)
        out += [
            ("line_through", (p, q)), ("line_through", (p, copy_point(p))),
            ("perpendicular_through", (r, l1)), ("perpendicular_through", (r, scaled_line(l1, k))),
            ("perpendicular_through", (r, raw_line)),
            ("intersect_lines", (l1, l2)), ("intersect_lines", (scaled_line(l1, k), l2)),
            ("intersect_lines", (l1, parallel)), ("intersect_lines", (l1, scaled_line(l1, k))),
            ("intersect_lines", (raw_line, l2)),
            ("foot_perpendicular", (r, l1)), ("foot_perpendicular", (r, scaled_line(l1, k))),
            ("foot_perpendicular", (p, l1)), ("foot_perpendicular", (r, raw_line)),
            ("reflect_in_line", (r, l1)), ("reflect_in_line", (r, scaled_line(l1, k))),
            ("reflect_in_line", (q, l1)), ("reflect_in_line", (s, raw_line)),
            ("second_line_circle", (ref_line_through(p, s), c1, p)),
            ("second_line_circle", (scaled_line(ref_line_through(s, p), k), c1, p)),
            ("second_line_circle", (vertical, c1, p)), ("second_line_circle", (horizontal, c2, p)),
            ("second_line_circle", (vertical, beside, p)),
            ("second_line_circle", (horizontal, above, p)),
            ("second_line_circle", (tangent_at_p, c1, p)),
            ("second_line_circle", (scaled_line(tangent_at_p, k), c1, p)),
            ("second_line_circle", (l2, c1, p)), ("second_line_circle", (l1, raw_circle, p)),
            ("second_line_circle", (ref_line_through(p, s), scaled_circle(c1, k), p)),
            ("second_circle_circle", (c1, c2, p)), ("second_circle_circle", (c2, c1, p)),
            ("second_circle_circle", (c1, touching, p)), ("second_circle_circle", (c1, c1, p)),
            ("second_circle_circle", (c1, concentric, s)),
            ("circle_through3", (p, q, r)), ("circle_through3", (p, q, on_pq)),
            ("circle_through3", (p, copy_point(p), q)), ("circle_through3", (p, on_c1, s)),
            ("circle_through3", (p, q, q)), ("circle_through3", (q, p, copy_point(q))),
            ("circle_through3", (u1, u2, u3)), ("circle_through3", (u3, u1, u2)),
            ("circle_through3", (u1, u2, u_on)), ("circle_through3", (u1, u2, u1)),
            ("circle_through3", tuple(ints)), ("circle_through3", (v1, v2, v3)),
            ("circle_through3", (u1, v2, u3)),
            ("circle_center_through", (r, p)), ("circle_center_through", (p, copy_point(p))),
            ("radical_line", (c1, c2)), ("radical_line", (c1, ref_circle_through3(p, q, r))),
            ("radical_line", (c1, concentric)), ("radical_line", (raw_circle, c1)),
            ("radical_line", (scaled_circle(c2, k), raw_circle)),
            ("on_line", (l1, p)), ("on_line", (l1, r)), ("on_line", (scaled_line(l1, k), q)),
            ("on_line", (raw_line, p)),
            ("on_circle", (c1, p)), ("on_circle", (c1, on_c1)), ("on_circle", (c1, s)),
            ("on_circle", (raw_circle, p)), ("on_circle", (scaled_circle(c2, k), p)),
            ("collinear3", (p, q, r)), ("collinear3", (p, q, on_pq)), ("collinear3", (p, p, r)),
            ("concyclic4", (p, q, r, s)), ("concyclic4", (p, q, r, on_c1)),
            ("concyclic4", (p, on_pq, q, on_pq)), ("concyclic4", (r, s, p, q)),
            ("concyclic4", (on_c1, p, q, r)), ("concyclic4", (p, p, q, r)),
            ("concyclic4", (p, q, r, copy_point(p))), ("concyclic4", (p, q, p, s)),
            ("concyclic4", (j, p, q, on_jpq)), ("concyclic4", (p, j, q, on_jpq)),
            ("concyclic4", (on_jpq, q, j, p)), ("concyclic4", (p, q, j, s)),
            ("concyclic4", (u1, u2, u3, u_on)), ("concyclic4", (v1, v2, v3, u1)),
            ("directed_tan", (l1, l2)), ("directed_tan", (scaled_line(l1, k), l2)),
            ("directed_tan", (l1, ref_perpendicular_through(r, l1))),
            ("directed_tan", (raw_line, l2)),
            ("dist_sq", (p, q)), ("dist_sq", (p, copy_point(p))),
            ("midpoint", (p, q)), ("midpoint", (r, r)),
            ("center", (c1,)), ("center", (raw_circle,)), ("center", (scaled_circle(c2, k),)),
            ("radius_sq", (c1,)), ("radius_sq", (raw_circle,)),
            ("points_equal", (p, q)), ("points_equal", (p, copy_point(p))),
            ("lines_equal", (l1, scaled_line(l1, 1))), ("lines_equal", (l1, scaled_line(l1, k))),
            ("lines_equal", (l1, l2)),
            ("circles_equal", (c1, scaled_circle(c1, 1))), ("circles_equal", (c1, c2)),
            ("tan_eq", (t12, ref_directed_tan(scaled_line(l1, k), l2))),
            ("tan_eq", (t12, ref_directed_tan(l1, raw_line))),
            ("tan_eq", (t12, DirectedTan.infinity())),
            ("tan_eq", (DirectedTan.infinity(), DirectedTan.infinity())),
            ("make_line", tuple(scaled_line(l1, k).__dict__.values())),
            ("make_line", tuple(raw_line.__dict__.values())),
            ("make_line", (E(0), E(0), E(rat()))),
            ("make_circle", tuple(c2.__dict__.values())),
            ("make_circle", tuple(raw_circle.__dict__.values())), ("make_circle", improper),
            ("on_circle", (Circle(*improper), p)), ("radius_sq", (Circle(*improper),)),
        ]
    return out


KERNEL = {
    "center": Circle.center, "radius_sq": Circle.radius_sq,
    "tan_eq": DirectedTan.__eq__,
}
REFERENCE = {name[4:]: fn for name, fn in globals().items()
             if name.startswith("ref_") and not name.startswith("ref__")}


def outcome(fn, args):
    try:
        return "=", repr(fn(*args))
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


@pytest.fixture
def no_text_limit():
    """Results at 10^200 can pass the integer-to-text digit limit; lift it
    so their reprs are compared, not two OutputErrors."""
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


@pytest.mark.parametrize("mag,seed,rounds", [(10, 1, 12), (10 ** 200, 2, 3)],
                         ids=["mag10", "mag1e200"])
def test_kernel_matches_rational_formulas(mag, seed, rounds, no_text_limit):
    seen = set()
    for name, args in cases(mag, seed, rounds):
        kernel = KERNEL.get(name) or getattr(geom, name)
        want = outcome(REFERENCE[name], args)
        assert outcome(kernel, args) == want, (name, args)
        seen.add((name, want[0] if want[0] == "=" else want[1]))
    # every degenerate case reached its raise
    for expected in (
        ("line_through", "CoincidentPoints"), ("intersect_lines", "ParallelLines"),
        ("second_line_circle", "KnownPointNotIncident"), ("second_circle_circle", "IdenticalCircles"),
        ("second_circle_circle", "NoRadicalLine"), ("circle_through3", "CollinearPoints"),
        ("circle_center_through", "ZeroRadius"), ("radical_line", "NoRadicalLine"),
        ("make_line", "GeometryError"), ("make_circle", "GeometryError"),
    ):
        assert expected in seen


def test_named_degenerate_results():
    p = ref_point(Fraction(1, 3), Fraction(-2, 5))
    # tangency at the known point returns the known point itself, flagged
    circle = ref_circle_center_through(ref_point(0, 0), p)
    tangent = ref_perpendicular_through(p, ref_line_through(ref_point(0, 0), p))
    assert geom.second_line_circle(scaled_line(tangent, Fraction(-3, 7)), circle, p) == (p, True)


def test_golden_scene_evaluates_few_determinants(monkeypatch):
    """The circle kernels evaluate no 3x3 determinant: concyclic4 sums over
    the 2x2 minors of its translated points, and only the collinearity tests
    take one, so building and checking the golden scene takes 6."""
    golden = Params.make(1, 2, 3, Fraction(1, 2))
    calls = []

    def counted(*rows, _det3=geom._det3):
        calls.append(rows)
        return _det3(*rows)

    monkeypatch.setattr(geom, "_det3", counted)
    report = verify.run_checks(simson.build_scene(golden))
    monkeypatch.undo()
    assert report.all_pass
    assert len(calls) <= 6


class TestNoFractionArithmetic:
    """With every Fraction arithmetic and ordering operator made to raise,
    each rewritten primitive, simson's vertex_point, apply_similarity and
    perspector_k, and the whole construction stage still run on exact
    inputs."""

    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                 "__neg__", "__pos__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__")

    def test_primitives_compute_on_integers(self, monkeypatch):
        calls = cases(10, 3, 2) + cases(10 ** 200, 4, 1)

        def forbidden(*_args):
            raise AssertionError("Fraction arithmetic inside the exact kernel")

        for name in self.OPERATORS:
            monkeypatch.setattr(Fraction, name, forbidden)
        for name, args in calls:
            kernel = KERNEL.get(name) or getattr(geom, name)
            try:
                kernel(*args)
            except GeometryError:
                pass

    def test_construction_stage_computes_on_integers(self, monkeypatch):
        # Params checks its parameters are distinct on Fractions: build first
        instances = [Params.make(*raw) for raw in (
            (1, 2, 3, Fraction(1, 2)), (Fraction(-3, 7), 0, Fraction(5, 2), 0),
            (Fraction(-10 ** 200 + 1, 7), Fraction(3, 10 ** 200), 10 ** 200,
             Fraction(-(10 ** 199), 13)),
        )]

        def forbidden(*_args):
            raise AssertionError("Fraction arithmetic in the exact construction stage")

        for name in self.OPERATORS:
            monkeypatch.setattr(Fraction, name, forbidden)
        for params in instances:
            simson.perspector_k(params.t)
            simson.apply_similarity(params.t, simson.vertex_point(params.a))
            simson.construct_core(params)
