"""Backend-generic planar primitives: lines, circles and their constructions.

Everything here is square-root-free.  Lines are stored as ax + by + c = 0,
circles in general form x^2 + y^2 + dx + ey + f = 0, and every "second
intersection" is recovered from a known common point via Vieta's relation on
the restricted quadratic, so exact-rational inputs give exact-rational
outputs throughout.

On the exact backend lines are canonical: integer coefficients with content 1
and the first nonzero of (a, b) positive, so equal lines compare equal
field-by-field.  On the float backend lines are scaled to unit normal with
the analogous sign rule, and all zero tests use the backend tolerance scaled
by the magnitude of the participating entries.

Points, lines, circles and directed-angle tangents store
:class:`~oblique_simson.numeric.Scalar` values, but nothing here computes on
Scalars: the primitives (and :meth:`DirectedTan.__eq__`) read every input's
``.value`` once, compute on the bare ``Fraction`` (exact backend) or
``float`` (float backend), and wrap each output once.  Zero tests and
divisions by computed quantities go through the backend's ``is_zero`` and
``div``.  A primitive taking two or more objects checks once that they share
a backend and raises :class:`~oblique_simson.errors.BackendMismatch`
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    BackendMismatch,
    CoincidentPoints,
    CollinearPoints,
    ConstructionError,
    GeometryError,
    IdenticalCircles,
    KnownPointNotIncident,
    NoRadicalLine,
    ParallelLines,
    ZeroRadius,
)
from .numeric import Backend, Scalar


@dataclass(frozen=True, eq=True)
class Point:
    x: Scalar
    y: Scalar

    @property
    def backend(self) -> Backend:
        return self.x.backend

    def __repr__(self) -> str:
        return f"Point({self.x.value}, {self.y.value})"


@dataclass(frozen=True, eq=True)
class Line:
    """ax + by + c = 0 with (a, b) != (0, 0); build via make_line."""

    a: Scalar
    b: Scalar
    c: Scalar

    @property
    def backend(self) -> Backend:
        return self.a.backend

    def __repr__(self) -> str:
        return f"Line({self.a.value}, {self.b.value}, {self.c.value})"


@dataclass(frozen=True, eq=True)
class Circle:
    """x^2 + y^2 + dx + ey + f = 0 with positive discriminant d^2+e^2-4f."""

    d: Scalar
    e: Scalar
    f: Scalar

    @property
    def backend(self) -> Backend:
        return self.d.backend

    def center(self) -> Point:
        be = self.d.backend
        return Point(Scalar(be, -self.d.value / 2), Scalar(be, -self.e.value / 2))

    def radius_sq(self) -> Scalar:
        d, e = self.d.value, self.e.value
        return Scalar(self.d.backend, (d * d + e * e) / 4 - self.f.value)

    def __repr__(self) -> str:
        return f"Circle({self.d.value}, {self.e.value}, {self.f.value})"


@dataclass(frozen=True)
class DirectedTan:
    """Tangent of a directed angle between lines, mod pi; may be infinite."""

    value: Optional[Scalar]
    infinite: bool = False

    @classmethod
    def of(cls, value: Scalar) -> "DirectedTan":
        return cls(value=value, infinite=False)

    @classmethod
    def infinity(cls) -> "DirectedTan":
        return cls(value=None, infinite=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedTan):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        be = _common_backend(self.value, other.value)
        return be.is_zero(self.value.value - other.value.value)

    def __repr__(self) -> str:
        return "DirectedTan(inf)" if self.infinite else f"DirectedTan({self.value.value})"


def _common_backend(first, *rest) -> Backend:
    """The backend shared by all arguments; BackendMismatch if they differ."""
    be = first.backend
    for obj in rest:
        if obj.backend != be:
            raise BackendMismatch(
                f"cannot combine {be.name} and {obj.backend.name} objects")
    return be


def _point(be: Backend, x, y) -> Point:
    return Point(Scalar(be, x), Scalar(be, y))


# -- factories -----------------------------------------------------------------


def point(backend: Backend, x, y) -> Point:
    return Point(backend.scalar(x), backend.scalar(y))


def _line(be: Backend, a, b, c) -> Line:
    """Canonical Line from raw coefficients (see make_line)."""
    if be.is_zero(a) and be.is_zero(b):
        raise GeometryError("line coefficients degenerate: a = b = 0")
    if be.exact:
        lcm = math.lcm(a.denominator, b.denominator, c.denominator)
        ia = a.numerator * (lcm // a.denominator)
        ib = b.numerator * (lcm // b.denominator)
        ic = c.numerator * (lcm // c.denominator)
        g = math.gcd(ia, ib, ic)
        ia, ib, ic = ia // g, ib // g, ic // g
        if ia < 0 or (ia == 0 and ib < 0):
            ia, ib, ic = -ia, -ib, -ic
        return Line(Scalar(be, Fraction(ia)), Scalar(be, Fraction(ib)),
                    Scalar(be, Fraction(ic)))
    norm = math.hypot(a, b)  # > eps_abs, as a and b are not both zero
    fa, fb, fc = a / norm, b / norm, c / norm
    lead = fa if abs(fa) > be.eps_abs else fb
    if lead < 0:
        fa, fb, fc = -fa, -fb, -fc
    return Line(Scalar(be, fa), Scalar(be, fb), Scalar(be, fc))


def make_line(a: Scalar, b: Scalar, c: Scalar) -> Line:
    """Canonicalize coefficients and build a Line; (a,b) must not both vanish."""
    be = _common_backend(a, b, c)
    return _line(be, a.value, b.value, c.value)


def _circle(be: Backend, d, e, f) -> Circle:
    """Circle from raw coefficients (see make_circle)."""
    if not d * d + e * e - 4 * f > 0:
        raise GeometryError("not a proper circle: d^2 + e^2 - 4f <= 0")
    return Circle(Scalar(be, d), Scalar(be, e), Scalar(be, f))


def make_circle(d: Scalar, e: Scalar, f: Scalar) -> Circle:
    """Validate the proper-circle discriminant and build a Circle."""
    be = _common_backend(d, e, f)
    return _circle(be, d.value, e.value, f.value)


# -- incidence helpers -----------------------------------------------------------


def midpoint(p: Point, q: Point) -> Point:
    be = _common_backend(p, q)
    return _point(be, (p.x.value + q.x.value) / 2, (p.y.value + q.y.value) / 2)


def dist_sq(p: Point, q: Point) -> Scalar:
    be = _common_backend(p, q)
    dx, dy = p.x.value - q.x.value, p.y.value - q.y.value
    return Scalar(be, dx * dx + dy * dy)


def line_eval(l: Line, p: Point) -> Scalar:
    be = _common_backend(l, p)
    return Scalar(be, l.a.value * p.x.value + l.b.value * p.y.value + l.c.value)


def _on_line(be: Backend, a, b, c, x, y) -> bool:
    ax, by = a * x, b * y
    return be.is_zero(ax + by + c, (ax, by, c))


def on_line(l: Line, p: Point) -> bool:
    be = _common_backend(l, p)
    return _on_line(be, l.a.value, l.b.value, l.c.value, p.x.value, p.y.value)


def circle_eval(c: Circle, p: Point) -> Scalar:
    be = _common_backend(c, p)
    x, y = p.x.value, p.y.value
    return Scalar(be, x * x + y * y + c.d.value * x + c.e.value * y + c.f.value)


def _on_circle(be: Backend, d, e, f, x, y) -> bool:
    xx, yy, dx, ey = x * x, y * y, d * x, e * y
    return be.is_zero(xx + yy + dx + ey + f, (xx, yy, dx, ey, f))


def on_circle(c: Circle, p: Point) -> bool:
    be = _common_backend(c, p)
    return _on_circle(be, c.d.value, c.e.value, c.f.value, p.x.value, p.y.value)


def points_equal(p: Point, q: Point) -> bool:
    be = _common_backend(p, q)
    return be.is_zero(p.x.value - q.x.value) and be.is_zero(p.y.value - q.y.value)


# -- constructions ----------------------------------------------------------------


def line_through(p: Point, q: Point) -> Line:
    """The line through two distinct points."""
    be = _common_backend(p, q)
    px, py, qx, qy = p.x.value, p.y.value, q.x.value, q.y.value
    if be.is_zero(px - qx) and be.is_zero(py - qy):
        raise CoincidentPoints(f"no unique line through coincident points {p}")
    return _line(be, py - qy, qx - px, px * qy - qx * py)


def perpendicular_through(p: Point, l: Line) -> Line:
    """The perpendicular to l through p (well-defined even for p on l)."""
    be = _common_backend(p, l)
    a, b = l.b.value, -l.a.value
    return _line(be, a, b, -(a * p.x.value + b * p.y.value))


def _foot(be: Backend, p: Point, l: Line):
    """Raw coordinates of the orthogonal projection of p onto l."""
    x, y = p.x.value, p.y.value
    a, b = l.a.value, l.b.value
    k = be.div(a * x + b * y + l.c.value, a * a + b * b)
    return x - k * a, y - k * b


def foot_perpendicular(p: Point, l: Line) -> Point:
    """Orthogonal projection of p onto l."""
    be = _common_backend(p, l)
    return _point(be, *_foot(be, p, l))


def reflect_in_line(p: Point, l: Line) -> Point:
    """Mirror image of p in l; an involution fixing exactly the points of l."""
    be = _common_backend(p, l)
    fx, fy = _foot(be, p, l)
    return _point(be, 2 * fx - p.x.value, 2 * fy - p.y.value)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """The unique common point of two non-parallel lines."""
    be = _common_backend(l1, l2)
    a1, b1, c1 = l1.a.value, l1.b.value, l1.c.value
    a2, b2, c2 = l2.a.value, l2.b.value, l2.c.value
    a1b2, a2b1 = a1 * b2, a2 * b1
    det = a1b2 - a2b1
    if be.is_zero(det, (a1b2, a2b1)):
        raise ParallelLines("lines are parallel or identical")
    return _point(be, be.div(b1 * c2 - b2 * c1, det), be.div(c1 * a2 - c2 * a1, det))


def circle_through3(p: Point, q: Point, r: Point) -> Circle:
    """The circumcircle of three non-collinear points.

    Solves the 2x2 linear system obtained by subtracting the circle equation
    pairwise (eliminating f), then recovers f from the first point.
    """
    if collinear3(p, q, r):
        raise CollinearPoints("no circle through collinear (or repeated) points")
    be = p.x.backend
    px, py, qx, qy, rx, ry = p.x.value, p.y.value, q.x.value, q.y.value, r.x.value, r.y.value
    s1 = px * px + py * py
    s2 = qx * qx + qy * qy
    s3 = rx * rx + ry * ry
    # d*(x1-x2) + e*(y1-y2) = s2 - s1, and similarly for (p, r)
    a11, a12, b1 = px - qx, py - qy, s2 - s1
    a21, a22, b2 = px - rx, py - ry, s3 - s1
    det = a11 * a22 - a21 * a12
    d = be.div(b1 * a22 - b2 * a12, det)
    e = be.div(a11 * b2 - a21 * b1, det)
    f = -(s1 + d * px + e * py)
    return _circle(be, d, e, f)


def circle_center_through(center: Point, p: Point) -> Circle:
    """The circle with the given center passing through p."""
    be = _common_backend(center, p)
    cx, cy, px, py = center.x.value, center.y.value, p.x.value, p.y.value
    dx, dy = cx - px, cy - py
    if be.is_zero(dx) and be.is_zero(dy):
        raise ZeroRadius("circle through its own center has zero radius")
    r_sq = dx * dx + dy * dy
    return _circle(be, -2 * cx, -2 * cy, cx * cx + cy * cy - r_sq)


def radical_line(c1: Circle, c2: Circle) -> Line:
    """The radical axis of two distinct circles.

    Obtained by subtracting the two general-form equations; it contains every
    common point and is perpendicular to the line of centers.
    """
    be = _common_backend(c1, c2)
    d1, e1, f1 = c1.d.value, c1.e.value, c1.f.value
    d2, e2, f2 = c2.d.value, c2.e.value, c2.f.value
    d, e, f = d1 - d2, e1 - e2, f1 - f2
    if be.is_zero(d, (d1, d2)) and be.is_zero(e, (e1, e2)):
        if be.is_zero(f, (f1, f2)):
            raise IdenticalCircles("radical line of identical circles is undefined")
        raise NoRadicalLine("concentric distinct circles have no radical line")
    return _line(be, d, e, f)


def second_line_circle(l: Line, c: Circle, known: Point) -> Tuple[Point, bool]:
    """The other intersection of l and c, given one known common point.

    Uses Vieta's relation on the restricted quadratic, so the result is
    rational whenever the inputs are.  If l is tangent to c at the known
    point the known point itself is returned with the tangency flag set.
    """
    be = _common_backend(l, c, known)
    a, b, lc = l.a.value, l.b.value, l.c.value
    cd, ce = c.d.value, c.e.value
    kx, ky = known.x.value, known.y.value
    if not _on_line(be, a, b, lc, kx, ky):
        raise KnownPointNotIncident("known point is not on the line")
    if not _on_circle(be, cd, ce, c.f.value, kx, ky):
        raise KnownPointNotIncident("known point is not on the circle")
    # eliminate the variable with the larger coefficient magnitude
    if abs(b) >= abs(a):
        # substitute y = -(a x + c)/b: (a^2+b^2) x^2 + (2ac + d b^2 - e a b) x + ... = 0
        sum_roots = be.div(-(2 * a * lc + cd * b * b - ce * a * b), a * a + b * b)
        x1 = sum_roots - kx
        y1 = be.div(-(a * x1 + lc), b)
    else:
        sum_roots = be.div(-(2 * b * lc + ce * a * a - cd * a * b), a * a + b * b)
        y1 = sum_roots - ky
        x1 = be.div(-(b * y1 + lc), a)
    if be.is_zero(x1 - kx) and be.is_zero(y1 - ky):
        return known, True
    return _point(be, x1, y1), False


def second_circle_circle(c1: Circle, c2: Circle, known: Point) -> Tuple[Point, bool]:
    """The other common point of two circles through a known common point.

    Reduces to the radical axis and the second line-circle intersection;
    the tangency flag is set when the circles touch at the known point.
    """
    rad = radical_line(c1, c2)
    return second_line_circle(rad, c1, known)


# -- predicates ---------------------------------------------------------------------


def collinear3(p: Point, q: Point, r: Point) -> bool:
    """Whether the 3x3 homogeneous determinant of the three points vanishes."""
    be = _common_backend(p, q, r)
    px, py, qx, qy, rx, ry = p.x.value, p.y.value, q.x.value, q.y.value, r.x.value, r.y.value
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return be.is_zero(det, (px, py, qx, qy, rx, ry))


def concyclic4(p: Point, q: Point, r: Point, s: Point) -> bool:
    """Whether the standard 4x4 concyclicity determinant vanishes.

    Rows are (x, y, x^2 + y^2, 1); collinear triples count as concyclic
    (circle through infinity), matching the determinant convention.
    """
    be = _common_backend(p, q, r, s)
    rows = []
    for pt_ in (p, q, r, s):
        x, y = pt_.x.value, pt_.y.value
        rows.append((x, y, x * x + y * y))
    det = _det4_homogeneous(rows)
    entries = [v for row in rows for v in row]
    return be.is_zero(det, entries)


def _det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _det4_homogeneous(rows):
    # | x y s 1 | expanded along the all-ones column by row subtraction
    r0, r1, r2, r3 = rows
    d1 = tuple(r1[i] - r0[i] for i in range(3))
    d2 = tuple(r2[i] - r0[i] for i in range(3))
    d3 = tuple(r3[i] - r0[i] for i in range(3))
    return _det3(d1, d2, d3)


def directed_tan(l1: Line, l2: Line) -> DirectedTan:
    """Tangent of the directed angle from l1 to l2, working mod pi.

    Equals (a1 b2 - a2 b1) / (a1 a2 + b1 b2); infinite iff the lines are
    perpendicular.  Invariant under rescaling of either line's coefficients
    and independent of line orientation.
    """
    be = _common_backend(l1, l2)
    a1, b1, a2, b2 = l1.a.value, l1.b.value, l2.a.value, l2.b.value
    a1a2, b1b2 = a1 * a2, b1 * b2
    den = a1a2 + b1b2
    if be.is_zero(den, (a1a2, b1b2)):
        return DirectedTan.infinity()
    return DirectedTan.of(Scalar(be, be.div(a1 * b2 - a2 * b1, den)))


def _orthocentric(p: Point, q: Point, r: Point):
    """Sides (qr, rp, pq), altitudes (from p, q, r) and orthocentre of a
    proper triangle: the meet of the first two altitudes, checked against the
    third (a miss means broken arithmetic or an intolerably ill-conditioned
    float instance)."""
    if collinear3(p, q, r):
        raise CollinearPoints("orthocentre of collinear points is undefined")
    side_p = line_through(q, r)
    alt_p = perpendicular_through(p, side_p)
    side_q = line_through(r, p)
    alt_q = perpendicular_through(q, side_q)
    h = intersect_lines(alt_p, alt_q)
    side_r = line_through(p, q)
    alt_r = perpendicular_through(r, side_r)
    if not on_line(alt_r, h):
        raise ConstructionError("orthocentre failed third-altitude incidence")
    return (side_p, side_q, side_r), (alt_p, alt_q, alt_r), h


def orthocenter3(p: Point, q: Point, r: Point) -> Point:
    """Orthocentre of a proper triangle, as the meet of two altitudes
    checked against the third."""
    return _orthocentric(p, q, r)[2]


def lines_equal(l1: Line, l2: Line) -> bool:
    """Equality of canonical line values (coefficient-wise on the backend)."""
    be = _common_backend(l1, l2)
    return (
        be.is_zero(l1.a.value - l2.a.value)
        and be.is_zero(l1.b.value - l2.b.value)
        and be.is_zero(l1.c.value - l2.c.value)
    )


def circles_equal(c1: Circle, c2: Circle) -> bool:
    be = _common_backend(c1, c2)
    return (
        be.is_zero(c1.d.value - c2.d.value)
        and be.is_zero(c1.e.value - c2.e.value)
        and be.is_zero(c1.f.value - c2.f.value)
    )
