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
Scalars.  Every Point, Line and Circle is born holding its homogeneous
values in a ``_h`` slot - a point as (X, Y, W), a line as (a, b, c), a
circle as (d, e, f, v) for v(x^2 + y^2) + dx + ey + f = 0 - and the
primitives read their inputs there, in the same way on both backends:

* exact: Python ints.  A point's (X, Y, W) and a circle's (d, e, f, v)
  have gcd 1 and W, v > 0, unique to the object, so :func:`points_equal`
  and :func:`circles_equal` compare them as tuples; a line's (a, b, c) is
  proportional to its coefficients by a positive factor (content 1 on a
  canonical line).  A kernel result hands the constructor the integers it
  computed, and its coordinates are lazy Scalars, each building its
  ``Fraction`` on the first read of ``.value``; any other exact object
  computes them from its coordinates' numerators and denominators;
* float: the coordinates' floats with weight 1.0, (x, y, 1.0),
  (a, b, c) and (d, e, f, 1.0).

The ``_h`` slot is not a dataclass field: ``==``, ``repr``, ``vars``,
``dataclasses.fields`` and ``dataclasses.replace`` see only the
coordinates, and copy and pickle rebuild an object from its fields.

:func:`line_through`, :func:`perpendicular_through`,
:func:`intersect_lines`, :func:`radical_line`, :func:`midpoint`,
:func:`dist_sq`, :func:`on_line`, :func:`directed_tan` and
:meth:`Circle.center` are each one formula for both backends: zero tests go
through the backend's ``is_zero`` (``== 0`` on exact), divisions through its
``div``, and results through the writers ``_hom_point``, ``_line`` and
``_circle``, which own each backend's canonical form.  Multiplying a float by
the weight 1.0 is exact, so on floats each performs the affine formula's
operations, on the same operands in the same order, and gives its bits.  The
other primitives still branch on the backend: their float formula divides
midway, solves another system or tests zero on another quantity, so the
homogeneous one would change float results (for :func:`on_circle`, matching
the float association would cost the exact kernel three more products).

A primitive taking two or more objects checks once that they share a
backend and raises :class:`~oblique_simson.errors.BackendMismatch`
otherwise, as a Point, Line or Circle does for its coordinates.
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
    DivisionByZero,
    GeometryError,
    IdenticalCircles,
    KnownPointNotIncident,
    NoRadicalLine,
    ParallelLines,
    ZeroRadius,
)
from .numeric import Backend, Scalar, _LazyExact, format_scalar


def _reduce_to_fields(obj):
    """copy and pickle rebuild a Point, Line or Circle from its fields, so
    a copy computes its own integers (and never meets the frozen
    ``__setattr__``)."""
    return type(obj), tuple(obj.__dict__.values())


@dataclass(frozen=True, eq=True, init=False)
class Point:
    __slots__ = ("__dict__", "_h", "backend")
    x: Scalar
    y: Scalar

    def __init__(self, x: Scalar, y: Scalar, _h=None):
        fields = self.__dict__
        fields["x"] = x
        fields["y"] = y
        be = x.backend
        if y.backend is not be:
            _common_backend(x, y)
        if _h is None:
            if be.exact:
                (xn, xd), (yn, yd) = x._ratio(), y._ratio()
                _h = _content_1((xn, yn, xd) if xd == yd else (xn * yd, yn * xd, xd * yd))
            else:
                _h = x.value, y.value, 1.0
        _set_point_h(self, _h)
        _set_point_backend(self, be)

    __reduce__ = _reduce_to_fields

    def __repr__(self) -> str:
        return f"Point({format_scalar(self.x)}, {format_scalar(self.y)})"


@dataclass(frozen=True, eq=True, init=False)
class Line:
    """ax + by + c = 0 with (a, b) != (0, 0); build via make_line."""

    __slots__ = ("__dict__", "_h", "backend")
    a: Scalar
    b: Scalar
    c: Scalar

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, _h=None):
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["c"] = c
        be = a.backend
        if b.backend is not be or c.backend is not be:
            _common_backend(a, b, c)
        if _h is None:
            _h = _over_lcm(a, b, c)[:3] if be.exact else (a.value, b.value, c.value)
        _set_line_h(self, _h)
        _set_line_backend(self, be)

    __reduce__ = _reduce_to_fields

    def __repr__(self) -> str:
        a, b, c = map(format_scalar, (self.a, self.b, self.c))
        return f"Line({a}, {b}, {c})"


@dataclass(frozen=True, eq=True, init=False)
class Circle:
    """x^2 + y^2 + dx + ey + f = 0 with positive discriminant d^2+e^2-4f."""

    __slots__ = ("__dict__", "_h", "backend")
    d: Scalar
    e: Scalar
    f: Scalar

    def __init__(self, d: Scalar, e: Scalar, f: Scalar, _h=None):
        fields = self.__dict__
        fields["d"] = d
        fields["e"] = e
        fields["f"] = f
        be = d.backend
        if e.backend is not be or f.backend is not be:
            _common_backend(d, e, f)
        if _h is None:
            _h = (_content_1(_over_lcm(d, e, f)) if be.exact
                  else (d.value, e.value, f.value, 1.0))
        _set_circle_h(self, _h)
        _set_circle_backend(self, be)

    __reduce__ = _reduce_to_fields

    def center(self) -> Point:
        d, e, _, v = self._h
        return _hom_point(self.backend, -d, -e, 2 * v)

    def radius_sq(self) -> Scalar:
        be = self.backend
        d, e, f, v = self._h
        if be.exact:
            return Scalar(be, Fraction(d * d + e * e - 4 * f * v, 4 * v * v))
        return Scalar(be, (d * d + e * e) / 4 - f)

    def __repr__(self) -> str:
        d, e, f = map(format_scalar, (self.d, self.e, self.f))
        return f"Circle({d}, {e}, {f})"


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
        if be.exact:
            return self.value.value == other.value.value
        return be.is_zero(self.value.value - other.value.value)

    def __repr__(self) -> str:
        if self.infinite:
            return "DirectedTan(inf)"
        return f"DirectedTan({format_scalar(self.value)})"


def _common_backend(first, *rest) -> Backend:
    """The backend shared by all arguments; BackendMismatch if they differ."""
    be = first.backend
    for obj in rest:
        other = obj.backend
        if other is not be and other != be:
            raise BackendMismatch(
                f"cannot combine {be.name} and {other.name} objects")
    return be


def _point(be: Backend, x, y) -> Point:
    return Point(Scalar(be, x), Scalar(be, y))


# -- the exact kernel's homogeneous integers ---------------------------------------
#
# Every object holds its homogeneous values in its _h slot from construction
# on, so a kernel read is one attribute load.

_set_point_h = Point._h.__set__
_set_line_h = Line._h.__set__
_set_circle_h = Circle._h.__set__
_set_point_backend = Point.backend.__set__
_set_line_backend = Line.backend.__set__
_set_circle_backend = Circle.backend.__set__


def _over_lcm(a: Scalar, b: Scalar, c: Scalar) -> Tuple[int, int, int, int]:
    """(a m, b m, c m, m) as integers for three exact Scalars, m the positive
    lcm of their denominators (read as pairs, so no Fraction is built)."""
    (an, ad), (bn, bd), (cn, cd) = a._ratio(), b._ratio(), c._ratio()
    if ad == bd == cd:
        return an, bn, cn, ad
    m = math.lcm(ad, bd, cd)
    return an * (m // ad), bn * (m // bd), cn * (m // cd), m


def _content_1(h: Tuple[int, ...]) -> Tuple[int, ...]:
    """h (not all zero) divided by its gcd: a lazy pair need not be in
    lowest terms, so integers over its denominator may share a factor."""
    g = math.gcd(*h)
    return h if g == 1 else tuple(n // g for n in h)


def _hom_point(be: Backend, x, y, w) -> Point:
    """The point (x/w, y/w); DivisionByZero when w is zero.  On the exact
    backend x, y and w are ints and the point is born with its canonical
    triple; on the float backend each coordinate is ``be.div(x, w)``."""
    if not be.exact:
        return _point(be, be.div(x, w), be.div(y, w))
    if w == 0:
        raise DivisionByZero("division by zero scalar")
    g = math.gcd(x, y, w)
    if w < 0:
        g = -g
    if g != 1:
        x, y, w = x // g, y // g, w // g
    return Point(_LazyExact(be, x, w), _LazyExact(be, y, w), (x, y, w))


# -- factories -----------------------------------------------------------------


def point(backend: Backend, x, y) -> Point:
    return Point(backend.scalar(x), backend.scalar(y))


def _line(be: Backend, a, b, c) -> Line:
    """Canonical Line from raw coefficients (see make_line): ints on the
    exact backend, floats on the float backend."""
    if be.is_zero(a) and be.is_zero(b):
        raise GeometryError("line coefficients degenerate: a = b = 0")
    if be.exact:
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        return Line(_LazyExact(be, a, 1), _LazyExact(be, b, 1), _LazyExact(be, c, 1),
                    (a, b, c))
    norm = math.hypot(a, b)  # > eps_abs, as a and b are not both zero
    fa, fb, fc = a / norm, b / norm, c / norm
    lead = fa if abs(fa) > be.eps_abs else fb
    if lead < 0:
        fa, fb, fc = -fa, -fb, -fc
    return Line(Scalar(be, fa), Scalar(be, fb), Scalar(be, fc))


def make_line(a: Scalar, b: Scalar, c: Scalar) -> Line:
    """Canonicalize coefficients and build a Line; (a,b) must not both vanish.
    Exact coefficients already canonical give the Line holding them."""
    be = _common_backend(a, b, c)
    if not be.exact:
        return _line(be, a.value, b.value, c.value)
    ia, ib, ic, m = _over_lcm(a, b, c)
    if m == 1 and (ia > 0 or (ia == 0 and ib > 0)) and math.gcd(ia, ib, ic) == 1:
        return Line(a, b, c, (ia, ib, ic))
    return _line(be, ia, ib, ic)


def _require_proper(d, e, f, v) -> None:
    if not d * d + e * e - 4 * f * v > 0:
        raise GeometryError("not a proper circle: d^2 + e^2 - 4f <= 0")


def _circle(be: Backend, d, e, f, v=1) -> Circle:
    """Circle v(x^2 + y^2) + dx + ey + f = 0 from raw coefficients (see
    make_circle): ints with v != 0 on the exact backend, floats with v = 1 on
    the float backend."""
    _require_proper(d, e, f, v)
    if be.exact:
        g = math.gcd(d, e, f, v)
        if v < 0:
            g = -g
        if g != 1:
            d, e, f, v = d // g, e // g, f // g, v // g
        return Circle(_LazyExact(be, d, v), _LazyExact(be, e, v), _LazyExact(be, f, v),
                      (d, e, f, v))
    return Circle(Scalar(be, d), Scalar(be, e), Scalar(be, f))


def make_circle(d: Scalar, e: Scalar, f: Scalar) -> Circle:
    """Validate the proper-circle discriminant and build a Circle holding
    the given Scalars."""
    circle = Circle(d, e, f)
    _require_proper(*circle._h)
    return circle


# -- incidence helpers -----------------------------------------------------------


def midpoint(p: Point, q: Point) -> Point:
    be = _common_backend(p, q)
    (x1, y1, w1), (x2, y2, w2) = p._h, q._h
    return _hom_point(be, x1 * w2 + x2 * w1, y1 * w2 + y2 * w1, 2 * w1 * w2)


def dist_sq(p: Point, q: Point) -> Scalar:
    be = _common_backend(p, q)
    (x1, y1, w1), (x2, y2, w2) = p._h, q._h
    dx, dy, w = x1 * w2 - x2 * w1, y1 * w2 - y2 * w1, w1 * w2
    return Scalar(be, be.div(dx * dx + dy * dy, w * w))


def line_eval(l: Line, p: Point) -> Scalar:
    be = _common_backend(l, p)
    return Scalar(be, l.a.value * p.x.value + l.b.value * p.y.value + l.c.value)


def _on_line(be: Backend, a, b, c, x, y, w) -> bool:
    ax, by, cw = a * x, b * y, c * w
    return be.is_zero(ax + by + cw, (ax, by, cw))


def on_line(l: Line, p: Point) -> bool:
    return _on_line(_common_backend(l, p), *l._h, *p._h)


def circle_eval(c: Circle, p: Point) -> Scalar:
    be = _common_backend(c, p)
    x, y = p.x.value, p.y.value
    return Scalar(be, x * x + y * y + c.d.value * x + c.e.value * y + c.f.value)


def _on_circle(be: Backend, d, e, f, x, y) -> bool:
    xx, yy, dx, ey = x * x, y * y, d * x, e * y
    return be.is_zero(xx + yy + dx + ey + f, (xx, yy, dx, ey, f))


def _ion_circle(d: int, e: int, f: int, v: int, x: int, y: int, w: int) -> bool:
    return v * (x * x + y * y) + w * (d * x + e * y + f * w) == 0


def on_circle(c: Circle, p: Point) -> bool:
    be = _common_backend(c, p)
    if be.exact:
        return _ion_circle(*c._h, *p._h)
    return _on_circle(be, c.d.value, c.e.value, c.f.value, p.x.value, p.y.value)


def points_equal(p: Point, q: Point) -> bool:
    be = _common_backend(p, q)
    if be.exact:
        return p._h == q._h
    return be.is_zero(p.x.value - q.x.value) and be.is_zero(p.y.value - q.y.value)


# -- constructions ----------------------------------------------------------------


def line_through(p: Point, q: Point) -> Line:
    """The line through two distinct points."""
    be = _common_backend(p, q)
    (x1, y1, w1), (x2, y2, w2) = p._h, q._h
    a, b = y1 * w2 - y2 * w1, x2 * w1 - x1 * w2
    if be.is_zero(a) and be.is_zero(b):
        raise CoincidentPoints(f"no unique line through coincident points {p}")
    return _line(be, a, b, x1 * y2 - x2 * y1)


def perpendicular_through(p: Point, l: Line) -> Line:
    """The perpendicular to l through p (well-defined even for p on l)."""
    be = _common_backend(p, l)
    (x, y, w), (a, b, _) = p._h, l._h
    # the float constant is -(b x + (-a) y), not a y - b x: the two differ
    # in the sign of a zero
    return _line(be, b * w, -a * w, -(b * x + -a * y))


def _foot(be: Backend, p: Point, l: Line):
    """Raw coordinates of the orthogonal projection of p onto l."""
    (x, y, _), (a, b, c) = p._h, l._h
    k = be.div(a * x + b * y + c, a * a + b * b)
    return x - k * a, y - k * b


def _hom_along_normal(p: Point, l: Line, k: int) -> Tuple[int, int, int]:
    """(X, Y, W) of p moved k times its offset from l along l's normal:
    the foot of the perpendicular for k = 1, the mirror image for k = 2.
    W is 0 when l has a = b = 0."""
    (x, y, w), (a, b, c) = p._h, l._h
    s, n = a * a + b * b, k * (a * x + b * y + c * w)
    return x * s - n * a, y * s - n * b, w * s


def foot_perpendicular(p: Point, l: Line) -> Point:
    """Orthogonal projection of p onto l."""
    be = _common_backend(p, l)
    if be.exact:
        return _hom_point(be, *_hom_along_normal(p, l, 1))
    return _point(be, *_foot(be, p, l))


def reflect_in_line(p: Point, l: Line) -> Point:
    """Mirror image of p in l; an involution fixing exactly the points of l."""
    be = _common_backend(p, l)
    if be.exact:
        return _hom_point(be, *_hom_along_normal(p, l, 2))
    fx, fy = _foot(be, p, l)
    return _point(be, 2 * fx - p.x.value, 2 * fy - p.y.value)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """The unique common point of two non-parallel lines."""
    be = _common_backend(l1, l2)
    (a1, b1, c1), (a2, b2, c2) = l1._h, l2._h
    a1b2, a2b1 = a1 * b2, a2 * b1
    det = a1b2 - a2b1
    if be.is_zero(det, (a1b2, a2b1)):
        raise ParallelLines("lines are parallel or identical")
    return _hom_point(be, b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, det)


def circle_through3(p: Point, q: Point, r: Point) -> Circle:
    """The circumcircle of three non-collinear points.

    Solves the 2x2 linear system obtained by subtracting the circle equation
    pairwise (eliminating f), then recovers f from the first point.  On the
    exact backend the coefficients (v, d, e, f) are instead the signed 3x3
    minors of the rows (x^2 + y^2, xw, yw, w^2) of the three points.
    """
    if collinear3(p, q, r):
        raise CollinearPoints("no circle through collinear (or repeated) points")
    be = p.backend
    if be.exact:
        rows = []
        for pt_ in (p, q, r):
            x, y, w = pt_._h
            rows.append((x * x + y * y, x * w, y * w, w * w))
        (s1, x1, y1, w1), (s2, x2, y2, w2), (s3, x3, y3, w3) = rows
        return _circle(be,
                       -_det3((s1, y1, w1), (s2, y2, w2), (s3, y3, w3)),
                       _det3((s1, x1, w1), (s2, x2, w2), (s3, x3, w3)),
                       -_det3((s1, x1, y1), (s2, x2, y2), (s3, x3, y3)),
                       _det3((x1, y1, w1), (x2, y2, w2), (x3, y3, w3)))
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
    if be.exact:
        (cx, cy, cw), (px, py, pw) = center._h, p._h
        if cx * pw == px * cw and cy * pw == py * cw:
            raise ZeroRadius("circle through its own center has zero radius")
        # x^2 + y^2 - 2cx x - 2cy y + 2(cx px + cy py) - (px^2 + py^2) = 0, times cw pw^2
        ww = pw * pw
        return _circle(be, -2 * cx * ww, -2 * cy * ww,
                       2 * (cx * px + cy * py) * pw - (px * px + py * py) * cw, cw * ww)
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
    (d1, e1, f1, v1), (d2, e2, f2, v2) = c1._h, c2._h
    d, e, f = d1 * v2 - d2 * v1, e1 * v2 - e2 * v1, f1 * v2 - f2 * v1
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
    (a, b, lc), (cd, ce, cf, v), (kx, ky, kw) = l._h, c._h, known._h
    if not _on_line(be, a, b, lc, kx, ky, kw):
        raise KnownPointNotIncident("known point is not on the line")
    if be.exact:
        if not _ion_circle(cd, ce, cf, v, kx, ky, kw):
            raise KnownPointNotIncident("known point is not on the circle")
        s = a * a + b * b
        if s == 0:
            raise DivisionByZero("division by zero scalar")
        # Vieta: the roots (x, or y when |a| > |b|) sum to m / (v s), so the
        # other root is (m kw - k v s) / w for the known root k / kw, and the
        # line is tangent when the two agree
        w = v * s * kw
        if abs(b) >= abs(a):
            m = -(2 * a * lc * v + cd * b * b - ce * a * b)
            if m * kw == 2 * kx * v * s:
                return known, True
            x1 = m * kw - kx * v * s
            return _hom_point(be, b * x1, -(a * x1 + lc * w), b * w), False
        m = -(2 * b * lc * v + ce * a * a - cd * a * b)
        if m * kw == 2 * ky * v * s:
            return known, True
        y1 = m * kw - ky * v * s
        return _hom_point(be, -(b * y1 + lc * w), a * y1, a * w), False
    if not _on_circle(be, cd, ce, cf, kx, ky):
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
    if be.exact:
        return _det3(p._h, q._h, r._h) == 0
    px, py, qx, qy, rx, ry = p.x.value, p.y.value, q.x.value, q.y.value, r.x.value, r.y.value
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return be.is_zero(det, (px, py, qx, qy, rx, ry))


def concyclic4(p: Point, q: Point, r: Point, s: Point) -> bool:
    """Whether the standard 4x4 concyclicity determinant vanishes.

    Rows are (x, y, x^2 + y^2, 1); collinear triples count as concyclic
    (circle through infinity), matching the determinant convention.
    """
    be = _common_backend(p, q, r, s)
    if be.exact:
        # rows (xw, yw, x^2 + y^2) scaled by w^2, expanded along the w^2 column
        rows, last = [], []
        for pt_ in (p, q, r, s):
            x, y, w = pt_._h
            rows.append((x * w, y * w, x * x + y * y))
            last.append(w * w)
        r0, r1, r2, r3 = rows
        return (last[1] * _det3(r0, r2, r3) + last[3] * _det3(r0, r1, r2)
                == last[0] * _det3(r1, r2, r3) + last[2] * _det3(r0, r1, r3))
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
    (a1, b1, _), (a2, b2, _) = l1._h, l2._h
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
    if be.exact:
        # each pair of rational coefficients cross-multiplied, so that a
        # kernel line's lazy coefficients build no Fraction
        for s, t in ((l1.a, l2.a), (l1.b, l2.b), (l1.c, l2.c)):
            (n1, d1), (n2, d2) = s._ratio(), t._ratio()
            if n1 * d2 != n2 * d1:
                return False
        return True
    return (
        be.is_zero(l1.a.value - l2.a.value)
        and be.is_zero(l1.b.value - l2.b.value)
        and be.is_zero(l1.c.value - l2.c.value)
    )


def circles_equal(c1: Circle, c2: Circle) -> bool:
    be = _common_backend(c1, c2)
    if be.exact:
        return c1._h == c2._h
    return (
        be.is_zero(c1.d.value - c2.d.value)
        and be.is_zero(c1.e.value - c2.e.value)
        and be.is_zero(c1.f.value - c2.f.value)
    )
