"""Backend-generic planar primitives: lines, circles and their constructions.

Everything here is square-root-free.  Lines are stored as ax + by + c = 0,
circles in general form x^2 + y^2 + dx + ey + f = 0, and every "second
intersection" is recovered from a known common point via Vieta's relation on
the restricted quadratic, so exact-rational inputs give exact-rational
outputs throughout.

Lines are canonical, the first nonzero of (a, b) positive: integers with the
content removed by the backend's ``gcd`` on exact, a unit normal on float,
whose zero tests use its tolerance scaled by the magnitude of their entries.
An exact Line is canonical however it is built; a float Line built directly
keeps the coefficients it is given.

Points, lines, circles and directed-angle tangents store
:class:`~oblique_simson.numeric.Scalar` values, but nothing here computes on
Scalars: a Scalar is read as its pair (n, d), and :func:`_over_common`
reads several over one common denominator.  Every Point, Line and Circle is
born holding its homogeneous values in a ``_h`` slot - a point as
(X, Y, W), a line as (a, b, c), a circle as (d, e, f, v) for
v(x^2 + y^2) + dx + ey + f = 0:

* exact: Python ints.  A point's (X, Y, W), a line's (a, b, c) and a
  circle's (d, e, f, v) have the content removed by the backend's ``gcd``,
  with W, v > 0 and a line's sign rule, so :func:`points_equal`,
  :func:`lines_equal` and :func:`circles_equal` compare them as tuples.  A
  kernel result's coordinates are the pairs (X, W), (Y, W), (a, 1), ...,
  (d, v), ..., so they build no ``Fraction``;
* float: the coordinates' floats with weight 1.0, (x, y, 1.0),
  (a, b, c) and (d, e, f, 1.0), and each coordinate the pair (x, 1.0).

The ``_h`` slot is not a dataclass field: ``==``, ``repr``, ``vars``,
``dataclasses.fields`` and ``dataclasses.replace`` see only the
coordinates, and copy and pickle rebuild an object from its fields.

Each formula lives in one private *tuple function* (``_line_through_h``,
...) on the backend and ``_h`` tuples.  It returns the canonical tuple of
its result from ``_point_h``, ``_line_h`` or ``_circle_h`` (integers with
the content removed by ``gcd`` and the sign rule on exact, the floats an
object holds on float).
Objects exist only at the API edge: a public primitive composes tuple
functions, calls no other public one, and writes its result once through
``_point_of``, ``_line_of`` or ``_circle_of``.  The checks and the audit of
:mod:`~oblique_simson.verify` compose tuple functions and build no object,
and write a witness from tuples and pairs (``_line_eval_h`` and
``_circle_eval_h`` give the residuals) through ``_point_text``, ``_line_text``,
``_circle_text`` and ``_tan_text``, the one writer of each tuple kind's text;
numbers travel as pairs (n, d), d = 1.0 on float (see :func:`_same_value`),
and :func:`_ratio_of` forms the pair of a quotient n/d: (n, d) on exact,
(n/d, 1.0) on float, where the float formula divides midway.
Zero tests go through the backend's ``is_zero`` and divisions through its
``div``.  Multiplying a float by the weight 1.0 is exact, so a homogeneous
formula serves both backends where it performs the affine float operations
in the same order; the other tuple functions branch, as their float formula
divides midway, solves another system or tests zero on another quantity.

A primitive taking two or more objects checks once that they share a
backend and raises :class:`~oblique_simson.errors.BackendMismatch`
otherwise, as a Point, Line or Circle does for its coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .numeric import Backend, Scalar, _pair, format_pair, format_scalar


class _Stored:
    """What a Point, Line and Circle share: the fields in ``__dict__``, the
    canonical tuple ``_h`` and the backend in slots.  copy and pickle rebuild
    an object from its fields, so a copy computes its own integers (and
    never meets the frozen ``__setattr__``)."""

    __slots__ = ("__dict__", "_h", "backend")

    def __reduce__(self):
        return type(self), tuple(self.__dict__.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(format_scalar, self.__dict__.values()))})"


_set_h = _Stored._h.__set__
_set_backend = _Stored.backend.__set__


@dataclass(frozen=True, eq=True, init=False, repr=False)
class Point(_Stored):
    __slots__ = ()
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
            _h = _point_h(be, *_over_common(x, y))
        _set_h(self, _h)
        _set_backend(self, be)


@dataclass(frozen=True, eq=True, init=False, repr=False)
class Line(_Stored):
    """ax + by + c = 0.  On exact the coefficients are canonical (see
    make_line): given ones that are not give the Line of their canonical
    integers; a float Line keeps those it is given.  On both backends
    a = b = 0 (on float, within the tolerance) raises GeometryError."""

    __slots__ = ()
    a: Scalar
    b: Scalar
    c: Scalar

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, _h=None):
        be = a.backend
        if b.backend is not be or c.backend is not be:
            _common_backend(a, b, c)
        if _h is None:
            ia, ib, ic, m = _over_common(a, b, c)
            _h = ia, ib, ic
            if not be.exact:
                _require_normal(be, ia, ib)
            elif not (m == 1 and be.gcd(ia, ib, ic) == 1 and (ib if ia == 0 else ia) > 0):
                _h = _line_h(be, ia, ib, ic)
                a, b, c = (_pair(be, n, be.one) for n in _h)
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["c"] = c
        _set_h(self, _h)
        _set_backend(self, be)


@dataclass(frozen=True, eq=True, init=False, repr=False)
class Circle(_Stored):
    """x^2 + y^2 + dx + ey + f = 0 with positive discriminant d^2+e^2-4f."""

    __slots__ = ()
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
            _h = _over_v(be, *_over_common(d, e, f))
        _set_h(self, _h)
        _set_backend(self, be)

    def center(self) -> Point:
        return _point_of(self.backend, _center_h(self.backend, self._h))

    def radius_sq(self) -> Scalar:
        return _pair(self.backend, *_radius_sq_h(self.backend, self._h))


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
        return _same_value(be, self.value._ratio(), other.value._ratio())

    def __repr__(self) -> str:
        if self.infinite:
            return _tan_text(None, None)
        return _tan_text(self.value.backend, self.value._ratio())


def _common_backend(first, *rest) -> Backend:
    """The backend shared by all arguments; BackendMismatch if they differ."""
    return _shared_backend(first.backend, [obj.backend for obj in rest])


def _shared_backend(be: Backend, others) -> Backend:
    """be, where every backend of *others* is be; BackendMismatch otherwise."""
    for other in others:
        if other is not be and other != be:
            raise BackendMismatch(
                f"cannot combine {be.name} and {other.name} objects")
    return be


# -- homogeneous values and the writers ----------------------------------------------


def _over_common(*values: Scalar) -> Tuple:
    """The values as N_i over one D, (N_1, ..., N_k, D) with value_i = N_i / D:
    _pairs_over_common on their pairs."""
    return _pairs_over_common(values[0].backend, [v._ratio() for v in values])


def _pairs_over_common(be: Backend, pairs) -> Tuple:
    """The pairs (n_i, d_i) as N_i over one D: integers over the lcm of the
    denominators (from the backend's gcd) on exact, the floats over 1.0 on
    float, where every pair has d = 1.0."""
    d = pairs[0][1]
    if all(q == d for _, q in pairs):
        return (*(n for n, _ in pairs), d)
    for _, q in pairs:
        d = d // be.gcd(d, q) * q
    return (*(n * (d // q) for n, q in pairs), d)


def _point_h(be: Backend, x, y, w, g=None):
    """The canonical tuple of the point (x/w, y/w): gcd 1 and w > 0 on exact;
    DivisionByZero when w is zero.  *g*, where the caller knows it from
    the factors of x, y and w, is their content gcd(x, y, w)."""
    if not be.exact:
        return be.div(x, w), be.div(y, w), 1.0
    if w == 0:
        raise DivisionByZero("division by zero scalar")
    if g is None:
        g = be.gcd(x, y, w)
    if w < 0:
        g = -g
    if g != 1:
        x, y, w = x // g, y // g, w // g
    return x, y, w


def _point_of(be: Backend, h) -> Point:
    """The Point holding the canonical tuple h (see _point_h)."""
    x, y, w = h
    return Point(_pair(be, x, w), _pair(be, y, w), h)


def _hom_point(be: Backend, x, y, w) -> Point:
    """The point (x/w, y/w), born holding its canonical tuple."""
    return _point_of(be, _point_h(be, x, y, w))


def _require_normal(be: Backend, a, b) -> None:
    if be.is_zero(a) and be.is_zero(b):
        raise GeometryError("line coefficients degenerate: a = b = 0")


def _line_h(be: Backend, a, b, c):
    """The canonical tuple of ax + by + c = 0: content 1 on exact, a unit normal on float."""
    _require_normal(be, a, b)
    if be.exact:
        g = be.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        return a, b, c
    norm = math.hypot(a, b)  # > eps_abs, as a and b are not both zero
    fa, fb, fc = a / norm, b / norm, c / norm
    lead = fa if abs(fa) > be.eps_abs else fb
    if lead < 0:
        fa, fb, fc = -fa, -fb, -fc
    return fa, fb, fc


def _line_of(be: Backend, h) -> Line:
    """The Line holding the canonical tuple h as its coefficients."""
    a, b, c = h
    return Line(_pair(be, a, be.one), _pair(be, b, be.one), _pair(be, c, be.one), h)


def _line(be: Backend, a, b, c) -> Line:
    """The Line of raw coefficients, born holding its canonical tuple."""
    return _line_of(be, _line_h(be, a, b, c))


def _point_text(be: Backend, p) -> str:
    """The text "(x, y)" of a point tuple; a line's is "[a, b, c]", a circle's "[d, e, f]"."""
    x, y, w = p
    return f"({format_pair(be, x, w)}, {format_pair(be, y, w)})"


def _line_text(be: Backend, l) -> str:
    return f"[{', '.join(format_pair(be, n, be.one) for n in l)}]"


def _circle_text(be: Backend, c) -> str:
    *coefficients, v = c
    return f"[{', '.join(format_pair(be, n, v) for n in coefficients)}]"


def _tan_text(be: Backend, t) -> str:
    """DirectedTan's repr for a _directed_tan_h result t (None when infinite)."""
    return "DirectedTan(inf)" if t is None else f"DirectedTan({format_pair(be, *t)})"


# -- factories -----------------------------------------------------------------


def point(backend: Backend, x, y) -> Point:
    return Point(backend.scalar(x), backend.scalar(y))


def make_line(a: Scalar, b: Scalar, c: Scalar) -> Line:
    """Canonicalize coefficients and build a Line; (a,b) must not both vanish.
    Coefficients already canonical - content-1 integers on exact, a unit
    normal (within the tolerance) on float, the first nonzero of (a, b)
    positive - give the Line holding them, so a written line reads back
    as itself.  On exact this is ``Line(a, b, c)``."""
    be = _common_backend(a, b, c)
    if be.exact:
        return Line(a, b, c)
    return _line_of(be, _given_line_h(be, *_over_common(a, b, c)[:3]))


def _given_line_h(be: Backend, a, b, c):
    """make_line's tuple for the coefficients a, b, c: on float a unit
    normal (within the tolerance) with the first nonzero of (a, b) positive
    is kept as given, anything else is _line_h's."""
    if not be.exact and be.is_zero(a * a + b * b - 1) and (b if be.is_zero(a) else a) > 0:
        return a, b, c
    return _line_h(be, a, b, c)


def _require_proper(d, e, f, v) -> None:
    if not d * d + e * e - 4 * f * v > 0:
        raise GeometryError("not a proper circle: d^2 + e^2 - 4f <= 0")


def _circle_h(be: Backend, d, e, f, v=1):
    """The canonical tuple of the proper circle v(x^2 + y^2) + dx + ey + f = 0
    (see _over_v)."""
    _require_proper(d, e, f, v)
    return _over_v(be, d, e, f, v)


def _over_v(be: Backend, d, e, f, v):
    """The canonical circle tuple: gcd 1 and v > 0 on exact, the floats
    (d/v, e/v, f/v, 1.0) on float (v = 1 gives the entries as floats)."""
    if not be.exact:
        return d / v, e / v, f / v, 1.0
    g = be.gcd(d, e, f, v)
    if v < 0:
        g = -g
    if g != 1:
        d, e, f, v = d // g, e // g, f // g, v // g
    return d, e, f, v


def _circle_of(be: Backend, h) -> Circle:
    """The Circle holding the canonical tuple h (see _over_v)."""
    d, e, f, v = h
    return Circle(_pair(be, d, v), _pair(be, e, v), _pair(be, f, v), h)


def _circle(be: Backend, d, e, f, v=1) -> Circle:
    """The Circle of raw coefficients, born holding its canonical tuple."""
    return _circle_of(be, _circle_h(be, d, e, f, v))


def make_circle(d: Scalar, e: Scalar, f: Scalar) -> Circle:
    """Validate the proper-circle discriminant and build a Circle holding
    the given Scalars."""
    circle = Circle(d, e, f)
    _require_proper(*circle._h)
    return circle


def _same_value(be: Backend, r1, r2, scaled: bool = False) -> bool:
    """Whether the pairs' values n1/d1 and n2/d2 agree, cross-multiplied: on
    float d = 1.0, so this tests n1 - n2 (scaled by |n1|, |n2| if *scaled*)."""
    (n1, d1), (n2, d2) = r1, r2
    u, v = n1 * d2, n2 * d1
    return be.is_zero(u - v, (u, v) if scaled else ())


def _ratio_of(be: Backend, n, d):
    """n/d as a pair: (n, d) on exact, (n/d, 1.0) on float, for a formula
    whose float form divides midway."""
    if be.exact:
        return n, d
    return be.div(n, d), 1.0


def _same_h(be: Backend, h1, h2) -> bool:
    """Equality of canonical point, line or circle tuples (float: entry by
    entry within tolerance)."""
    if be.exact:
        return h1 == h2
    return all(be.is_zero(u - v) for u, v in zip(h1, h2))


def points_equal(p: Point, q: Point) -> bool:
    return _same_h(_common_backend(p, q), p._h, q._h)


def lines_equal(l1: Line, l2: Line) -> bool:
    """Equality of the lines' canonical integers on exact, so proportional
    coefficients give equal lines; coefficient by coefficient on float."""
    return _same_h(_common_backend(l1, l2), l1._h, l2._h)


def circles_equal(c1: Circle, c2: Circle) -> bool:
    return _same_h(_common_backend(c1, c2), c1._h, c2._h)


# -- incidence helpers -----------------------------------------------------------


def _midpoint_h(be: Backend, p, q):
    (x1, y1, w1), (x2, y2, w2) = p, q
    return _point_h(be, x1 * w2 + x2 * w1, y1 * w2 + y2 * w1, 2 * w1 * w2)


def midpoint(p: Point, q: Point) -> Point:
    return _point_of(p.backend, _midpoint_h(_common_backend(p, q), p._h, q._h))


def _dist_sq_h(be: Backend, p, q):
    """|pq|^2 as a pair (n, d) (d = 1.0 on float)."""
    (x1, y1, w1), (x2, y2, w2) = p, q
    dx, dy, w = x1 * w2 - x2 * w1, y1 * w2 - y2 * w1, w1 * w2
    return dx * dx + dy * dy, w * w


def dist_sq(p: Point, q: Point) -> Scalar:
    be = _common_backend(p, q)
    return _pair(be, *_dist_sq_h(be, p._h, q._h))


def _line_eval_h(be: Backend, l, p):
    """line_eval on tuples, as a pair (n, d)."""
    (a, b, c), (x, y, w) = l, p
    return a * x + b * y + c * w, w


def line_eval(l: Line, p: Point) -> Scalar:
    """ax + by + c at p, for the line's coefficients (its _h)."""
    be = _common_backend(l, p)
    return _pair(be, *_line_eval_h(be, l._h, p._h))


def _on_line_h(be: Backend, l, p) -> bool:
    (a, b, c), (x, y, w) = l, p
    ax, by, cw = a * x, b * y, c * w
    return be.is_zero(ax + by + cw, (ax, by, cw))


def on_line(l: Line, p: Point) -> bool:
    return _on_line_h(_common_backend(l, p), l._h, p._h)


def _circle_eval_h(be: Backend, c, p):
    """circle_eval on tuples, as a pair (n, d)."""
    (d, e, f, v), (x, y, w) = c, p
    return x * x * v + y * y * v + d * x * w + e * y * w + f * w * w, v * w * w


def circle_eval(c: Circle, p: Point) -> Scalar:
    """x^2 + y^2 + dx + ey + f at p, each term brought to the weight v w^2."""
    be = _common_backend(c, p)
    return _pair(be, *_circle_eval_h(be, c._h, p._h))


def _on_circle_h(be: Backend, c, p) -> bool:
    (d, e, f, v), (x, y, w) = c, p
    if be.exact:
        return v * (x * x + y * y) + w * (d * x + e * y + f * w) == 0
    xx, yy, dx, ey = x * x, y * y, d * x, e * y
    return be.is_zero(xx + yy + dx + ey + f, (xx, yy, dx, ey, f))


def on_circle(c: Circle, p: Point) -> bool:
    return _on_circle_h(_common_backend(c, p), c._h, p._h)


# -- constructions ----------------------------------------------------------------


def _line_through_h(be: Backend, p, q):
    (x1, y1, w1), (x2, y2, w2) = p, q
    a, b = y1 * w2 - y2 * w1, x2 * w1 - x1 * w2
    if be.is_zero(a) and be.is_zero(b):
        raise CoincidentPoints("no unique line through coincident points "
                               f"Point{_point_text(be, p)}")
    return _line_h(be, a, b, x1 * y2 - x2 * y1)


def line_through(p: Point, q: Point) -> Line:
    """The line through two distinct points."""
    return _line_of(p.backend, _line_through_h(_common_backend(p, q), p._h, q._h))


def _perpendicular_h(be: Backend, p, l):
    (x, y, w), (a, b, _) = p, l
    # the float constant is -(b x + (-a) y), not a y - b x: the two differ
    # in the sign of a zero
    return _line_h(be, b * w, -a * w, -(b * x + -a * y))


def perpendicular_through(p: Point, l: Line) -> Line:
    """The perpendicular to l through p (well-defined even for p on l)."""
    return _line_of(p.backend, _perpendicular_h(_common_backend(p, l), p._h, l._h))


def _along_normal_h(be: Backend, p, l, k: int):
    """p moved k times its offset from l along l's normal: the foot of the
    perpendicular for k = 1, the mirror image for k = 2.  DivisionByZero
    when l has a = b = 0."""
    (x, y, w), (a, b, c) = p, l
    if be.exact:
        s, n = a * a + b * b, k * (a * x + b * y + c * w)
        return _point_h(be, x * s - n * a, y * s - n * b, w * s)
    t = be.div(a * x + b * y + c, a * a + b * b)
    fx, fy = x - t * a, y - t * b
    if k == 1:
        return _point_h(be, fx, fy, 1.0)
    return _point_h(be, 2 * fx - x, 2 * fy - y, 1.0)


def foot_perpendicular(p: Point, l: Line) -> Point:
    """Orthogonal projection of p onto l."""
    return _point_of(p.backend, _along_normal_h(_common_backend(p, l), p._h, l._h, 1))


def reflect_in_line(p: Point, l: Line) -> Point:
    """Mirror image of p in l; an involution fixing exactly the points of l."""
    return _point_of(p.backend, _along_normal_h(_common_backend(p, l), p._h, l._h, 2))


def _intersect_h(be: Backend, l1, l2):
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    a1b2, a2b1 = a1 * b2, a2 * b1
    det = a1b2 - a2b1
    if be.is_zero(det, (a1b2, a2b1)):
        raise ParallelLines("lines are parallel or identical")
    return _point_h(be, b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, det)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """The unique common point of two non-parallel lines."""
    return _point_of(l1.backend, _intersect_h(_common_backend(l1, l2), l1._h, l2._h))


def _require_triangle(be: Backend, p, q, r) -> None:
    """CollinearPoints unless p, q and r have a circle through them."""
    if _collinear3_h(be, p, q, r):
        raise CollinearPoints("no circle through collinear (or repeated) points")


def _circumcenter_h(be: Backend, p, q, r):
    """The meet of the perpendicular bisectors of pq and pr; it raises when
    the points are collinear or repeated."""
    bis_q, bis_r = (_perpendicular_h(be, _midpoint_h(be, p, v), _line_through_h(be, p, v))
                    for v in (q, r))
    return _intersect_h(be, bis_q, bis_r)


def _circle_through3_h(be: Backend, p, q, r):
    _require_triangle(be, p, q, r)
    if be.exact:
        return _circle_center_through_h(be, _circumcenter_h(be, p, q, r), p)
    (px, py, _), (qx, qy, _), (rx, ry, _) = p, q, r
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
    return _circle_h(be, d, e, f)


def circle_through3(p: Point, q: Point, r: Point) -> Circle:
    """The circumcircle of three non-collinear points.

    Solves the 2x2 linear system obtained by subtracting the circle equation
    pairwise (eliminating f), then recovers f from the first point.  On the
    exact backend it is instead the circle about the meet of the
    perpendicular bisectors of pq and pr, through p.
    """
    return _circle_of(p.backend, _circle_through3_h(_common_backend(p, q, r), p._h, q._h, r._h))


def _circle_center_through_h(be: Backend, center, p):
    if be.exact:
        (cx, cy, cw), (px, py, pw) = center, p
        if cx * pw == px * cw and cy * pw == py * cw:
            raise ZeroRadius("circle through its own center has zero radius")
        # x^2 + y^2 - 2cx x - 2cy y + 2(cx px + cy py) - (px^2 + py^2) = 0, times cw pw^2
        ww = pw * pw
        return _circle_h(be, -2 * cx * ww, -2 * cy * ww,
                         2 * (cx * px + cy * py) * pw - (px * px + py * py) * cw, cw * ww)
    (cx, cy, _), (px, py, _) = center, p
    dx, dy = cx - px, cy - py
    if be.is_zero(dx) and be.is_zero(dy):
        raise ZeroRadius("circle through its own center has zero radius")
    r_sq = dx * dx + dy * dy
    return _circle_h(be, -2 * cx, -2 * cy, cx * cx + cy * cy - r_sq)


def circle_center_through(center: Point, p: Point) -> Circle:
    """The circle with the given center passing through p."""
    be = _common_backend(center, p)
    return _circle_of(be, _circle_center_through_h(be, center._h, p._h))


def _center_h(be: Backend, c):
    d, e, _, v = c
    return _point_h(be, -d, -e, 2 * v)


def _radius_sq_h(be: Backend, c):
    """The squared radius as a pair (n, d): (d^2 + e^2 - 4fv, 4v^2) on exact;
    on float the affine formula's value over 1.0."""
    d, e, f, v = c
    if be.exact:
        return d * d + e * e - 4 * f * v, 4 * v * v
    return (d * d + e * e) / 4 - f, 1.0


def _radical_h(be: Backend, c1, c2):
    (d1, e1, f1, v1), (d2, e2, f2, v2) = c1, c2
    d, e, f = d1 * v2 - d2 * v1, e1 * v2 - e2 * v1, f1 * v2 - f2 * v1
    if be.is_zero(d, (d1, d2)) and be.is_zero(e, (e1, e2)):
        if be.is_zero(f, (f1, f2)):
            raise IdenticalCircles("radical line of identical circles is undefined")
        raise NoRadicalLine("concentric distinct circles have no radical line")
    return _line_h(be, d, e, f)


def radical_line(c1: Circle, c2: Circle) -> Line:
    """The radical axis of two distinct circles.

    Obtained by subtracting the two general-form equations; it contains every
    common point and is perpendicular to the line of centers.
    """
    return _line_of(c1.backend, _radical_h(_common_backend(c1, c2), c1._h, c2._h))


def _tangency_h(l, c, known):
    """n = 2v(b kx - a ky) + kw(d b - e a) for the line (a, b, c), the circle
    (d, e, f, v) and their common point k = (kx, ky, kw), on exact tuples.
    By Vieta along the direction (-b, a) from k, the points k + u (-b, a) of
    c have u = 0 or u = n / (kw v s), s = a^2 + b^2, so l touches c at k iff
    n = 0."""
    (a, b, _), (cd, ce, _, v), (kx, ky, kw) = l, c, known
    return 2 * v * (b * kx - a * ky) + kw * (cd * b - ce * a)


def _second_line_circle_h(be: Backend, l, c, known):
    """(the other meet of l and c, tangent); known itself when l touches c.
    On exact one formula for every line, with no pivot and no division."""
    if not _on_line_h(be, l, known):
        raise KnownPointNotIncident("known point is not on the line")
    if not _on_circle_h(be, c, known):
        raise KnownPointNotIncident("known point is not on the circle")
    (a, b, lc), (cd, ce, cf, v), (kx, ky, kw) = l, c, known
    if be.exact:
        # k + u (-b, a) at u = n / (kw v s) (see _tangency_h): no pivot factor
        n = _tangency_h(l, c, known)
        if n == 0:
            return known, True
        vs = v * (a * a + b * b)
        return _point_h(be, kx * vs - b * n, ky * vs + a * n, kw * vs), False
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
    return _point_h(be, x1, y1, 1.0), False


def second_line_circle(l: Line, c: Circle, known: Point) -> Tuple[Point, bool]:
    """The other intersection of l and c, given one known common point.

    Uses Vieta's relation on the restricted quadratic, so the result is
    rational whenever the inputs are.  If l is tangent to c at the known
    point the known point itself is returned with the tangency flag set.
    """
    be = _common_backend(l, c, known)
    meet, tangent = _second_line_circle_h(be, l._h, c._h, known._h)
    return (known if tangent else _point_of(be, meet)), tangent


def second_circle_circle(c1: Circle, c2: Circle, known: Point) -> Tuple[Point, bool]:
    """The other common point of two circles through a known common point.

    Reduces to the radical axis and the second line-circle intersection;
    the tangency flag is set when the circles touch at the known point.
    """
    be = _common_backend(c1, c2)
    rad = _radical_h(be, c1._h, c2._h)
    _common_backend(c1, known)
    meet, tangent = _second_line_circle_h(be, rad, c1._h, known._h)
    return (known if tangent else _point_of(be, meet)), tangent


# -- predicates ---------------------------------------------------------------------


def _collinear3_h(be: Backend, p, q, r) -> bool:
    if be.exact:
        return _det3(p, q, r) == 0
    (px, py, _), (qx, qy, _), (rx, ry, _) = p, q, r
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return be.is_zero(det, (px, py, qx, qy, rx, ry))


def collinear3(p: Point, q: Point, r: Point) -> bool:
    """Whether the 3x3 homogeneous determinant of the three points vanishes."""
    return _collinear3_h(_common_backend(p, q, r), p._h, q._h, r._h)


def _concyclic4_h(be: Backend, p, q, r, s) -> bool:
    if be.exact:
        # translate p to the origin: the others are (u, v) over w w0, and p is on
        # their circle iff its equation has no constant term.  With the minors m_k
        # of the (u, v) columns that term is sum s_k w_i w_j m_k, up to a nonzero
        # factor of the weights: the 3x3 determinant of the rows (uw, vw, u^2 + v^2)
        (x0, y0, w0), rows = p, []
        for x, y, w in (q, r, s):
            u, v = x * w0 - x0 * w, y * w0 - y0 * w
            rows.append((u, v, w, u * u + v * v))
        (u1, v1, w1, s1), (u2, v2, w2, s2), (u3, v3, w3, s3) = rows
        m1, m2, m3 = u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1
        return s1 * w2 * w3 * m1 + s2 * w3 * w1 * m2 + s3 * w1 * w2 * m3 == 0
    rows = []
    for x, y, _ in (p, q, r, s):
        rows.append((x, y, x * x + y * y))
    det = _det4_homogeneous(rows)
    entries = [v for row in rows for v in row]
    return be.is_zero(det, entries)


def concyclic4(p: Point, q: Point, r: Point, s: Point) -> bool:
    """Whether the standard 4x4 concyclicity determinant vanishes.

    Rows are (x, y, x^2 + y^2, 1); collinear triples count as concyclic
    (circle through infinity), matching the determinant convention.  On the
    exact backend p is first translated to the origin, which leaves the
    constant term of the other three points' circle: one sum over the 2x2
    minors of their translated coordinates.
    """
    return _concyclic4_h(_common_backend(p, q, r, s), p._h, q._h, r._h, s._h)


def _on_circumcircle_h(be: Backend, j, p, q, r) -> bool:
    """Whether j is on the circle through p, q and r; CollinearPoints when
    there is none.  On float, j is tested on _circle_through3_h's circle."""
    if not be.exact:
        return _on_circle_h(be, _circle_through3_h(be, p, q, r), j)
    _require_triangle(be, p, q, r)
    return _concyclic4_h(be, j, p, q, r)


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


def _directed_tan_h(be: Backend, l1, l2):
    """directed_tan as a pair (n, d), or None when it is infinite."""
    (a1, b1, _), (a2, b2, _) = l1, l2
    a1a2, b1b2 = a1 * a2, b1 * b2
    den = a1a2 + b1b2
    if be.is_zero(den, (a1a2, b1b2)):
        return None
    return _ratio_of(be, a1 * b2 - a2 * b1, den)


def _tans_equal(be: Backend, t1, t2) -> bool:
    """DirectedTan equality on two _directed_tan_h results."""
    return t1 is t2 if t1 is None or t2 is None else _same_value(be, t1, t2)


def directed_tan(l1: Line, l2: Line) -> DirectedTan:
    """Tangent of the directed angle from l1 to l2, working mod pi.

    Equals (a1 b2 - a2 b1) / (a1 a2 + b1 b2); infinite iff the lines are
    perpendicular.  Invariant under rescaling of either line's coefficients
    and independent of line orientation.
    """
    be = _common_backend(l1, l2)
    t = _directed_tan_h(be, l1._h, l2._h)
    return DirectedTan.infinity() if t is None else DirectedTan.of(Scalar(be, be.div(*t)))


def _orthocentric_h(be: Backend, p, q, r):
    """Sides (qr, rp, pq), altitudes (from p, q, r) and orthocentre of a
    proper triangle: the meet of the first two altitudes, checked against the
    third (a miss means broken arithmetic or an intolerably ill-conditioned
    float instance)."""
    if _collinear3_h(be, p, q, r):
        raise CollinearPoints("orthocentre of collinear points is undefined")
    side_p = _line_through_h(be, q, r)
    alt_p = _perpendicular_h(be, p, side_p)
    side_q = _line_through_h(be, r, p)
    alt_q = _perpendicular_h(be, q, side_q)
    h = _intersect_h(be, alt_p, alt_q)
    side_r = _line_through_h(be, p, q)
    alt_r = _perpendicular_h(be, r, side_r)
    if not _on_line_h(be, alt_r, h):
        raise ConstructionError("orthocentre failed third-altitude incidence")
    return (side_p, side_q, side_r), (alt_p, alt_q, alt_r), h


def orthocenter3(p: Point, q: Point, r: Point) -> Point:
    """Orthocentre of a proper triangle, as the meet of two altitudes
    checked against the third."""
    be = _common_backend(p, q, r)
    return _point_of(be, _orthocentric_h(be, p._h, q._h, r._h)[2])
