"""The oblique Wallace-Simson construction in the canonical frame.

Frame convention: the base point J is the origin, the circumcenter O is
(1, 0), the circumcircle Sigma is x^2 + y^2 - 2x = 0 (radius 1).  A vertex
with parameter p sits at (2, 2p)/(1 + p^2); the parameter is recoverable as
p = y/x.  One instance of the construction is Params(a, b, c, t): three
vertex parameters plus the similarity parameter t selecting the point Q on
the perpendicular bisector of JH.

The pipeline never solves a general quadratic: every second intersection is
taken against a known common point (Vieta), so a rational instance yields a
fully rational Scene.  vertex_point and perspector_k read p and t as a pair
(n, d), d = 1.0 on float, and build their points from one homogeneous
formula through geom's ``_hom_point`` on both backends, as origin_j and
circumcenter_o do from their integer tuples.  The similarity keeps an
integer and a float body: its float form halves the coordinates before it
adds, which the homogeneous form cannot match at subnormal or overflowing
values.  On the exact backend the construction stage therefore does no
``Fraction`` arithmetic.  construct_core is the single producer of J, the
vertices, sides, altitudes, H, vertex circles and X, Y, Z, which
build_scene and the audit in :mod:`oblique_simson.verify` both read; the
audit's closed forms are compared against them and used nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from . import geom
from .errors import (
    AllCoincident,
    BackendMismatch,
    DegenerateTriangle,
    JEqualsH,
    NotCollinear,
    NotOnCircumcircle,
)
from .geom import Circle, Line, Point
from .numeric import EXACT, Backend, Scalar

VERTEX_ORDER = ("A", "B", "C")

POINT_NAMES = (
    "J", "O", "A", "B", "C", "H", "Q", "K",
    "A0", "B0", "C0", "X", "Y", "Z", "L", "M", "N",
)
LINE_NAMES = (
    "sideBC", "sideCA", "sideAB",
    "altA", "altB", "altC",
    "gwsLine",
    "imageSideB0C0", "imageSideC0A0", "imageSideA0B0",
)
CIRCLE_NAMES = ("Sigma", "Sigma0", "S", "cA", "cB", "cC")


@dataclass(frozen=True)
class Params:
    """One instance: vertex parameters a, b, c and similarity parameter t."""

    a: Scalar
    b: Scalar
    c: Scalar
    t: Scalar

    def __post_init__(self):
        pairs = (("a", self.a, "b", self.b), ("a", self.a, "c", self.c),
                 ("b", self.b, "c", self.c))
        be = self.a.backend
        for s in (self.b, self.c, self.t):
            if s.backend != be:
                raise BackendMismatch("all parameters must share one backend")
        for n1, v1, n2, v2 in pairs:
            if geom._same_value(be, v1._ratio(), v2._ratio()):
                raise DegenerateTriangle(f"degenerate triangle: {n1} = {n2}")

    @classmethod
    def make(cls, a, b, c, t, backend: Backend = EXACT) -> "Params":
        return cls(backend.scalar(a), backend.scalar(b),
                   backend.scalar(c), backend.scalar(t))

    @property
    def backend(self) -> Backend:
        return self.a.backend

    def vertex_parameter(self, vertex: str) -> Scalar:
        return {"A": self.a, "B": self.b, "C": self.c}[vertex]

    def other_parameters(self, vertex: str) -> Tuple[Scalar, Scalar]:
        return {
            "A": (self.b, self.c),
            "B": (self.c, self.a),
            "C": (self.a, self.b),
        }[vertex]


@dataclass(frozen=True, eq=True)
class Scene:
    """Fully named output of one construction run."""

    params: Params
    points: Dict[str, Point]
    lines: Dict[str, Line]
    circles: Dict[str, Circle]
    flags: Tuple[str, ...]

    @property
    def backend(self) -> Backend:
        return self.params.backend


def origin_j(backend: Backend) -> Point:
    return geom._hom_point(backend, 0, 0, 1)


def circumcenter_o(backend: Backend) -> Point:
    return geom._hom_point(backend, 1, 0, 1)


def circumcircle_sigma(backend: Backend) -> Circle:
    """x^2 + y^2 - 2x = 0: center (1, 0), radius 1."""
    return Circle(backend.scalar(-2), backend.scalar(0), backend.scalar(0))


def vertex_point(p: Scalar) -> Point:
    """The circumcircle point (2, 2p) / (1 + p^2) for vertex parameter p."""
    n, d = p._ratio()
    return geom._hom_point(p.backend, 2 * d * d, 2 * n * d, d * d + n * n)


def apply_similarity(t: Scalar, p: Point) -> Point:
    """The direct similarity about J = (0,0) taking the orthocentre H to Q.

    As a matrix it is ((1/2, -t), (t, 1/2)): a rotation-dilation whose
    squared scale factor is (1 + 4 t^2) / 4.
    """
    be = p.backend
    if t.backend != be:
        raise BackendMismatch("similarity and point must share one backend")
    return _similarity_h(be, t, p._h, geom._hom_point)


def _similarity_h(be: Backend, t: Scalar, p, write=geom._point_h):
    """apply_similarity on the tuple of a point (see geom's tuple functions)."""
    (x, y, w), (n, d) = p, t._ratio()
    if be.exact:
        return write(be, x * d - 2 * n * y, 2 * n * x + y * d, 2 * d * w)
    return write(be, x / 2 - n * y, n * x + y / 2, 1.0)  # n is t, d is 1.0


def image_vertex(p: Scalar, t: Scalar) -> Point:
    """Image of the vertex with parameter p under the similarity."""
    return apply_similarity(t, vertex_point(p))


def perspector_k(t: Scalar) -> Point:
    """The common second intersection of every vertex-image line with Sigma.

    K = (8t^2, 4t) / (1 + 4t^2); independent of the vertex parameters, and
    equal to J itself at t = 0.
    """
    n, d = t._ratio()
    return geom._hom_point(t.backend, 8 * n * n, 4 * n * d, d * d + 4 * n * n)


def q_point(h: Point, t: Scalar) -> Point:
    """Q = (h/2 - kt, k/2 + ht): the similarity image of H = (h, k).

    Q runs over the whole perpendicular bisector of JH as t varies; t = 0
    gives the midpoint of JH (the classical case).
    """
    if geom._same_h(h.backend, h._h, (0, 0, 1)):  # H is J, the origin
        raise JEqualsH("H coincides with J: perpendicular bisector undefined")
    return apply_similarity(t, h)


def vertex_circle(p: Scalar, t: Scalar) -> Circle:
    """Circle centered at the image vertex, through J (hence through the vertex)."""
    return geom.circle_center_through(image_vertex(p, t), origin_j(p.backend))


_LMN_SOURCES = {"L": ("B", "C"), "M": ("C", "A"), "N": ("A", "B")}


class Core(NamedTuple):  # frozen; ~1.5 ms cheaper at import than a frozen dataclass
    """The construction stage: the origin j (J), and keyed by vertex v:
    sides[v] is the side opposite v, altitudes[v] the altitude from v,
    joins[v] the line through v and its image v0, circles[v] the vertex
    circle (centred at v0, through J and v), and xyz[v] the second meet of
    altitudes[v] with circles[v] (X, Y or Z) with its tangency flag
    (result = v)."""

    j: Point
    vertices: Dict[str, Point]
    images: Dict[str, Point]
    joins: Dict[str, Line]
    sides: Dict[str, Line]
    altitudes: Dict[str, Line]
    h: Point
    circles: Dict[str, Circle]
    xyz: Dict[str, Tuple[Point, bool]]

    def hagge(self) -> Circle:
        """The circle S through X, Y, Z."""
        return geom.circle_through3(*(self.xyz[v][0] for v in VERTEX_ORDER))

    def lmn(self, which: str) -> Tuple[Point, bool]:
        """L, M or N: the meet other than J of the circles of B and C, C and A,
        or A and B, flagged when they touch at J (result = J)."""
        v1, v2 = _LMN_SOURCES[which]
        return geom.second_circle_circle(self.circles[v1], self.circles[v2], self.j)


def construct_core(params: Params) -> Core:
    """The single producer of the stage: each object is built once, from
    objects the stage already has.  Sides, altitudes and H come from the
    vertices through geom's orthocentre routine, each vertex circle is centred
    at its image through J, and X, Y, Z come from altitude, vertex circle and
    vertex."""
    be = params.backend
    j = origin_j(be)
    verts = {v: vertex_point(params.vertex_parameter(v)) for v in VERTEX_ORDER}
    sides_h, alts_h, h = geom._orthocentric_h(be, *(p._h for p in verts.values()))
    sides, alts = ({v: geom._line_of(be, line) for v, line in zip(VERTEX_ORDER, lines)}
                   for lines in (sides_h, alts_h))
    h = geom._hom_point(be, *h)
    images = {v: apply_similarity(params.t, verts[v]) for v in VERTEX_ORDER}
    joins = {v: geom.line_through(verts[v], images[v]) for v in VERTEX_ORDER}
    circles = {v: geom.circle_center_through(images[v], j) for v in VERTEX_ORDER}
    xyz = {v: geom.second_line_circle(alts[v], circles[v], verts[v])
           for v in VERTEX_ORDER}
    return Core(j, verts, images, joins, sides, alts, h, circles, xyz)


# One-line public read-outs of the stage (see Core); BENCHMARK.json traces them.


def orthocenter_h(params: Params) -> Point:
    return construct_core(params).h


def side_line(vertex: str, params: Params) -> Line:
    return construct_core(params).sides[vertex]


def altitude_line(vertex: str, params: Params) -> Line:
    return construct_core(params).altitudes[vertex]


def xyz_point(vertex: str, params: Params) -> Tuple[Point, bool]:
    return construct_core(params).xyz[vertex]


def hagge_circle(params: Params) -> Circle:
    return construct_core(params).hagge()


def lmn_point(which: str, params: Params) -> Tuple[Point, bool]:
    return construct_core(params).lmn(which)


def _line_through_collinear_h(be: Backend, p, q, r,
                              not_collinear: str = "L, M, N are not collinear",
                              all_coincide: str = "all three points coincide; no unique line"):
    """The line through the first distinct pair of three collinear points, on
    tuples; gws_line's messages by default."""
    if not geom._collinear3_h(be, p, q, r):
        raise NotCollinear(not_collinear)
    for u, v in ((p, q), (p, r), (q, r)):
        if not geom._same_h(be, u, v):
            return geom._line_through_h(be, u, v)
    raise AllCoincident(all_coincide)


def gws_line(l: Point, m: Point, n: Point) -> Line:
    """The line carrying three collinear points (at least two distinct).

    Raises NotCollinear if the points do not line up; on scenes built by this
    package that indicates an internal bug, never a valid configuration.
    """
    be = geom._common_backend(l, m, n)
    return geom._line_of(be, _line_through_collinear_h(be, l._h, m._h, n._h))


def _double_simson_h(be: Backend, j, p, q, r):
    """double_simson_line on point tuples."""
    if not geom._on_circle_h(be, geom._circle_through3_h(be, p, q, r), j):
        raise NotOnCircumcircle("point is not on the circumcircle of the triangle")
    refs = [geom._along_normal_h(be, j, geom._line_through_h(be, u, v), 2)
            for u, v in ((q, r), (r, p), (p, q))]
    return _line_through_collinear_h(be, *refs, "side reflections failed to line up",
                                     "all three reflections coincide")


def double_simson_line(j: Point, p: Point, q: Point, r: Point) -> Line:
    """Line through the reflections of j in the three sides of triangle pqr.

    Requires j on the circumcircle of pqr; the returned line passes through
    the orthocentre of pqr (checked by the verifier, not here).
    """
    be = geom._common_backend(p, q, r, j)
    return geom._line_of(be, _double_simson_h(be, j._h, p._h, q._h, r._h))


def build_scene(params: Params) -> Scene:
    """Run the full construction and return the named Scene.

    Every object construct_core holds is taken from it, its single producer,
    and L, M, N come from its vertex circles.  It raises only where an
    object cannot be built (degenerate input, H = J, an orthocentre off its
    third altitude, ...); whether the built objects satisfy the paper's
    incidences is the verdict of :func:`oblique_simson.verify.run_checks`, one
    named check per identity.
    """
    be = params.backend
    o = circumcenter_o(be)
    sigma = circumcircle_sigma(be)
    core = construct_core(params)
    j = core.j
    verts, images, alts, h = core.vertices, core.images, core.altitudes, core.h
    q = q_point(h, params.t)
    k = perspector_k(params.t)

    # only the tangency flag is read here; perspector_common judges the meet
    flags = [f"tangent:{v}{v}0" for v in VERTEX_ORDER
             if geom._second_line_circle_h(be, core.joins[v]._h, sigma._h,
                                           verts[v]._h)[1]]
    xyz = {n: core.xyz[v] for n, v in zip("XYZ", VERTEX_ORDER)}
    flags += [f"tangent:{n}" for n, (_, tangent) in xyz.items() if tangent]
    s_circle = core.hagge()
    sigma0 = geom.circle_through3(images["A"], images["B"], images["C"])
    lmn = {n: core.lmn(n) for n in "LMN"}
    flags += [f"tangent:{n}" for n, (_, tangent) in lmn.items() if tangent]
    gws = gws_line(*(pt for pt, _ in lmn.values()))

    points = {"J": j, "O": o, **verts, "H": h, "Q": q, "K": k,
              **{v + "0": images[v] for v in VERTEX_ORDER},
              **{n: pt for n, (pt, _) in (*xyz.items(), *lmn.items())}}
    lines = {
        "sideBC": core.sides["A"], "sideCA": core.sides["B"], "sideAB": core.sides["C"],
        "altA": alts["A"], "altB": alts["B"], "altC": alts["C"],
        "gwsLine": gws,
        "imageSideB0C0": geom.line_through(images["B"], images["C"]),
        "imageSideC0A0": geom.line_through(images["C"], images["A"]),
        "imageSideA0B0": geom.line_through(images["A"], images["B"]),
    }
    circles = {
        "Sigma": sigma, "Sigma0": sigma0, "S": s_circle,
        "cA": core.circles["A"], "cB": core.circles["B"], "cC": core.circles["C"],
    }
    return Scene(params=params, points=points, lines=lines, circles=circles,
                 flags=tuple(flags))


# -- frame normalization -----------------------------------------------------------


@dataclass(frozen=True)
class FrameTransform:
    """Similarity w -> (w - origin) / unit mapping a configuration to the
    canonical frame; from_canonical is the recorded inverse."""

    origin: Point
    unit: Point

    def to_canonical(self, p: Point) -> Point:
        be = geom._common_backend(self.origin, p)
        ux, uy = p.x.value - self.origin.x.value, p.y.value - self.origin.y.value
        vx, vy = self.unit.x.value, self.unit.y.value
        den = vx * vx + vy * vy
        return Point(Scalar(be, be.div(ux * vx + uy * vy, den)),
                     Scalar(be, be.div(uy * vx - ux * vy, den)))

    def from_canonical(self, p: Point) -> Point:
        be = geom._common_backend(self.origin, p)
        x, y = p.x.value, p.y.value
        vx, vy = self.unit.x.value, self.unit.y.value
        return Point(Scalar(be, x * vx - y * vy + self.origin.x.value),
                     Scalar(be, x * vy + y * vx + self.origin.y.value))

    @property
    def identity(self) -> bool:
        be = self.origin.backend
        return geom.points_equal(self.origin, geom.point(be, 0, 0)) and \
            geom.points_equal(self.unit, geom.point(be, 1, 0))


@dataclass(frozen=True)
class NormalizedFrame:
    """Vertex parameters of an arbitrary triangle plus the frame transform."""

    a: Scalar
    b: Scalar
    c: Scalar
    transform: FrameTransform

    def params(self, t) -> Params:
        be = self.a.backend
        return Params(self.a, self.b, self.c, be.scalar(t))


def normalize_frame(a_pt: Point, b_pt: Point, c_pt: Point, j_pt: Point) -> NormalizedFrame:
    """Map an arbitrary triangle with circumcircle point J' to the canonical frame.

    The circumcenter goes to (1, 0) and J' to the origin; vertex parameters
    are read off as y/x of each mapped vertex.  J' must be on the circumcircle
    and distinct from every vertex.
    """
    if geom.collinear3(a_pt, b_pt, c_pt):
        raise DegenerateTriangle("triangle vertices are collinear")
    for name, v in (("A", a_pt), ("B", b_pt), ("C", c_pt)):
        if geom.points_equal(v, j_pt):
            raise DegenerateTriangle(
                f"J coincides with vertex {name}: parameter undefined")
    bis_ab = geom.perpendicular_through(geom.midpoint(a_pt, b_pt),
                                        geom.line_through(a_pt, b_pt))
    bis_ac = geom.perpendicular_through(geom.midpoint(a_pt, c_pt),
                                        geom.line_through(a_pt, c_pt))
    center = geom.intersect_lines(bis_ab, bis_ac)
    be = center.backend
    dj, da = geom.dist_sq(j_pt, center).value, geom.dist_sq(a_pt, center).value
    if not be.is_zero(dj - da, (dj, da)):
        raise NotOnCircumcircle("J is not on the circumcircle of the triangle")
    unit = Point(Scalar(be, center.x.value - j_pt.x.value),
                 Scalar(be, center.y.value - j_pt.y.value))
    transform = FrameTransform(origin=j_pt, unit=unit)
    out: List[Scalar] = []
    for v in (a_pt, b_pt, c_pt):
        m = transform.to_canonical(v)
        out.append(Scalar(be, be.div(m.y.value, m.x.value)))
    return NormalizedFrame(*out, transform=transform)
