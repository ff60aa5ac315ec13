"""The oblique Wallace-Simson construction in the canonical frame.

Frame convention: the base point J is the origin, the circumcenter O is
(1, 0), the circumcircle Sigma is x^2 + y^2 - 2x = 0 (radius 1).  A vertex
with parameter p sits at (2, 2p)/(1 + p^2); the parameter is recoverable as
p = y/x.  One instance of the construction is Params(a, b, c, t): three
vertex parameters plus the similarity parameter t selecting the point Q on
the perpendicular bisector of JH.

The pipeline never solves a general quadratic, so a rational instance
yields a fully rational Scene.  On float every second intersection is taken
against a known common point (Vieta).  On exact the six that are scene
points, X, Y, Z and L, M, N, are closed forms in a, b, c and t, each
certified where it is built by the incidences that make it that meet, and
the tangency flags of the joins AA0, BB0, CC0 are read from one quantity
of the meet, :func:`geom._tangency_h`, without building its point.  Each
formula is a tuple function on geom's canonical ``_h`` tuples: the vertex,
perspector and Q forms read p and t as a pair (n, d), d = 1.0 on float, in
one homogeneous formula for both backends; the similarity keeps an integer
and a float body, as its float form halves the coordinates before it adds,
which the homogeneous form cannot match at subnormal or overflowing values.
The exact construction therefore does no ``Fraction`` arithmetic.
construct_core computes the stage's tuples, keyed by scene name, up to Q
and the circle S; build_scene extends them to the whole figure and hands
the Scene its tuples by name, writing no object: a :class:`SceneObjects`
map writes a point, line or circle when a caller first reads it, and the
checks and the writers read the tuples alone.  The audit in
:mod:`oblique_simson.verify` compares its closed forms with the stage, S
among them.  On exact the circles S and Sigma0 are built from their
centres, Q and the image of O, through J, and the double-Simson
precondition (J on the circle of the triangle) is one integer test that
builds no circle; float keeps the circles through X, Y, Z and A0, B0, C0,
which fixes its bits.  :func:`_circle_about_h` makes that choice for both
circles.  As in geom, a public function writes only the object it returns;
only build_scene and the read-outs of one scene object call another public
function.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import geom
from .errors import (
    AllCoincident,
    BackendMismatch,
    ConstructionError,
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

# per vertex A, B, C: the side opposite it, and the meet of its altitude and circle
_SIDES = ("sideBC", "sideCA", "sideAB")
_XYZ = ("X", "Y", "Z")
# L, M, N: the meets other than J of the vertex circles of B and C, C and A, A and B
_LMN = {"L": ("cB", "cC"), "M": ("cC", "cA"), "N": ("cA", "cB")}


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


class SceneObjects(Mapping):
    """A read-only name -> object mapping over ``_h``, a map from name to
    canonical tuple: a Scene's points, lines or circles.  The object of a
    name is written from its tuple through geom's writer of the map's
    *kind* (``"_point_of"``, ``"_line_of"`` or ``"_circle_of"``) the first
    time the name is read, and kept.  Objects handed to a Scene are
    adopted (:meth:`adopt`): ``_h`` holds their own tuples, and a read
    returns them.  ``backend`` is the one backend of the objects, or None
    where adopted ones have several; :meth:`backend_of` reads an object's
    backend without writing it.  Two maps of one kind and one backend
    compare their tuples, as their objects would compare."""

    __slots__ = ("backend", "_h", "_kind", "_read")

    def __init__(self, kind: str, backend: Optional[Backend], tuples: Dict[str, tuple],
                 read: Optional[dict] = None):
        self.backend, self._h, self._kind = backend, tuples, kind
        self._read = {} if read is None else read

    @classmethod
    def adopt(cls, kind: str, objects) -> "SceneObjects":
        """The map holding *objects*, each with its own tuple and backend."""
        read = dict(objects)
        backends = [obj.backend for obj in read.values()]
        backend = backends[0] if backends else None
        if any(other != backend for other in backends):
            backend = None
        return cls(kind, backend, {name: obj._h for name, obj in read.items()}, read)

    def __getitem__(self, name: str):
        obj = self._read.get(name)
        if obj is None:
            obj = self._read[name] = getattr(geom, self._kind)(self.backend, self._h[name])
        return obj

    def __iter__(self):
        return iter(self._h)

    def __len__(self) -> int:
        return len(self._h)

    def __contains__(self, name) -> bool:
        return name in self._h

    def keys(self):
        return self._h.keys()

    def backend_of(self, name: str) -> Backend:
        return self._read[name].backend if self.backend is None else self.backend

    def __eq__(self, other) -> bool:
        if (isinstance(other, SceneObjects) and other._kind == self._kind
                and self.backend is not None and self.backend == other.backend):
            be, h = self.backend, other._h
            return h.keys() == self._h.keys() and all(
                geom._same_h(be, t, h[name]) for name, t in self._h.items())
        return Mapping.__eq__(self, other)  # object by object

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        # a map of one backend is its tuples; a mixed one keeps its objects
        return SceneObjects, (self._kind, self.backend, self._h,
                              None if self.backend is not None else self._read)


@dataclass(frozen=True, eq=True)
class Scene:
    """Fully named output of one construction run.  Its points, lines and
    circles are read-only SceneObjects maps; plain mappings of objects,
    as a hand-built scene or ``dataclasses.replace`` gives, are adopted."""

    params: Params
    points: Mapping[str, Point]
    lines: Mapping[str, Line]
    circles: Mapping[str, Circle]
    flags: Tuple[str, ...]

    def __post_init__(self):
        for field, kind in (("points", "_point_of"), ("lines", "_line_of"),
                            ("circles", "_circle_of")):
            objects = getattr(self, field)
            if type(objects) is not SceneObjects:
                object.__setattr__(self, field, SceneObjects.adopt(kind, objects))

    @property
    def backend(self) -> Backend:
        return self.params.backend


def origin_j(backend: Backend) -> Point:
    return geom._hom_point(backend, 0, 0, 1)


def circumcenter_o(backend: Backend) -> Point:
    return geom._hom_point(backend, 1, 0, 1)


def circumcircle_sigma(backend: Backend) -> Circle:
    """x^2 + y^2 - 2x = 0: center (1, 0), radius 1."""
    return geom._circle(backend, -2, 0, 0)


def _vertex_h(be: Backend, p: Scalar):
    """vertex_point on the pair of p (see geom's tuple functions)."""
    n, d = p._ratio()
    return geom._point_h(be, 2 * d * d, 2 * n * d, d * d + n * n)


def vertex_point(p: Scalar) -> Point:
    """The circumcircle point (2, 2p) / (1 + p^2) for vertex parameter p."""
    return geom._point_of(p.backend, _vertex_h(p.backend, p))


def apply_similarity(t: Scalar, p: Point) -> Point:
    """The direct similarity about J = (0,0) taking the orthocentre H to Q.

    As a matrix it is ((1/2, -t), (t, 1/2)): a rotation-dilation whose
    squared scale factor is (1 + 4 t^2) / 4.
    """
    return geom._point_of(p.backend, _checked_similarity_h(p.backend, t, p._h))


def _similarity_h(be: Backend, t: Scalar, p):
    """apply_similarity on the tuple of a point."""
    (x, y, w), (n, d) = p, t._ratio()
    if be.exact:
        return geom._point_h(be, x * d - 2 * n * y, 2 * n * x + y * d, 2 * d * w)
    return geom._point_h(be, x / 2 - n * y, n * x + y / 2, 1.0)  # n is t, d is 1.0


def _checked_similarity_h(be: Backend, t: Scalar, p):
    """_similarity_h, raising BackendMismatch unless t is on the point's backend be."""
    if t.backend != be:
        raise BackendMismatch("similarity and point must share one backend")
    return _similarity_h(be, t, p)


def image_vertex(p: Scalar, t: Scalar) -> Point:
    """Image of the vertex with parameter p under the similarity."""
    be = p.backend
    return geom._point_of(be, _checked_similarity_h(be, t, _vertex_h(be, p)))


def _perspector_h(be: Backend, t: Scalar):
    """perspector_k on the pair of t."""
    n, d = t._ratio()
    return geom._point_h(be, 8 * n * n, 4 * n * d, d * d + 4 * n * n)


def perspector_k(t: Scalar) -> Point:
    """The common second intersection of every vertex-image line with Sigma.

    K = (8t^2, 4t) / (1 + 4t^2); independent of the vertex parameters, and
    equal to J itself at t = 0.
    """
    return geom._point_of(t.backend, _perspector_h(t.backend, t))


def _q_h(be: Backend, h, t: Scalar):
    """q_point on the tuple of H; JEqualsH when H is J."""
    if geom._same_h(be, h, (0, 0, 1)):  # H is J, the origin
        raise JEqualsH("H coincides with J: perpendicular bisector undefined")
    return _similarity_h(be, t, h)


def q_point(h: Point, t: Scalar) -> Point:
    """Q = (h/2 - kt, k/2 + ht): the similarity image of H = (h, k).

    Q runs over the whole perpendicular bisector of JH as t varies; t = 0
    gives the midpoint of JH (the classical case).
    """
    return geom._point_of(h.backend, _q_h(geom._common_backend(h, t), h._h, t))


def vertex_circle(p: Scalar, t: Scalar) -> Circle:
    """Circle centered at the image vertex, through J (hence through the vertex)."""
    be = p.backend
    image = _checked_similarity_h(be, t, _vertex_h(be, p))
    return geom._circle_of(be, geom._circle_center_through_h(be, image, geom._point_h(be, 0, 0, 1)))


def _circle_about_h(be: Backend, center, j, through):
    """The circle about *center* through j, which also passes through the three
    points *through*: built from its centre on exact, and through the three
    points on float, which fixes the float bits."""
    if be.exact:
        return geom._circle_center_through_h(be, center, j)
    return geom._circle_through3_h(be, *through)


def _g_h(q, r, t):
    """G1 = 2qrt - q - r - 2t and G2 = qr + 2qt + 2rt - 1 for the vertex
    parameters q, r and t, as their numerators over qd rd td on the pairs
    (n, d)."""
    (qn, qd), (rn, rd), (tn, td) = q, r, t
    cross = qn * rd + rn * qd
    return (2 * qn * rn * tn - td * cross - 2 * tn * qd * rd,
            td * (qn * rn - qd * rd) + 2 * tn * cross)


def _xyz_form_h(be: Backend, p, q, r, t):
    """The meet other than the vertex of parameter p of its altitude and
    vertex circle, for the other two parameters q and r (X for p = a):
    2F (-G1, G2) / ((1 + p^2)(1 + q^2)(1 + r^2)) with F = pqr - p + q + r,
    on the pairs (n, d).  Exact only, unchecked (see _certified_xyz_h)."""
    (pn, pd), (qn, qd), (rn, rd), (_, td) = p, q, r, t
    g1, g2 = _g_h(q, r, t)
    f = 2 * pd * (pn * (qn * rn - qd * rd) + pd * (qn * rd + rn * qd))
    w = td * (pn * pn + pd * pd) * (qn * qn + qd * qd) * (rn * rn + rd * rd)
    # the content gcd(-f G1, f G2, w), taken where the factors are known
    return geom._point_h(be, -f * g1, f * g2, w, be.gcd(f * be.gcd(g1, g2), w))


def _lmn_form_h(be: Backend, q, r, t):
    """The meet other than J of the vertex circles of parameters q and r
    (L for (b, c)): -2 (G2, G1) / ((1 + q^2)(1 + r^2)), on the pairs (n, d).
    Exact only, unchecked (see _certified_lmn_h)."""
    (qn, qd), (rn, rd), (_, td) = q, r, t
    g1, g2 = _g_h(q, r, t)
    k = -2 * qd * rd
    return geom._point_h(be, k * g2, k * g1, td * (qn * qn + qd * qd) * (rn * rn + rd * rd))


def _certified_xyz_h(be: Backend, name: str, vertex: str, point, stage):
    """(point, tangent) for the closed form *point* of X, Y or Z (*name*),
    certified as the meet other than *vertex* of its altitude and vertex
    circle, which both pass through the vertex (the circle as the image
    vertex is as far from the vertex as from J): the point is on both, and
    differs from the vertex, or, where it is the vertex, the altitude
    touches the circle there (the tangency flag).  A line meets a circle at
    most twice, so that is the meet.  ConstructionError otherwise."""
    alt, circle, known = stage["alt" + vertex], stage["c" + vertex], stage[vertex]
    if not geom._on_line_h(be, alt, point):
        failed = f"{name} is off alt{vertex}"
    elif not geom._on_circle_h(be, circle, point):
        failed = f"{name} is off c{vertex}"
    elif point != known:
        return point, False
    elif geom._tangency_h(alt, circle, known) == 0:
        return point, True
    else:
        failed = f"{name} is {vertex}, but alt{vertex} does not touch c{vertex} there"
    raise ConstructionError(f"closed-form certificate failed: {failed}")


def _certified_lmn_h(be: Backend, name: str, point, stage):
    """The closed form *point* of L, M or N (*name*), certified as the meet
    other than J of its two vertex circles: the point is on both and differs
    from J.  Two circles meet at most twice, so that is the meet.
    ConstructionError otherwise, also where the point is J, for two vertex
    circles never touch at J.  Take cB and cC, about B0 = sim(B) and
    C0 = sim(C) through J: they touch at J only if their radii there are
    parallel, that is, J, B0 and C0 are collinear.  The similarity fixes J
    and is invertible, so J, B and C would be collinear; but they are three
    distinct points of Sigma (b != c, and a vertex has x > 0)."""
    c1, c2 = _LMN[name]
    if not geom._on_circle_h(be, stage[c1], point):
        failed = f"{name} is off {c1}"
    elif not geom._on_circle_h(be, stage[c2], point):
        failed = f"{name} is off {c2}"
    elif point == stage["J"]:
        failed = f"{name} is J"
    else:
        return point
    raise ConstructionError(f"closed-form certificate failed: {failed}")


def _by_vertex(a, b, c):
    """(vertex, its value, the other two) per vertex for the values a, b, c
    of A, B, C, in the cyclic order: b and c for A, c and a for B, a and b
    for C."""
    return ("A", a, b, c), ("B", b, c, a), ("C", c, a, b)


def construct_core(params: Params) -> Tuple[Dict[str, tuple], List[str]]:
    """The stage's canonical tuples by scene name, each computed once from
    the ones before, and the tangency flags of X, Y, Z.  The vertex circle
    cA is centred at A0 through J (and A), X is its second meet with altA,
    and the line AA0 through A and A0, not a scene object, is kept too.  Q is
    the image of H, and S is the circle about Q through J, which passes
    through X, Y, Z and H.  On exact, X, Y and Z are closed forms in a, b, c
    and t, each certified here by the incidences that make it the meet (see
    _certified_xyz_h), since the audit compares the stage with the paper's
    formulas; float takes the meets, which fix its bits."""
    be, t = params.backend, params.t
    j = geom._point_h(be, 0, 0, 1)
    verts = [_vertex_h(be, p) for p in (params.a, params.b, params.c)]
    if not be.exact:  # on exact a vertex's weight d^2 + n^2 is never 0, so never J
        for v, vert in zip(VERTEX_ORDER, verts):
            if geom._same_h(be, vert, j):  # within the tolerance
                raise DegenerateTriangle(f"degenerate triangle: vertex {v} coincides with J")
    sides, alts, h = geom._orthocentric_h(be, *verts)
    images = [_similarity_h(be, t, v) for v in verts]
    joins = [geom._line_through_h(be, v, image) for v, image in zip(verts, images)]
    circles = [geom._circle_center_through_h(be, image, j) for image in images]
    stage = {"J": j, "H": h}
    for i, v in enumerate(VERTEX_ORDER):
        stage.update({v: verts[i], _SIDES[i]: sides[i], "alt" + v: alts[i], v + "0": images[i],
                      v + v + "0": joins[i], "c" + v: circles[i]})
    if be.exact:
        tp, abc = t._ratio(), (params.a._ratio(), params.b._ratio(), params.c._ratio())
        xyz = [_certified_xyz_h(be, n, v, _xyz_form_h(be, p, q, r, tp), stage)
               for n, (v, p, q, r) in zip(_XYZ, _by_vertex(*abc))]
    else:
        xyz = [geom._second_line_circle_h(be, *meet) for meet in zip(alts, circles, verts)]
    q = _q_h(be, h, t)
    stage.update(zip(_XYZ, (p for p, _ in xyz)))
    stage.update(Q=q, S=_circle_about_h(be, q, j, [p for p, _ in xyz]))
    return stage, [f"tangent:{n}" for n, (_, tangent) in zip(_XYZ, xyz) if tangent]


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
    if not geom._on_circumcircle_h(be, j, p, q, r):
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

    The stage's tuples are extended by the rest of the figure, and the
    Scene holds them by name; no object is written until a caller reads
    it (see SceneObjects).  On exact, S is the
    stage's circle about Q through J and Sigma0 the circle about the image
    of O through J, so the checks put X, Y, Z, H and A0, B0, C0 on them; on
    float they are the circles through X, Y, Z and through A0, B0, C0.  It
    raises only where an object cannot be built (degenerate input, H = J, an
    orthocentre off its third altitude, ...); whether the built objects
    satisfy the paper's incidences is the verdict of
    :func:`oblique_simson.verify.run_checks`, one named check per identity.
    """
    be, t = params.backend, params.t
    stage, xyz_flags = construct_core(params)
    j, sigma = stage["J"], geom._circle_h(be, -2, 0, 0)
    stage.update(O=geom._point_h(be, 1, 0, 1), Sigma=sigma, K=_perspector_h(be, t))
    # only the tangency flags of the joins AA0, BB0, CC0 are read here;
    # perspector_common judges their meets with Sigma
    if be.exact:
        flags = [f"tangent:{v}{v}0" for v in VERTEX_ORDER
                 if geom._tangency_h(stage[v + v + "0"], sigma, stage[v]) == 0]
    else:
        flags = [f"tangent:{v}{v}0" for v in VERTEX_ORDER
                 if geom._second_line_circle_h(be, stage[v + v + "0"], sigma, stage[v])[1]]
    flags += xyz_flags
    stage["Sigma0"] = _circle_about_h(be, _similarity_h(be, t, stage["O"]), j,
                                      [stage[v + "0"] for v in VERTEX_ORDER])
    if be.exact:  # closed forms, certified, and never tangent (see _certified_lmn_h)
        tp, abc = t._ratio(), (params.a._ratio(), params.b._ratio(), params.c._ratio())
        lmn = [(_certified_lmn_h(be, n, _lmn_form_h(be, q, r, tp), stage), False)
               for n, (_, _, q, r) in zip(_LMN, _by_vertex(*abc))]
    else:
        lmn = [geom._second_line_circle_h(be, geom._radical_h(be, stage[c1], stage[c2]),
                                          stage[c1], j) for c1, c2 in _LMN.values()]
    for n, (point, tangent) in zip(_LMN, lmn):
        stage[n] = point
        if tangent:
            flags.append(f"tangent:{n}")
    stage["gwsLine"] = _line_through_collinear_h(be, *(stage[n] for n in _LMN))
    for p, q in (("B0", "C0"), ("C0", "A0"), ("A0", "B0")):
        stage[f"imageSide{p}{q}"] = geom._line_through_h(be, stage[p], stage[q])
    return Scene(params, SceneObjects("_point_of", be, {n: stage[n] for n in POINT_NAMES}),
                 SceneObjects("_line_of", be, {n: stage[n] for n in LINE_NAMES}),
                 SceneObjects("_circle_of", be, {n: stage[n] for n in CIRCLE_NAMES}),
                 tuple(flags))


# Public read-outs of one scene object each; BENCHMARK.json traces them.


def orthocenter_h(params: Params) -> Point:
    return build_scene(params).points["H"]


def side_line(vertex: str, params: Params) -> Line:
    return build_scene(params).lines[_SIDES[VERTEX_ORDER.index(vertex)]]


def altitude_line(vertex: str, params: Params) -> Line:
    return build_scene(params).lines["alt" + vertex]


def _flagged(params: Params, name: str) -> Tuple[Point, bool]:
    """The scene point *name* and whether it is flagged tangent."""
    scene = build_scene(params)
    return scene.points[name], f"tangent:{name}" in scene.flags


def xyz_point(vertex: str, params: Params) -> Tuple[Point, bool]:
    return _flagged(params, _XYZ[VERTEX_ORDER.index(vertex)])


def hagge_circle(params: Params) -> Circle:
    return build_scene(params).circles["S"]


def lmn_point(which: str, params: Params) -> Tuple[Point, bool]:
    return _flagged(params, {n: n for n in _LMN}[which])


# -- frame normalization -----------------------------------------------------------


def _to_canonical_h(be: Backend, origin, unit, p):
    """FrameTransform.to_canonical on point tuples: u = p - origin, then
    (u . v, u x v) / |v|^2 for the unit v; DivisionByZero when v is zero."""
    (x, y, w), (vx, vy, vw), (ox, oy, ow) = p, unit, origin
    ux, uy = x * ow - ox * w, y * ow - oy * w  # over the weight w ow
    return geom._point_h(be, (ux * vx + uy * vy) * vw, (uy * vx - ux * vy) * vw,
                         w * ow * (vx * vx + vy * vy))


@dataclass(frozen=True)
class FrameTransform:
    """Similarity w -> (w - origin) / unit mapping a configuration to the
    canonical frame; from_canonical is the recorded inverse."""

    origin: Point
    unit: Point

    def to_canonical(self, p: Point) -> Point:
        be = geom._common_backend(self.origin, p)
        return geom._point_of(be, _to_canonical_h(be, self.origin._h, self.unit._h, p._h))

    def from_canonical(self, p: Point) -> Point:
        be = geom._common_backend(self.origin, p)
        (x, y, w), (vx, vy, vw), (ox, oy, ow) = p._h, self.unit._h, self.origin._h
        # x vx - y vy + ox over the weight w vw ow, term by term
        return geom._hom_point(be, x * vx * ow - y * vy * ow + ox * w * vw,
                               x * vy * ow + y * vx * ow + oy * w * vw, w * vw * ow)

    @property
    def identity(self) -> bool:
        be = self.origin.backend
        return (geom._same_h(be, self.origin._h, geom._point_h(be, 0, 0, 1))
                and geom._same_h(geom._common_backend(self.unit, self.origin),
                                 self.unit._h, geom._point_h(be, 1, 0, 1)))


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
    be = geom._common_backend(a_pt, b_pt, c_pt)
    a, b, c, j = a_pt._h, b_pt._h, c_pt._h, j_pt._h
    if geom._collinear3_h(be, a, b, c):
        raise DegenerateTriangle("triangle vertices are collinear")
    geom._common_backend(a_pt, j_pt)  # BackendMismatch unless J shares their backend
    for name, v in (("A", a), ("B", b), ("C", c)):
        if geom._same_h(be, v, j):
            raise DegenerateTriangle(
                f"J coincides with vertex {name}: parameter undefined")
    center = geom._circumcenter_h(be, a, b, c)
    (cx, cy, cw), (jx, jy, jw) = center, j
    dj, da = (geom._dist_sq_h(be, p, center) for p in (j, a))
    if not geom._same_value(be, dj, da, scaled=True):
        raise NotOnCircumcircle("J is not on the circumcircle of the triangle")
    unit = geom._point_h(be, cx * jw - jx * cw, cy * jw - jy * cw, cw * jw)
    out: List[Scalar] = []
    for v in (a, b, c):
        x, y, _ = _to_canonical_h(be, j, unit, v)
        out.append(Scalar(be, be.div(y, x)))  # the parameter y/x
    return NormalizedFrame(*out, transform=FrameTransform(j_pt, geom._point_of(be, unit)))
