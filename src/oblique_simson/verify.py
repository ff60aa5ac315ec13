"""Named theorem checks over a Scene, a seeded fuzzer, and the formula audit.

Every check re-derives its assertion from the scene contents, and each of the
paper's identities has its verdict here only: ``build_scene`` builds the
objects without asserting them.  :func:`run_checks` reads the canonical
tuples the scene's maps hold, into one map from name to tuple, writing no
Point, Line or Circle, and calls each check as
``check(backend, tuples, params)``.  A check composes geom's tuple
functions and builds no Point, Line, Circle or Scalar, not even for a
witness, which geom's text writers and :func:`numeric.format_pair` write
from the tuples and pairs (n, d) it holds.  A deliberately corrupted scene,
or a float instance whose tolerance misses an identity, therefore produces
FAIL results with witnesses rather than exceptions.  On the exact backend a
failing check on a validly built scene is always a defect: the fuzz run is
a randomized polynomial-identity test over the rationals.

On exact, five checks pass on incidence tests against circles and points
the scene already holds (a certificate, such as each Theorem 4.1 chain on
its vertex circle, or J's unreduced reflections in the sides of A0B0C0 on
gwsLine), and run their constructive body only when the certificate does
not pass, so every verdict that is not PASS, and its witness, comes from
that body.  The certificates use only ``==`` and ``!=`` on integers (no
hashing, so they run over any exact ring), and float runs the bodies
alone.

The audit evaluates the closed-form coefficient formulas handed down for this
construction (rows Eq2.3-Eq2.8).  Two of them disagree with the construction
on generic instances - the orthocentre x-coordinate (off by a -2a^2b^2c^2 vs
-a^2b^2c^2 term) and the altitude constant term (off by 4(b+c)) - and the
audit documents exactly that, per instance, without guessing intent.  Each
closed form is one homogeneous formula for both backends on the numbers
(A, B, C, T, D), which the audit reads once with geom's ``_over_common``:
a = A/D, ..., t = T/D, integers over the lcm of the denominators on exact
and the floats over D = 1.0 on float.  Each term of the float formula, kept
in its float order, is brought to the formula's top degree by a power of D.
A product with 1.0 is exact, so the float results keep every bit, and on
exact the formula runs on integers.  A printed formula returns the
homogeneous values it is written with, or (n, d) pairs from ``_ratio_of``
for the altitude coefficients.

On exact the audit builds no construction stage where its certificates
pass.  From the vertices and their images it takes H = A + B + C - 2O
(Sylvester's relation), certified on two altitudes, and Q = sim(H), and
decides each MATCH by the integer incidences that fix the constructive
object, on the printed values as they are, in no canonical form: the
vertex-image line holds the vertex and its image, the vertex circle and the
Hagge circle pass through J about the image and Q, and X, Y, Z are on their
altitudes and vertex circles, away from the vertex (see
``_certified_witnesses``).  Eq2.5 and Eq2.6 compare pairs,
scale-free, with that H and the unreduced altitude from A.  Where a
certificate does not pass (a printed X, Y or Z at its vertex, an Eq2.6
coefficient mismatch, a wrong or degenerate printed object), and on
float, every row compares its canonical printed tuple with the tuple of
:func:`simson.construct_core`'s stage (``_same_h``, and ``_same_value`` by
integer cross-multiplication on exact), and gives the verdict, any
MISMATCH witness and any raise.  Either way a row builds no object, its
witness included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from . import geom, simson
from .errors import BackendMismatch, GeometryError
from .geom import _circle_text, _line_text, _point_text, _tan_text
from .numeric import EXACT, format_pair, format_scalar
from .simson import Params, Scene

# one per audit row, in order; eq2.5 and eq2.6 each give two verdicts
AUDIT_NAMES = (
    "eq2.3", "eq2.4", "eq2.5.x", "eq2.5.y",
    "eq2.6.coeffs", "eq2.6.const", "eq2.7", "eq2.8",
)


@dataclass(frozen=True, slots=True, init=False)
class CheckResult:
    """One verdict.  Slotted, and born through its slots, as run_checks
    makes nineteen per scene; frozen as any dataclass."""

    name: str
    passed: bool
    witness: Optional[Dict[str, str]] = None

    def __init__(self, name: str, passed: bool, witness: Optional[Dict[str, str]] = None):
        _set_name(self, name)
        _set_passed(self, passed)
        _set_witness(self, witness)


_set_name = CheckResult.name.__set__
_set_passed = CheckResult.passed.__set__
_set_witness = CheckResult.witness.__set__


@dataclass(frozen=True)
class Report:
    """Ordered check results for one instance."""

    backend: str
    params: Dict[str, str]
    flags: Tuple[str, ...]
    results: Tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def params_echo(params: Params) -> Dict[str, str]:
    return {n: format_scalar(getattr(params, n)) for n in ("a", "b", "c", "t")}


# -- the nineteen named checks ---------------------------------------------------


def _incidences_on_circle(be, circle, h, names):
    for name in names:
        if not geom._on_circle_h(be, circle, h[name]):
            return {"point": name,
                    "residual": format_pair(be, *geom._circle_eval_h(be, circle, h[name]))}
    return None


def _chk_on_circumcircle(be, h, params):
    return _incidences_on_circle(be, h["Sigma"], h, ("A", "B", "C", "K"))


def _chk_sigma0(be, h, params):
    return _incidences_on_circle(be, h["Sigma0"], h, ("A0", "B0", "C0", "J", "K"))


def _equidistance_h(q, j, h):
    """F for Q = (x, y, w), J = (a, b, c), H = (h, k, m): the cross-multiplied
    |QJ|^2 - |QH|^2 of two _dist_sq_h pairs is w^3 F, so on exact (w > 0)
    Q is equidistant from J and H iff F == 0."""
    (x, y, w), (a, b, c), (h, k, m) = q, j, h
    return (2 * c * c * m * (h * x + k * y) - 2 * m * m * c * (a * x + b * y)
            + w * (m * m * (a * a + b * b) - c * c * (h * h + k * k)))


def _chk_q_equidistant(be, h, params):
    q = h["Q"]
    # certificate: F == 0, the distance difference without its w^3 (see _equidistance_h)
    if be.exact and _equidistance_h(q, h["J"], h["H"]) == 0:
        return None
    dj, dh = (geom._dist_sq_h(be, q, h[n]) for n in "JH")
    if not geom._same_value(be, dj, dh, scaled=True):
        return {"QJ^2": format_pair(be, *dj), "QH^2": format_pair(be, *dh)}
    return None


def _on_two_altitudes_h(be, q, p1, p2, p3) -> bool:
    """Whether p1p2p3 is a proper triangle and q is on its altitudes from p1
    and p2, (q - p1).(p3 - p2) = 0 and (q - p2).(p1 - p3) = 0: then q is its
    orthocentre, the one meet of those altitudes.  Exact tuples only."""
    if geom._collinear3_h(be, p1, p2, p3):
        return False
    (x, y, w), (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = q, p1, p2, p3
    ux, uy = x3 * w2 - x2 * w3, y3 * w2 - y2 * w3  # p3 - p2, over w2 w3
    vx, vy = x1 * w3 - x3 * w1, y1 * w3 - y3 * w1  # p1 - p3, over w3 w1
    return ((x * w1 - x1 * w) * ux + (y * w1 - y1 * w) * uy == 0
            and (x * w2 - x2 * w) * vx + (y * w2 - y2 * w) * vy == 0)


def _chk_q_is_image_of_h(be, h, params):
    q, images = h["Q"], [h[n] for n in ("A0", "B0", "C0")]
    expected = simson._similarity_h(be, params.t, h["H"])
    if not geom._same_h(be, q, expected):
        return {"Q": _point_text(be, q), "similarity(H)": _point_text(be, expected)}
    # certificate: Q on the altitudes from A0 and B0 of a proper triangle A0B0C0
    if be.exact and _on_two_altitudes_h(be, q, *images):
        return None
    ortho0 = geom._orthocentric_h(be, *images)[2]
    if not geom._same_h(be, ortho0, q):
        return {"orthocentre(A0B0C0)": _point_text(be, ortho0), "Q": _point_text(be, q)}
    return None


def _chk_similarity_ratio(be, h, params):
    j = h["J"]
    tn, td = params.t._ratio()
    ratio_n, ratio_d = td * td + 4 * tn * tn, td * td  # 1 + 4t^2
    for v in simson.VERTEX_ORDER:
        n0, d0 = geom._dist_sq_h(be, j, h[v + "0"])
        n, d = geom._dist_sq_h(be, j, h[v])
        lhs, rhs = (4 * n0, d0), (ratio_n * n, ratio_d * d)
        if not geom._same_value(be, lhs, rhs, scaled=True):
            return {"vertex": v, "4*|J->image|^2": format_pair(be, *lhs),
                    "(1+4t^2)*|J->vertex|^2": format_pair(be, *rhs)}
    return None


def _k_on_joins_h(be, h) -> bool:
    """Whether A, B, C and K lie on Sigma and each join of a vertex and its
    image passes through K != vertex: a line meets a circle at most twice,
    so K is then every join's second meet with Sigma.  Exact tuples only."""
    sigma, k = h["Sigma"], h["K"]
    vertices = [h[v] for v in simson.VERTEX_ORDER]
    if not all(geom._on_circle_h(be, sigma, p) for p in (*vertices, k)):
        return False
    for v, vertex in zip(simson.VERTEX_ORDER, vertices):
        image = h[v + "0"]
        if vertex == image or k == vertex or not geom._collinear3_h(be, vertex, image, k):
            return False
    return True


def _chk_perspector_common(be, h, params):
    # certificate: K on Sigma and on every join, away from its vertex
    if be.exact and _k_on_joins_h(be, h):
        return None
    for v in simson.VERTEX_ORDER:
        vertex = h[v]
        join = geom._line_through_h(be, vertex, h[v + "0"])
        second, _ = geom._second_line_circle_h(be, join, h["Sigma"], vertex)
        if not geom._same_h(be, second, h["K"]):
            return {"vertex": v, "second": _point_text(be, second), "K": _point_text(be, h["K"])}
    return None


def _chk_xyz_incidences(be, h, params):
    # puts X, Y, Z on S on exact, where S is about Q through J; on float S is through them
    plan = (("X", "altA", "cA"), ("Y", "altB", "cB"), ("Z", "altC", "cC"))
    for name, alt, circ in plan:
        p = h[name]
        if not geom._on_line_h(be, h[alt], p):
            return {"point": name, "off": alt}
        if not geom._on_circle_h(be, h[circ], p):
            return {"point": name, "off": circ}
        if not geom._on_circle_h(be, h["S"], p):
            return {"point": name, "off": "S"}
    return None


def _chk_hagge(be, h, params):
    # puts H on S on exact (centre Q and J hold by construction); on float also Q and J
    center = geom._center_h(be, h["S"])
    if not geom._same_h(be, center, h["Q"]):
        return {"center": _point_text(be, center), "Q": _point_text(be, h["Q"])}
    return _incidences_on_circle(be, h["S"], h, ("J", "H"))


def _on_line(be, h, point_name: str, line_name: str, key: str = "point"):
    p, line = h[point_name], h[line_name]
    if not geom._on_line_h(be, line, p):
        return {key: _point_text(be, p),
                "residual": format_pair(be, *geom._line_eval_h(be, line, p))}
    return None


def _chk_lmn_collinear(be, h, params):
    if not geom._collinear3_h(be, h["L"], h["M"], h["N"]):
        return {n: _point_text(be, h[n]) for n in "LMN"}
    return None


def _chk_reflection_route(be, h, params):
    plan = (("L", "imageSideB0C0"), ("M", "imageSideC0A0"), ("N", "imageSideA0B0"))
    for name, side in plan:
        reflected = geom._along_normal_h(be, h["J"], h[side], 2)
        if not geom._same_h(be, reflected, h[name]):
            return {"point": name, "radical-route": _point_text(be, h[name]),
                    "reflection-route": _point_text(be, reflected)}
    return None


def _reflections_on_line_h(be, sigma0, line, j, p, q, r) -> bool:
    """Whether p, q and r are distinct, j, p, q and r lie on sigma0, and the
    reflections of j in the lines qr, rp and pq lie on *line*, two of them
    distinct.  Then pqr is a triangle (three distinct points of a circle),
    j is on its circumcircle, and the line through its first two distinct
    reflections is *line*: the double-Simson line of j.  The reflections are
    left unreduced, (x s - m a, y s - m b, w s) with s = a^2 + b^2 and
    m = 2(a x + b y + c w) for j = (x, y, w) and the line (a, b, c) through
    two of the points.  Exact tuples only."""
    if p == q or q == r or r == p:
        return False
    if not all(geom._on_circle_h(be, sigma0, u) for u in (j, p, q, r)):
        return False
    (x, y, w), (la, lb, lc), refs = j, line, []
    for (x1, y1, w1), (x2, y2, w2) in ((q, r), (r, p), (p, q)):
        a, b, c = y1 * w2 - y2 * w1, x2 * w1 - x1 * w2, x1 * y2 - x2 * y1
        s, m = a * a + b * b, 2 * (a * x + b * y + c * w)
        ref = rx, ry, rw = x * s - m * a, y * s - m * b, w * s
        if la * rx + lb * ry + lc * rw != 0:
            return False
        refs.append(ref)
    return any(u[0] * v[2] != v[0] * u[2] or u[1] * v[2] != v[1] * u[2]
               for u, v in ((refs[0], refs[1]), (refs[0], refs[2])))


def _chk_double_simson_of_image(be, h, params):
    gws, j_and_images = h["gwsLine"], [h[n] for n in ("J", "A0", "B0", "C0")]
    # certificate: the image triangle on Sigma0 with J, and J's reflections on gwsLine
    if be.exact and _reflections_on_line_h(be, h["Sigma0"], gws, *j_and_images):
        return None
    line = simson._double_simson_h(be, *j_and_images)
    if not geom._same_h(be, line, gws):
        return {"double-simson": _line_text(be, line), "gwsLine": _line_text(be, gws)}
    return None


def _chk_equal_oblique_tangents(be, h, params):
    j = h["J"]
    plan = (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB"))
    tangents = []
    skipped = []
    for name, side in plan:
        p = h[name]
        if geom._same_h(be, p, j):
            skipped.append(name)
            continue
        tangents.append(
            (name, geom._directed_tan_h(be, geom._line_through_h(be, j, p), h[side])))
    for (n1, t1), (n2, t2) in zip(tangents, tangents[1:]):
        if not geom._tans_equal(be, t1, t2):
            return {"pair": f"{n1},{n2}", n1: _tan_text(be, t1), n2: _tan_text(be, t2)}
    if skipped:
        # vacuous (or reduced) comparison is a pass; record what was skipped
        return {"note": "skipped points at J: " + ",".join(skipped), "_pass": "1"}
    return None


# each chain with the vertex circle that carries it, and each circle's five points
_CONCYCLIC_CHAINS = (
    (("J", "L", "B", "Y"), "cB"), (("J", "L", "C", "Z"), "cC"),
    (("J", "M", "C", "Z"), "cC"), (("J", "M", "A", "X"), "cA"),
    (("J", "N", "A", "X"), "cA"), (("J", "N", "B", "Y"), "cB"),
)
_VERTEX_CIRCLE_POINTS = {"cA": ("J", "A", "X", "M", "N"), "cB": ("J", "B", "Y", "L", "N"),
                         "cC": ("J", "C", "Z", "L", "M")}


def _chk_concyclic_chains(be, h, params):
    # certificate: the chain's vertex circle (v > 0) holds its four points
    held = {}
    if be.exact:
        held = {c: all(geom._on_circle_h(be, h[c], h[n]) for n in names)
                for c, names in _VERTEX_CIRCLE_POINTS.items()}
    for chain, circle in _CONCYCLIC_CHAINS:
        if not held.get(circle) and not geom._concyclic4_h(be, *(h[n] for n in chain)):
            return {"chain": ",".join(chain)}
    return None


def _chk_t_zero_reduction(be, h, params):
    if not be.is_zero(params.t._ratio()[0]):
        return {"note": "not applicable: t != 0", "_pass": "1"}
    j = h["J"]
    plan = (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB"))
    feet = []
    for name, side in plan:
        foot = geom._along_normal_h(be, j, h[side], 1)
        feet.append(foot)
        if not geom._same_h(be, foot, h[name]):
            return {"point": name, "foot": _point_text(be, foot),
                    "scene": _point_text(be, h[name])}
    mid = geom._midpoint_h(be, j, h["H"])
    if not geom._same_h(be, mid, h["Q"]):
        return {"midpoint(J,H)": _point_text(be, mid), "Q": _point_text(be, h["Q"])}
    classical = simson._line_through_collinear_h(be, *feet)
    if not geom._same_h(be, classical, h["gwsLine"]):
        return {"classical": _line_text(be, classical),
                "gwsLine": _line_text(be, h["gwsLine"])}
    return None


def _chk_double_simson_abc(be, h, params):
    line = simson._double_simson_h(be, *(h[n] for n in ("J", "A", "B", "C")))
    if not geom._on_line_h(be, line, h["H"]):
        return {"line": _line_text(be, line), "H": _point_text(be, h["H"])}
    return None


_CHECK_IMPLS = {
    "on_circumcircle": _chk_on_circumcircle,
    "sigma0_through_J_and_K": _chk_sigma0,
    "q_equidistant": _chk_q_equidistant,
    "q_is_image_of_H": _chk_q_is_image_of_h,
    "similarity_ratio": _chk_similarity_ratio,
    "perspector_common": _chk_perspector_common,
    "xyz_incidences": _chk_xyz_incidences,
    "hagge_center_and_members": _chk_hagge,
    "L_on_BC": lambda be, h, params: _on_line(be, h, "L", "sideBC"),
    "M_on_CA": lambda be, h, params: _on_line(be, h, "M", "sideCA"),
    "N_on_AB": lambda be, h, params: _on_line(be, h, "N", "sideAB"),
    "lmn_collinear": _chk_lmn_collinear,
    "q_on_line": lambda be, h, params: _on_line(be, h, "Q", "gwsLine", "Q"),
    "reflection_route_equals_radical_route": _chk_reflection_route,
    "line_equals_double_simson_of_image": _chk_double_simson_of_image,
    "equal_oblique_tangents": _chk_equal_oblique_tangents,
    "concyclic_chains_thm41": _chk_concyclic_chains,
    "t_zero_reduction": _chk_t_zero_reduction,
    "double_simson_of_ABC_through_H": _chk_double_simson_abc,
}

CHECK_NAMES = tuple(_CHECK_IMPLS)


def run_checks(scene: Scene) -> Report:
    """Run all named checks; failures become results, never exceptions.

    The scene's tuples are read once, into one map from name to canonical
    tuple (point, line and circle names are disjoint), and each check is
    called as check(backend, tuples, params); no object is written."""
    be, maps = scene.backend, (scene.points, scene.lines, scene.circles)
    try:  # the checks compute on the tuples of the scene's one backend
        for objects in maps:
            if objects.backend is not be:
                geom._shared_backend(be, map(objects.backend_of, objects))
        mismatch = None
    except BackendMismatch as exc:
        mismatch = exc
    h = {**maps[0]._h, **maps[1]._h, **maps[2]._h}
    results: List[CheckResult] = []
    for name, check in _CHECK_IMPLS.items():
        try:
            if mismatch is not None:
                raise mismatch
            witness = check(be, h, scene.params)
        except GeometryError as exc:
            results.append(CheckResult(name, False, {"error": str(exc)}))
            continue
        if witness is None:
            results.append(CheckResult(name, True))
        elif witness.pop("_pass", None):
            results.append(CheckResult(name, True, witness))
        else:
            results.append(CheckResult(name, False, witness))
    return Report(
        backend=be.name,
        params=params_echo(scene.params),
        flags=scene.flags,
        results=tuple(results),
    )


# -- seeded fuzzing ------------------------------------------------------------------


class SplitMix64:
    """SplitMix64: the fixed 64-bit generator behind all randomized runs.

    state := (state + 0x9E3779B97F4A7C15) mod 2^64, then the output mixes
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31 (all mod 2^64).  The stream, and
    the derivations below, are part of the package's reproducibility contract.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def rational(self, max_num: int, max_den: int) -> Fraction:
        """numerator uniform in [-max_num, max_num], denominator in [1, max_den]."""
        num = self.below(2 * max_num + 1) - max_num
        den = self.below(max_den) + 1
        return Fraction(num, den)


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    count: int
    max_numerator: int = 10
    max_denominator: int = 10
    include_t_zero: bool = False

    def __post_init__(self):
        for name in ("seed", "count", "max_numerator", "max_denominator"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {type(value).__name__}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.max_numerator < 1 or self.max_denominator < 1:
            raise ValueError("magnitudes must be >= 1")


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    reports: Tuple[Report, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.all_pass for r in self.reports)

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.reports if r.all_pass)

    def summary(self) -> str:
        return f"{self.pass_count}/{len(self.reports)} pass"


def _draw_params(rng: SplitMix64, config: FuzzConfig, force_t_zero: bool) -> Params:
    draw = lambda: rng.rational(config.max_numerator, config.max_denominator)
    a = draw()
    b = draw()
    while b == a:
        b = draw()
    c = draw()
    while c == a or c == b:
        c = draw()
    t = Fraction(0) if force_t_zero else draw()
    return Params.make(a, b, c, t, backend=EXACT)


def _instances(config: FuzzConfig) -> Iterator[Tuple[int, Params]]:
    """The seeded (index, params) instances, drawn one at a time.

    No draw is ever skipped, because H = J cannot happen.  With u_k the unit
    vectors from O to the vertices, H - O = u1 + u2 + u3 = s, and J - O = -1,
    so H = J means s = -1.  For unit vectors (u1+u2)(u2+u3)(u3+u1) = s*e2 - e3
    and e2 = e3*conj(s), which at s = -1 give (-1)(-e3) - e3 = 0.  So two of
    the u's cancel and the third is -1, which puts a vertex at J; but every
    vertex (2, 2p)/(1 + p^2) has x > 0.
    """
    rng = SplitMix64(config.seed)
    for i in range(config.count):
        yield i, _draw_params(rng, config, config.include_t_zero and i == 0)


def fuzz_instances(config: FuzzConfig) -> Tuple[List[Tuple[int, Params, Scene]], List[str]]:
    """Deterministically generate `count` (index, params, scene) instances.
    The second value is always empty, as no draw is skipped (see _instances)."""
    return [(i, p, simson.build_scene(p)) for i, p in _instances(config)], []


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Build and check `count` seeded random instances; deterministic by seed.
    Each scene is checked as it is built and only its report is kept."""
    reports = tuple(run_checks(simson.build_scene(p)) for _, p in _instances(config))
    return FuzzReport(config=config, reports=reports)


# -- audit of the handed-down closed forms ----------------------------------------


def _printed_vertex_line(P, T, D):
    # (p - 2t) x - (1 + 2pt) y + 4t = 0
    return (P - 2 * T) * D, -(D * D + 2 * P * T), 4 * T * D


def _printed_vertex_circle(P, T, D):
    return -2 * (D * D - 2 * P * T), -2 * (P + 2 * T) * D, 0, D * D + P * P


def _printed_orthocenter(A, B, C, D):
    A2, B2, C2 = A * A, B * B, C * C
    D2 = D * D
    D4 = D2 * D2
    den = (D2 + A2) * (D2 + B2) * (D2 + C2)
    x = 2 * ((2 * D2 + A2 + B2 + C2) * D4 - 2 * A2 * B2 * C2)
    y = 2 * ((A + B + C) * D4
             + A * B2 * C2 + B * C2 * A2 + C * A2 * B2
             + A * B2 * D2 + A * C2 * D2 + B * C2 * D2
             + B * A2 * D2 + C * A2 * D2 + C * B2 * D2) * D
    return x, y, den


def _printed_altitude_coeffs(be, A, B, C, D):
    # (1+a^2)(b+c) x - (1+a^2)(1-bc) y + 2(a+b+c-abc) = 0, the altitude from A
    D2, lead = D * D, D * D + A * A
    D3 = D2 * D
    return (geom._ratio_of(be, lead * (B + C), D3),
            geom._ratio_of(be, -lead * (D2 - B * C), D3 * D),
            geom._ratio_of(be, 2 * ((A + B + C) * D2 - A * B * C), D3))


def _printed_xyz(O, Q, R, T, D):
    D2 = D * D
    den = (D2 + O * O) * (D2 + Q * Q) * (D2 + R * R)
    lead = O * Q * R - O * D2 + Q * D2 + R * D2
    x = 2 * ((Q + R + 2 * T) * D2 - 2 * Q * R * T) * lead
    y = 2 * lead * (Q * R + 2 * T * (Q + R) - D2) * D
    return x, y, den


def _printed_hagge(A, B, C, T, D):
    A2, B2, C2 = A * A, B * B, C * C
    D2 = D * D
    D4 = D2 * D2
    D6 = D4 * D2
    den = (D2 + A2) * (D2 + B2) * (D2 + C2)
    sym = A2 * B + A2 * C + B2 * C + B2 * A + C2 * A + C2 * B
    ee = B * C + C * A + A * B
    xb = (A2 * B2 * C2 + 2 * A * B * C * T * ee + 2 * T * sym * D2
          + 2 * T * (A + B + C) * D4 - A2 * D4 - B2 * D4 - C2 * D4 - 2 * D6)
    yb = (2 * A2 * B2 * C2 * T - A * B * C * ee * D2 - 2 * T * (A2 + B2 + C2) * D4
          - sym * D4 - (A + B + C + 4 * T) * D6)
    # d = 2 xb / den and e = 2 yb / (den D), over the common weight den D
    return 2 * xb * D, 2 * yb, 0, den * D


def _audit_eq23(be, stage, num):
    *_, T, D = num
    for v, own, _, _ in simson._by_vertex(*num[:3]):
        printed, built = geom._line_h(be, *_printed_vertex_line(own, T, D)), stage[v + v + "0"]
        if not geom._same_h(be, printed, built):
            return {"vertex": v, "printed": _line_text(be, printed),
                    "constructive": _line_text(be, built)}
    return None


def _audit_eq24(be, stage, num):
    *_, T, D = num
    for v, own, _, _ in simson._by_vertex(*num[:3]):
        printed, built = geom._circle_h(be, *_printed_vertex_circle(own, T, D)), stage["c" + v]
        if not geom._same_h(be, printed, built):
            return {"vertex": v, "printed": _circle_text(be, printed),
                    "constructive": _circle_text(be, built)}
    return None


def _audit_eq25(be, stage, num) -> Tuple[Optional[dict], Optional[dict]]:
    """Compare the printed orthocentre with the stage's H, coordinate by
    coordinate; scale-free, so H's tuple need not be canonical."""
    A, B, C, _, D = num
    (px, py, pw), (bx, by, bw) = geom._point_h(be, *_printed_orthocenter(A, B, C, D)), stage["H"]
    wx = wy = None
    if not geom._same_value(be, (px, pw), (bx, bw), scaled=True):
        wx = {"printed": format_pair(be, px, pw), "constructive": format_pair(be, bx, bw)}
    if not geom._same_value(be, (py, pw), (by, bw), scaled=True):
        wy = {"printed": format_pair(be, py, pw), "constructive": format_pair(be, by, bw)}
    return wx, wy


def _audit_eq26(be, stage, num) -> Tuple[Optional[dict], Optional[dict]]:
    """Compare the printed altitude-from-A coefficients with the construction.

    Only the altitude from A is audited: that is the one equation actually
    written down (its cyclic siblings are not, and would contribute their own
    separate coincidence conditions).  The constructive altitude is rescaled
    so its (x, y) coefficients agree with the printed ones; the verdicts are
    (coefficient proportionality, constant term after that rescaling).  Both
    verdicts, and the constant term's witness, are scale-free; the
    coefficients' witness writes the stage's altA as it is.
    """
    A, B, C, _, D = num
    pa, pb, pc = _printed_altitude_coeffs(be, A, B, C, D)
    (rn, rd), (sn, sd) = pa, pb
    built = ba, bb, bc = stage["altA"]
    if not geom._same_value(be, (rn * bb, rd), (sn * ba, sd), scaled=True):
        wcoef = {"printed": f"[{format_pair(be, *pa)}, {format_pair(be, *pb)}]",
                 "constructive": _line_text(be, built)}
        return wcoef, None
    # lambda = pa/ba (or pb/bb when ba = 0), divided out before it scales the
    # constant term: the float result depends on that order
    ln, ld = (geom._ratio_of(be, rn, rd * ba) if not be.is_zero(ba)
              else geom._ratio_of(be, sn, sd * bb))
    scaled = ln * bc, ld
    if not geom._same_value(be, pc, scaled, scaled=True):
        return None, {"printed": format_pair(be, *pc), "constructive": format_pair(be, *scaled)}
    return None, None


def _audit_eq27(be, stage, num):
    *_, T, D = num
    for (v, own, q, r), n in zip(simson._by_vertex(*num[:3]), "XYZ"):
        printed = geom._point_h(be, *_printed_xyz(own, q, r, T, D))
        if not geom._same_h(be, printed, stage[n]):
            return {"vertex": v, "printed": _point_text(be, printed),
                    "constructive": _point_text(be, stage[n])}
    return None


def _audit_eq28(be, stage, num):
    printed, built = geom._circle_h(be, *_printed_hagge(*num)), stage["S"]
    if not geom._same_h(be, printed, built):
        return {"printed": _circle_text(be, printed), "constructive": _circle_text(be, built)}
    return None


def _stage_witnesses(be, params: Params, num) -> tuple:
    """The rows' witnesses, each row comparing its canonical printed
    object with the construction stage's."""
    stage, _ = simson.construct_core(params)
    w25, w26 = _audit_eq25(be, stage, num), _audit_eq26(be, stage, num)
    return (_audit_eq23(be, stage, num), _audit_eq24(be, stage, num), *w25, *w26,
            _audit_eq27(be, stage, num), _audit_eq28(be, stage, num))


# -- the certificates of the exact audit: integer tests on homogeneous values,
# J the origin; each fixes the constructive object uniquely


def _through_both(line, p, q) -> bool:
    """Whether the line (a, b, c), (a, b) != (0, 0), holds p and q: for
    p != q it is then their join, the one line through both."""
    (a, b, c), (x1, y1, w1), (x2, y2, w2) = line, p, q
    return ((a != 0 or b != 0) and a * x1 + b * y1 + c * w1 == 0
            and a * x2 + b * y2 + c * w2 == 0)


def _about_through_j(circle, center) -> bool:
    """Whether the circle (d, e, f, v), v != 0, is the one about *center*
    through J: f = 0, and its centre (-d, -e)/2v is center, cross-multiplied.
    For a centre other than J that circle is unique and proper."""
    (d, e, f, v), (x, y, w) = circle, center
    return v != 0 and f == 0 and -d * w == 2 * v * x and -e * w == 2 * v * y


def _second_meet(point, vertex, q, r, image) -> bool:
    """Whether *point* is on the altitude from *vertex* of the triangle
    (vertex, q, r), (P - V).(r - q) = 0, on the circle about *image* through
    J, |P|^2 = 2 P.image, and differs from the vertex.  The vertex is on
    both, and a line meets a circle at most twice, so the point is then
    their other meet.  A point of weight 0 fails: on the circle it is
    (0, 0, 0), which the last test takes for the vertex."""
    (x, y, w), (vx, vy, vw), (qx, qy, qw), (rx, ry, rw), (ix, iy, iw) = (
        point, vertex, q, r, image)
    dx, dy = x * vw - vx * w, y * vw - vy * w  # P - V, over w vw
    return (dx * (rx * qw - qx * rw) + dy * (ry * qw - qy * rw) == 0
            and (x * x + y * y) * iw == 2 * (x * ix + y * iy) * w
            and (dx != 0 or dy != 0))


def _certified_witnesses(be, params: Params, num) -> Optional[tuple]:
    """The rows' witnesses decided without the construction stage, or None
    where a certificate does not pass; exact only.  H = A + B + C - 2O
    (Sylvester's relation, for O = (1, 0) and R = 1), certified as the
    orthocentre on two altitudes, and Q = sim(H).  The vertex-image line
    holds the vertex and its image, which differ, as the similarity fixes
    only J and a vertex is never J; the vertex circle and the Hagge circle
    are about the image and Q through J (Q is not J, as H is not, see
    _instances); X, Y and Z are the second meets of their altitudes and
    vertex circles.  eq2.5 and eq2.6 compare pairs, scale-free, with that H
    and the unreduced altitude from A, normal C - B through A; an eq2.6
    coefficient mismatch, whose witness writes the stage's altA, is left to
    the stage."""
    *abc, T, D = num
    t, verts = params.t, [simson._vertex_h(be, p) for p in (params.a, params.b, params.c)]
    (ax, ay, aw), (bx, by, bw), (cx, cy, cw) = verts
    wbc = bw * cw
    w = aw * wbc
    h = ax * wbc + (bx * cw + cx * bw) * aw - 2 * w, ay * wbc + (by * cw + cy * bw) * aw, w
    if not _on_two_altitudes_h(be, h, *verts):
        return None
    images = [simson._similarity_h(be, t, v) for v in verts]
    for (_, own, *others), (_, vert, q, r), image in zip(
            simson._by_vertex(*abc), simson._by_vertex(*verts), images):
        if not (_through_both(_printed_vertex_line(own, T, D), vert, image)
                and _about_through_j(_printed_vertex_circle(own, T, D), image)
                and _second_meet(_printed_xyz(own, *others, T, D), vert, q, r, image)):
            return None
    if not _about_through_j(_printed_hagge(*num), simson._similarity_h(be, t, h)):
        return None
    ux, uy = cx * bw - bx * cw, cy * bw - by * cw  # C - B, over bw cw
    part = {"H": h, "altA": (ux * aw, uy * aw, -(ux * ax + uy * ay))}  # what eq2.5, eq2.6 read
    wcoef, wconst = _audit_eq26(be, part, num)
    if wcoef is not None:
        return None
    return (None, None, *_audit_eq25(be, part, num), None, wconst, None, None)


def audit_printed_formulas(params: Params) -> Report:
    """Per-equation MATCH/MISMATCH verdicts (passed=True means MATCH).
    On exact the certificates decide where they pass; the stage decides
    otherwise, and on float."""
    be = params.backend
    num = geom._over_common(params.a, params.b, params.c, params.t)
    witnesses = _certified_witnesses(be, params, num) if be.exact else None
    if witnesses is None:
        witnesses = _stage_witnesses(be, params, num)
    results = tuple(CheckResult(name, witness is None, witness)
                    for name, witness in zip(AUDIT_NAMES, witnesses))
    return Report(backend=be.name, params=params_echo(params), flags=(), results=results)
