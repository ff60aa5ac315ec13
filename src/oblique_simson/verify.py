"""Named theorem checks over a Scene, a seeded fuzzer, and the formula audit.

Every check re-derives its assertion from the scene contents, and each of the
paper's identities has its verdict here only: ``build_scene`` builds the
objects without asserting them.  A check composes geom's tuple functions on
the ``_h`` tuples of the scene's objects and builds objects only for a
failure's witness, so a passing check builds no Point, Line, Circle or
Scalar.  A deliberately corrupted scene, or a float instance whose tolerance
misses an identity, therefore produces FAIL results with witnesses rather
than exceptions.  On the exact backend a failing check
on a validly built scene is always a defect: the fuzz run is a randomized
polynomial-identity test over the rationals.

The audit evaluates the closed-form coefficient formulas handed down for this
construction (rows Eq2.3-Eq2.8) against the constructive objects, which it
reads from :func:`simson.construct_core` (the checks above re-derive from the
scene alone).  Two of them disagree with the construction on generic
instances - the orthocentre x-coordinate (off by a -2a^2b^2c^2 vs -a^2b^2c^2
term) and the altitude constant term (off by 4(b+c)) - and the audit
documents exactly that, per instance, without guessing intent.  Each closed
form is one homogeneous formula for both backends: its parameters are read
over one common denominator D (``_over_common``: integers over the lcm of
their denominators on exact, so p = P/D, and the floats over D = 1.0 on
float), and each term of the float formula, kept in its float order, is
brought to the formula's top degree by a power of D.  A product with 1.0 is
exact, so the float results keep every bit, and on exact the formula runs
on integers.  Results go through geom's writers and ``Backend.div``, and the
eq2.5 and eq2.6 rows compare (n, d) pairs with ``geom._same_value``, by
integer cross-multiplication on exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import geom, simson
from .errors import BackendMismatch, GeometryError, JEqualsH
from .geom import Circle, Line, Point
from .numeric import EXACT, Scalar, format_scalar
from .simson import Core, Params, Scene

# one per audit row, in order; eq2.5 and eq2.6 each give two verdicts
AUDIT_NAMES = (
    "eq2.3", "eq2.4", "eq2.5.x", "eq2.5.y",
    "eq2.6.coeffs", "eq2.6.const", "eq2.7", "eq2.8",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[Dict[str, str]] = None


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


_fmt = format_scalar


def _fmt_point(p: Point) -> str:
    return f"({_fmt(p.x)}, {_fmt(p.y)})"


def _fmt_line(l: Line) -> str:
    return f"[{_fmt(l.a)}, {_fmt(l.b)}, {_fmt(l.c)}]"


def _fmt_circle(c: Circle) -> str:
    return f"[{_fmt(c.d)}, {_fmt(c.e)}, {_fmt(c.f)}]"


def params_echo(params: Params) -> Dict[str, str]:
    return {n: _fmt(getattr(params, n)) for n in ("a", "b", "c", "t")}


# -- the nineteen named checks ---------------------------------------------------


def _fmt_h(be, h) -> str:
    return _fmt_point(geom._hom_point(be, *h))


def _incidences_on_circle(be, circle: Circle, named: Sequence[Tuple[str, Point]]):
    for name, p in named:
        if not geom._on_circle_h(be, circle._h, p._h):
            return {"point": name, "residual": _fmt(geom.circle_eval(circle, p))}
    return None


def _chk_on_circumcircle(scene: Scene):
    pts = scene.points
    return _incidences_on_circle(
        scene.backend, scene.circles["Sigma"],
        [(n, pts[n]) for n in ("A", "B", "C", "K")],
    )


def _chk_sigma0(scene: Scene):
    pts = scene.points
    return _incidences_on_circle(
        scene.backend, scene.circles["Sigma0"],
        [(n, pts[n]) for n in ("A0", "B0", "C0", "J", "K")],
    )


def _chk_q_equidistant(scene: Scene):
    pts, be = scene.points, scene.backend
    dj, dh = (geom._dist_sq_h(be, pts["Q"]._h, pts[n]._h) for n in "JH")
    if not geom._same_value(be, dj, dh, scaled=True):
        return {"QJ^2": _fmt(Scalar(be, be.div(*dj))), "QH^2": _fmt(Scalar(be, be.div(*dh)))}
    return None


def _chk_q_is_image_of_h(scene: Scene):
    pts, be = scene.points, scene.backend
    q = pts["Q"]._h
    expected = simson._similarity_h(be, scene.params.t, pts["H"]._h)
    if not geom._same_h(be, q, expected):
        return {"Q": _fmt_point(pts["Q"]), "similarity(H)": _fmt_h(be, expected)}
    ortho0 = geom._orthocentric_h(be, *(pts[n]._h for n in ("A0", "B0", "C0")))[2]
    if not geom._same_h(be, ortho0, q):
        return {"orthocentre(A0B0C0)": _fmt_h(be, ortho0), "Q": _fmt_point(pts["Q"])}
    return None


def _chk_similarity_ratio(scene: Scene):
    pts, be = scene.points, scene.backend
    j = pts["J"]._h
    tn, td = scene.params.t._ratio()
    ratio_n, ratio_d = td * td + 4 * tn * tn, td * td  # 1 + 4t^2
    for v in simson.VERTEX_ORDER:
        n0, d0 = geom._dist_sq_h(be, j, pts[v + "0"]._h)
        n, d = geom._dist_sq_h(be, j, pts[v]._h)
        lhs, rhs = (4 * n0, d0), (ratio_n * n, ratio_d * d)
        if not geom._same_value(be, lhs, rhs, scaled=True):
            return {"vertex": v, "4*|J->image|^2": _fmt(Scalar(be, be.div(*lhs))),
                    "(1+4t^2)*|J->vertex|^2": _fmt(Scalar(be, be.div(*rhs)))}
    return None


def _chk_perspector_common(scene: Scene):
    pts, be = scene.points, scene.backend
    sigma, k = scene.circles["Sigma"]._h, pts["K"]._h
    for v in simson.VERTEX_ORDER:
        vertex = pts[v]._h
        join = geom._line_through_h(be, vertex, pts[v + "0"]._h)
        second, _ = geom._second_line_circle_h(be, join, sigma, vertex)
        if not geom._same_h(be, second, k):
            return {"vertex": v, "second": _fmt_h(be, second), "K": _fmt_point(pts["K"])}
    return None


def _chk_xyz_incidences(scene: Scene):
    pts, be = scene.points, scene.backend
    s = scene.circles["S"]._h
    plan = (("X", "altA", "cA"), ("Y", "altB", "cB"), ("Z", "altC", "cC"))
    for name, alt, circ in plan:
        p = pts[name]._h
        if not geom._on_line_h(be, scene.lines[alt]._h, p):
            return {"point": name, "off": alt}
        if not geom._on_circle_h(be, scene.circles[circ]._h, p):
            return {"point": name, "off": circ}
        if not geom._on_circle_h(be, s, p):
            return {"point": name, "off": "S"}
    return None


def _chk_hagge(scene: Scene):
    pts, be = scene.points, scene.backend
    s = scene.circles["S"]
    center = geom._center_h(be, s._h)
    if not geom._same_h(be, center, pts["Q"]._h):
        return {"center": _fmt_h(be, center), "Q": _fmt_point(pts["Q"])}
    return _incidences_on_circle(be, s, [("J", pts["J"]), ("H", pts["H"])])


def _on_side(scene: Scene, point_name: str, side_name: str):
    p = scene.points[point_name]
    side = scene.lines[side_name]
    if not geom._on_line_h(scene.backend, side._h, p._h):
        return {"point": _fmt_point(p), "residual": _fmt(geom.line_eval(side, p))}
    return None


def _chk_lmn_collinear(scene: Scene):
    pts = scene.points
    if not geom._collinear3_h(scene.backend, pts["L"]._h, pts["M"]._h, pts["N"]._h):
        return {"L": _fmt_point(pts["L"]), "M": _fmt_point(pts["M"]),
                "N": _fmt_point(pts["N"])}
    return None


def _chk_q_on_line(scene: Scene):
    q = scene.points["Q"]
    line = scene.lines["gwsLine"]
    if not geom._on_line_h(scene.backend, line._h, q._h):
        return {"Q": _fmt_point(q), "residual": _fmt(geom.line_eval(line, q))}
    return None


def _chk_reflection_route(scene: Scene):
    pts, be = scene.points, scene.backend
    j = pts["J"]._h
    plan = (("L", "imageSideB0C0"), ("M", "imageSideC0A0"), ("N", "imageSideA0B0"))
    for name, side in plan:
        reflected = geom._along_normal_h(be, j, scene.lines[side]._h, 2)
        if not geom._same_h(be, reflected, pts[name]._h):
            return {"point": name, "radical-route": _fmt_point(pts[name]),
                    "reflection-route": _fmt_h(be, reflected)}
    return None


def _chk_double_simson_of_image(scene: Scene):
    pts, be = scene.points, scene.backend
    line = simson._double_simson_h(be, *(pts[n]._h for n in ("J", "A0", "B0", "C0")))
    gws = scene.lines["gwsLine"]
    if not geom._line_is(be, line, gws):
        return {"double-simson": _fmt_line(geom._line_of(be, line)),
                "gwsLine": _fmt_line(gws)}
    return None


def _chk_equal_oblique_tangents(scene: Scene):
    pts, be = scene.points, scene.backend
    j = pts["J"]._h
    plan = (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB"))
    tangents = []
    skipped = []
    for name, side in plan:
        p = pts[name]._h
        if geom._same_h(be, p, j):
            skipped.append(name)
            continue
        tangents.append(
            (name, geom._directed_tan_h(be, geom._line_through_h(be, j, p),
                                        scene.lines[side]._h)))
    for (n1, t1), (n2, t2) in zip(tangents, tangents[1:]):
        if not geom._tans_equal(be, t1, t2):
            return {"pair": f"{n1},{n2}", n1: repr(geom._tan_of(be, t1)),
                    n2: repr(geom._tan_of(be, t2))}
    if skipped:
        # vacuous (or reduced) comparison is a pass; record what was skipped
        return {"note": "skipped points at J: " + ",".join(skipped), "_pass": "1"}
    return None


_CONCYCLIC_CHAINS = (
    ("J", "L", "B", "Y"), ("J", "L", "C", "Z"),
    ("J", "M", "C", "Z"), ("J", "M", "A", "X"),
    ("J", "N", "A", "X"), ("J", "N", "B", "Y"),
)


def _chk_concyclic_chains(scene: Scene):
    pts, be = scene.points, scene.backend
    for chain in _CONCYCLIC_CHAINS:
        if not geom._concyclic4_h(be, *(pts[n]._h for n in chain)):
            return {"chain": ",".join(chain)}
    return None


def _chk_t_zero_reduction(scene: Scene):
    pts, be = scene.points, scene.backend
    if not be.is_zero(scene.params.t.value):
        return {"note": "not applicable: t != 0", "_pass": "1"}
    j = pts["J"]._h
    plan = (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB"))
    feet = []
    for name, side in plan:
        foot = geom._along_normal_h(be, j, scene.lines[side]._h, 1)
        feet.append(foot)
        if not geom._same_h(be, foot, pts[name]._h):
            return {"point": name, "foot": _fmt_h(be, foot),
                    "scene": _fmt_point(pts[name])}
    mid = geom._midpoint_h(be, j, pts["H"]._h)
    if not geom._same_h(be, mid, pts["Q"]._h):
        return {"midpoint(J,H)": _fmt_h(be, mid), "Q": _fmt_point(pts["Q"])}
    classical = simson._line_through_collinear_h(be, *feet)
    gws = scene.lines["gwsLine"]
    if not geom._line_is(be, classical, gws):
        return {"classical": _fmt_line(geom._line_of(be, classical)),
                "gwsLine": _fmt_line(gws)}
    return None


def _chk_double_simson_abc(scene: Scene):
    pts, be = scene.points, scene.backend
    line = simson._double_simson_h(be, *(pts[n]._h for n in ("J", "A", "B", "C")))
    if not geom._on_line_h(be, line, pts["H"]._h):
        return {"line": _fmt_line(geom._line_of(be, line)), "H": _fmt_point(pts["H"])}
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
    "L_on_BC": lambda s: _on_side(s, "L", "sideBC"),
    "M_on_CA": lambda s: _on_side(s, "M", "sideCA"),
    "N_on_AB": lambda s: _on_side(s, "N", "sideAB"),
    "lmn_collinear": _chk_lmn_collinear,
    "q_on_line": _chk_q_on_line,
    "reflection_route_equals_radical_route": _chk_reflection_route,
    "line_equals_double_simson_of_image": _chk_double_simson_of_image,
    "equal_oblique_tangents": _chk_equal_oblique_tangents,
    "concyclic_chains_thm41": _chk_concyclic_chains,
    "t_zero_reduction": _chk_t_zero_reduction,
    "double_simson_of_ABC_through_H": _chk_double_simson_abc,
}

CHECK_NAMES = tuple(_CHECK_IMPLS)


def run_checks(scene: Scene) -> Report:
    """Run all named checks; failures become results, never exceptions."""
    results: List[CheckResult] = []
    try:  # the checks compute on the tuples of the scene's one backend
        geom._common_backend(scene.params.a, *scene.points.values(),
                             *scene.lines.values(), *scene.circles.values())
        mismatch = None
    except BackendMismatch as exc:
        mismatch = exc
    for name, check in _CHECK_IMPLS.items():
        try:
            if mismatch is not None:
                raise mismatch
            witness = check(scene)
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
        backend=scene.backend.name,
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
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.max_numerator < 1 or self.max_denominator < 1:
            raise ValueError("magnitudes must be >= 1")


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    reports: Tuple[Report, ...]
    skips: Tuple[str, ...]

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


def fuzz_instances(config: FuzzConfig) -> Tuple[List[Tuple[int, Params, Scene]], List[str]]:
    """Deterministically generate `count` valid (params, scene) instances.

    Parameter collisions are resampled; a (theoretically unreachable) H = J
    instance is skipped with a note and replaced.
    """
    rng = SplitMix64(config.seed)
    out: List[Tuple[int, Params, Scene]] = []
    skips: List[str] = []
    index = 0
    while len(out) < config.count:
        force_t_zero = config.include_t_zero and index == 0
        params = _draw_params(rng, config, force_t_zero)
        index += 1
        try:
            scene = simson.build_scene(params)
        except JEqualsH:
            skips.append(
                "skip (H = J): " + " ".join(
                    f"{k}={v}" for k, v in params_echo(params).items()))
            continue
        out.append((len(out), params, scene))
    return out, skips


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Build and check `count` seeded random instances; deterministic by seed."""
    instances, skips = fuzz_instances(config)
    reports = tuple(run_checks(scene) for _, _, scene in instances)
    return FuzzReport(config=config, reports=reports, skips=tuple(skips))


# -- audit of the handed-down closed forms ----------------------------------------


def _over_common(*values: Scalar) -> Tuple:
    """The values as N_i over one D, (N_1, ..., N_k, D) with value_i = N_i / D:
    integers over the lcm of the denominators on exact, the floats over 1.0
    on float."""
    if not values[0].backend.exact:
        return (*(v.value for v in values), 1.0)
    fracs = [v.value for v in values]
    d = math.lcm(*(f.denominator for f in fracs))
    return (*(f.numerator * (d // f.denominator) for f in fracs), d)


def _printed_vertex_line(p: Scalar, t: Scalar) -> Line:
    # (p - 2t) x - (1 + 2pt) y + 4t = 0
    P, T, D = _over_common(p, t)
    return geom._line(p.backend, (P - 2 * T) * D, -(D * D + 2 * P * T), 4 * T * D)


def _printed_vertex_circle(p: Scalar, t: Scalar) -> Circle:
    be = p.backend
    P, T, D = _over_common(p, t)
    den = D * D + P * P
    return Circle(Scalar(be, be.div(-2 * (D * D - 2 * P * T), den)),
                  Scalar(be, be.div(-2 * (P + 2 * T) * D, den)), be.scalar(0))


def _printed_orthocenter(a: Scalar, b: Scalar, c: Scalar) -> Point:
    A, B, C, D = _over_common(a, b, c)
    A2, B2, C2 = A * A, B * B, C * C
    D2 = D * D
    D4 = D2 * D2
    den = (D2 + A2) * (D2 + B2) * (D2 + C2)
    x = 2 * ((2 * D2 + A2 + B2 + C2) * D4 - 2 * A2 * B2 * C2)
    y = 2 * ((A + B + C) * D4
             + A * B2 * C2 + B * C2 * A2 + C * A2 * B2
             + A * B2 * D2 + A * C2 * D2 + B * C2 * D2
             + B * A2 * D2 + C * A2 * D2 + C * B2 * D2) * D
    return geom._hom_point(a.backend, x, y, den)


def _printed_altitude_coeffs(params: Params) -> Tuple[Scalar, Scalar, Scalar]:
    # (1+a^2)(b+c) x - (1+a^2)(1-bc) y + 2(a+b+c-abc) = 0, the altitude from A
    be = params.backend
    A, B, C, D = _over_common(params.a, params.b, params.c)
    D2, lead = D * D, D * D + A * A
    D3 = D2 * D
    return (Scalar(be, be.div(lead * (B + C), D3)),
            Scalar(be, be.div(-lead * (D2 - B * C), D3 * D)),
            Scalar(be, be.div(2 * ((A + B + C) * D2 - A * B * C), D3)))


def _printed_xyz(own: Scalar, q: Scalar, r: Scalar, t: Scalar) -> Point:
    O, Q, R, T, D = _over_common(own, q, r, t)
    D2 = D * D
    den = (D2 + O * O) * (D2 + Q * Q) * (D2 + R * R)
    lead = O * Q * R - O * D2 + Q * D2 + R * D2
    x = 2 * ((Q + R + 2 * T) * D2 - 2 * Q * R * T) * lead
    y = 2 * lead * (Q * R + 2 * T * (Q + R) - D2) * D
    return geom._hom_point(own.backend, x, y, den)


def _printed_hagge(params: Params) -> Circle:
    be = params.backend
    A, B, C, T, D = _over_common(params.a, params.b, params.c, params.t)
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
    return Circle(Scalar(be, be.div(2 * xb, den)), Scalar(be, be.div(2 * yb, den * D)),
                  be.scalar(0))


def _audit_eq23(params: Params, core: Core):
    for v in simson.VERTEX_ORDER:
        printed = _printed_vertex_line(params.vertex_parameter(v), params.t)
        if not geom.lines_equal(printed, core.joins[v]):
            return {"vertex": v, "printed": _fmt_line(printed),
                    "constructive": _fmt_line(core.joins[v])}
    return None


def _audit_eq24(params: Params, core: Core):
    for v in simson.VERTEX_ORDER:
        printed = _printed_vertex_circle(params.vertex_parameter(v), params.t)
        if not geom.circles_equal(printed, core.circles[v]):
            return {"vertex": v, "printed": _fmt_circle(printed),
                    "constructive": _fmt_circle(core.circles[v])}
    return None


def _audit_eq25(params: Params, core: Core) -> Tuple[Optional[dict], Optional[dict]]:
    printed, built = _printed_orthocenter(params.a, params.b, params.c), core.h
    be = params.backend
    wx = wy = None
    (px, py, pw), (bx, by, bw) = printed._h, built._h
    x_off = not geom._same_value(be, (px, pw), (bx, bw), scaled=True)
    y_off = not geom._same_value(be, (py, pw), (by, bw), scaled=True)
    if x_off:
        wx = {"printed": _fmt(printed.x), "constructive": _fmt(built.x)}
    if y_off:
        wy = {"printed": _fmt(printed.y), "constructive": _fmt(built.y)}
    return wx, wy


def _audit_eq26(params: Params, core: Core) -> Tuple[Optional[dict], Optional[dict]]:
    """Compare the printed altitude-from-A coefficients with the construction.

    Only the altitude from A is audited: that is the one equation actually
    written down (its cyclic siblings are not, and would contribute their own
    separate coincidence conditions).  The constructive altitude is rescaled
    so its (x, y) coefficients agree with the printed ones; the verdicts are
    (coefficient proportionality, constant term after that rescaling).
    """
    pa, pb, pc = _printed_altitude_coeffs(params)
    built = core.altitudes["A"]
    be = params.backend
    (rn, rd), (sn, sd) = pa._ratio(), pb._ratio()
    ba, bb, bc = built._h
    if not geom._same_value(be, (rn * bb, rd), (sn * ba, sd), scaled=True):
        wcoef = {"printed": f"[{_fmt(pa)}, {_fmt(pb)}]",
                 "constructive": _fmt_line(built)}
        return wcoef, None
    # lambda = pa/ba (or pb/bb when ba = 0), divided out before it scales the
    # constant term: the float result depends on that order
    ln, ld = (geom._ratio_of(be, rn, rd * ba) if not be.is_zero(ba)
              else geom._ratio_of(be, sn, sd * bb))
    scaled = ln * bc, ld
    if not geom._same_value(be, pc._ratio(), scaled, scaled=True):
        return None, {"printed": _fmt(pc), "constructive": _fmt(Scalar(be, be.div(*scaled)))}
    return None, None


def _audit_eq27(params: Params, core: Core):
    for v in simson.VERTEX_ORDER:
        q, r = params.other_parameters(v)
        printed = _printed_xyz(params.vertex_parameter(v), q, r, params.t)
        built, _ = core.xyz[v]
        if not geom.points_equal(printed, built):
            return {"vertex": v, "printed": _fmt_point(printed),
                    "constructive": _fmt_point(built)}
    return None


def _audit_eq28(params: Params, core: Core):
    printed = _printed_hagge(params)
    built = core.hagge()
    if not geom.circles_equal(printed, built):
        return {"printed": _fmt_circle(printed), "constructive": _fmt_circle(built)}
    return None


def audit_printed_formulas(params: Params) -> Report:
    """Per-equation MATCH/MISMATCH verdicts (passed=True means MATCH)."""
    core = simson.construct_core(params)
    w25, w26 = _audit_eq25(params, core), _audit_eq26(params, core)
    witnesses = (_audit_eq23(params, core), _audit_eq24(params, core), *w25, *w26,
                 _audit_eq27(params, core), _audit_eq28(params, core))
    results = tuple(CheckResult(name, witness is None, witness)
                    for name, witness in zip(AUDIT_NAMES, witnesses))
    return Report(backend=params.backend.name, params=params_echo(params),
                  flags=(), results=results)
