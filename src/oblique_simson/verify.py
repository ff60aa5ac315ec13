"""Named theorem checks over a Scene, a seeded fuzzer, and the formula audit.

Every check re-derives its assertion from the scene contents, and each of the
paper's identities has its verdict here only: ``build_scene`` builds the
objects without asserting them.  A deliberately corrupted scene, or a float
instance whose tolerance misses an identity, therefore produces FAIL results
with witnesses rather than exceptions.  On the exact backend a failing check
on a validly built scene is always a defect: the fuzz run is a randomized
polynomial-identity test over the rationals.

The audit evaluates the closed-form coefficient formulas handed down for this
construction (rows Eq2.3-Eq2.8) against the constructive objects, which it
reads from :func:`simson.construct_core` (the checks above re-derive from the
scene alone).  Two of them disagree with the construction on generic
instances - the orthocentre x-coordinate (off by a -2a^2b^2c^2 vs -a^2b^2c^2
term) and the altitude constant term (off by 4(b+c)) - and the audit
documents exactly that, per instance, without guessing intent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import geom, simson
from .errors import GeometryError, JEqualsH
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


def _incidences_on_circle(circle: Circle, named: Sequence[Tuple[str, Point]]):
    for name, p in named:
        if not geom.on_circle(circle, p):
            return {"point": name, "residual": _fmt(geom.circle_eval(circle, p))}
    return None


def _chk_on_circumcircle(scene: Scene):
    pts = scene.points
    return _incidences_on_circle(
        scene.circles["Sigma"],
        [(n, pts[n]) for n in ("A", "B", "C", "K")],
    )


def _chk_sigma0(scene: Scene):
    pts = scene.points
    return _incidences_on_circle(
        scene.circles["Sigma0"],
        [(n, pts[n]) for n in ("A0", "B0", "C0", "J", "K")],
    )


def _chk_q_equidistant(scene: Scene):
    pts = scene.points
    dj = geom.dist_sq(pts["Q"], pts["J"])
    dh = geom.dist_sq(pts["Q"], pts["H"])
    if not scene.backend.is_zero(dj.value - dh.value, (dj.value, dh.value)):
        return {"QJ^2": _fmt(dj), "QH^2": _fmt(dh)}
    return None


def _chk_q_is_image_of_h(scene: Scene):
    pts = scene.points
    expected = simson.apply_similarity(scene.params.t, pts["H"])
    if not geom.points_equal(pts["Q"], expected):
        return {"Q": _fmt_point(pts["Q"]), "similarity(H)": _fmt_point(expected)}
    ortho0 = geom.orthocenter3(pts["A0"], pts["B0"], pts["C0"])
    if not geom.points_equal(ortho0, pts["Q"]):
        return {"orthocentre(A0B0C0)": _fmt_point(ortho0), "Q": _fmt_point(pts["Q"])}
    return None


def _chk_similarity_ratio(scene: Scene):
    pts = scene.points
    be, t = scene.backend, scene.params.t.value
    ratio = 1 + 4 * t * t
    for v in simson.VERTEX_ORDER:
        lhs = 4 * geom.dist_sq(pts["J"], pts[v + "0"]).value
        rhs = ratio * geom.dist_sq(pts["J"], pts[v]).value
        if not be.is_zero(lhs - rhs, (lhs, rhs)):
            return {"vertex": v, "4*|J->image|^2": _fmt(Scalar(be, lhs)),
                    "(1+4t^2)*|J->vertex|^2": _fmt(Scalar(be, rhs))}
    return None


def _chk_perspector_common(scene: Scene):
    pts = scene.points
    sigma = scene.circles["Sigma"]
    for v in simson.VERTEX_ORDER:
        join = geom.line_through(pts[v], pts[v + "0"])
        second, _ = geom.second_line_circle(join, sigma, pts[v])
        if not geom.points_equal(second, pts["K"]):
            return {"vertex": v, "second": _fmt_point(second), "K": _fmt_point(pts["K"])}
    return None


def _chk_xyz_incidences(scene: Scene):
    pts = scene.points
    plan = (("X", "altA", "cA"), ("Y", "altB", "cB"), ("Z", "altC", "cC"))
    for name, alt, circ in plan:
        p = pts[name]
        if not geom.on_line(scene.lines[alt], p):
            return {"point": name, "off": alt}
        if not geom.on_circle(scene.circles[circ], p):
            return {"point": name, "off": circ}
        if not geom.on_circle(scene.circles["S"], p):
            return {"point": name, "off": "S"}
    return None


def _chk_hagge(scene: Scene):
    pts = scene.points
    s = scene.circles["S"]
    if not geom.points_equal(s.center(), pts["Q"]):
        return {"center": _fmt_point(s.center()), "Q": _fmt_point(pts["Q"])}
    return _incidences_on_circle(s, [("J", pts["J"]), ("H", pts["H"])])


def _on_side(scene: Scene, point_name: str, side_name: str):
    p = scene.points[point_name]
    side = scene.lines[side_name]
    if not geom.on_line(side, p):
        return {"point": _fmt_point(p), "residual": _fmt(geom.line_eval(side, p))}
    return None


def _chk_lmn_collinear(scene: Scene):
    pts = scene.points
    if not geom.collinear3(pts["L"], pts["M"], pts["N"]):
        return {"L": _fmt_point(pts["L"]), "M": _fmt_point(pts["M"]),
                "N": _fmt_point(pts["N"])}
    return None


def _chk_q_on_line(scene: Scene):
    q = scene.points["Q"]
    line = scene.lines["gwsLine"]
    if not geom.on_line(line, q):
        return {"Q": _fmt_point(q), "residual": _fmt(geom.line_eval(line, q))}
    return None


def _chk_reflection_route(scene: Scene):
    pts = scene.points
    plan = (("L", "imageSideB0C0"), ("M", "imageSideC0A0"), ("N", "imageSideA0B0"))
    for name, side in plan:
        reflected = geom.reflect_in_line(pts["J"], scene.lines[side])
        if not geom.points_equal(reflected, pts[name]):
            return {"point": name, "radical-route": _fmt_point(pts[name]),
                    "reflection-route": _fmt_point(reflected)}
    return None


def _chk_double_simson_of_image(scene: Scene):
    pts = scene.points
    line = simson.double_simson_line(pts["J"], pts["A0"], pts["B0"], pts["C0"])
    if not geom.lines_equal(line, scene.lines["gwsLine"]):
        return {"double-simson": _fmt_line(line),
                "gwsLine": _fmt_line(scene.lines["gwsLine"])}
    return None


def _chk_equal_oblique_tangents(scene: Scene):
    pts = scene.points
    j = pts["J"]
    plan = (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB"))
    tangents = []
    skipped = []
    for name, side in plan:
        if geom.points_equal(pts[name], j):
            skipped.append(name)
            continue
        tangents.append(
            (name, geom.directed_tan(geom.line_through(j, pts[name]),
                                     scene.lines[side])))
    for (n1, t1), (n2, t2) in zip(tangents, tangents[1:]):
        if not t1 == t2:
            return {"pair": f"{n1},{n2}", n1: repr(t1), n2: repr(t2)}
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
    pts = scene.points
    for chain in _CONCYCLIC_CHAINS:
        if not geom.concyclic4(*(pts[n] for n in chain)):
            return {"chain": ",".join(chain)}
    return None


def _chk_t_zero_reduction(scene: Scene):
    pts = scene.points
    if not scene.backend.is_zero(scene.params.t.value):
        return {"note": "not applicable: t != 0", "_pass": "1"}
    plan = (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB"))
    feet = []
    for name, side in plan:
        foot = geom.foot_perpendicular(pts["J"], scene.lines[side])
        feet.append(foot)
        if not geom.points_equal(foot, pts[name]):
            return {"point": name, "foot": _fmt_point(foot),
                    "scene": _fmt_point(pts[name])}
    mid = geom.midpoint(pts["J"], pts["H"])
    if not geom.points_equal(mid, pts["Q"]):
        return {"midpoint(J,H)": _fmt_point(mid), "Q": _fmt_point(pts["Q"])}
    classical = simson.gws_line(*feet)
    if not geom.lines_equal(classical, scene.lines["gwsLine"]):
        return {"classical": _fmt_line(classical),
                "gwsLine": _fmt_line(scene.lines["gwsLine"])}
    return None


def _chk_double_simson_abc(scene: Scene):
    pts = scene.points
    line = simson.double_simson_line(pts["J"], pts["A"], pts["B"], pts["C"])
    if not geom.on_line(line, pts["H"]):
        return {"line": _fmt_line(line), "H": _fmt_point(pts["H"])}
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
    for name, check in _CHECK_IMPLS.items():
        try:
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
    px, py, bx, by = printed.x.value, printed.y.value, built.x.value, built.y.value
    wx = wy = None
    if not be.is_zero(px - bx, (px, bx)):
        wx = {"printed": _fmt(printed.x), "constructive": _fmt(built.x)}
    if not be.is_zero(py - by, (py, by)):
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
