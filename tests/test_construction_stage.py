"""The construction stage against the per-object route it replaced.

Before ``simson.construct_core`` existed, ``build_scene`` composed the figure
through per-object helpers (``side_line``, ``altitude_line``,
``orthocenter_h``, ``vertex_circle``, ``lmn_point``), each rebuilding the
vertices it needed, and the audit rows rebuilt the same objects once more.
That route is copied below as the reference.  On seeded sweeps of both
backends the stage-based ``build_scene``, ``run_checks``,
``audit_printed_formulas`` and the public read-out helpers must agree with it
to the ``repr``: every point, line and circle in order, the flags, the
reports, and for raises the exception type and message.
"""

from fractions import Fraction
from typing import List, Tuple

import pytest

from oblique_simson import geom, simson
from oblique_simson.errors import ConstructionError, JEqualsH
from oblique_simson.numeric import EXACT, FloatBackend, is_zero
from oblique_simson.simson import (
    VERTEX_ORDER,
    Params,
    Scene,
    apply_similarity,
    circumcenter_o,
    circumcircle_sigma,
    gws_line,
    image_vertex,
    origin_j,
    perspector_k,
    q_point,
    vertex_circle,
    vertex_point,
)
from oblique_simson.verify import (
    CheckResult,
    Report,
    SplitMix64,
    _fmt,
    _fmt_circle,
    _fmt_line,
    _fmt_point,
    _printed_altitude_coeffs,
    _printed_hagge,
    _printed_orthocenter,
    _printed_vertex_circle,
    _printed_vertex_line,
    _printed_xyz,
    audit_printed_formulas,
    params_echo,
    run_checks,
)

# -- the reference: the per-object route, as it was ---------------------------------


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise ConstructionError(f"construction invariant failed: {what}")


def ref_orthocenter_h(params):
    return geom.orthocenter3(vertex_point(params.a), vertex_point(params.b),
                             vertex_point(params.c))


def ref_side_line(vertex, params):
    q, r = params.other_parameters(vertex)
    return geom.line_through(vertex_point(q), vertex_point(r))


def ref_altitude_line(vertex, params):
    own = params.vertex_parameter(vertex)
    return geom.perpendicular_through(vertex_point(own), ref_side_line(vertex, params))


def ref_xyz_point(vertex, params):
    own = params.vertex_parameter(vertex)
    return geom.second_line_circle(ref_altitude_line(vertex, params),
                                   vertex_circle(own, params.t), vertex_point(own))


def ref_hagge_circle(params):
    return geom.circle_through3(*(ref_xyz_point(v, params)[0] for v in VERTEX_ORDER))


_LMN_SOURCES = {"L": ("B", "C"), "M": ("C", "A"), "N": ("A", "B")}


def ref_lmn_point(which, params):
    v1, v2 = _LMN_SOURCES[which]
    c1 = vertex_circle(params.vertex_parameter(v1), params.t)
    c2 = vertex_circle(params.vertex_parameter(v2), params.t)
    return geom.second_circle_circle(c1, c2, origin_j(params.backend))


def ref_build_scene(params):
    be = params.backend
    j = origin_j(be)
    o = circumcenter_o(be)
    sigma = circumcircle_sigma(be)

    verts = {v: vertex_point(params.vertex_parameter(v)) for v in VERTEX_ORDER}
    for v, pt in verts.items():
        _check(geom.on_circle(sigma, pt), f"vertex {v} off the circumcircle")

    h = ref_orthocenter_h(params)
    if geom.points_equal(h, j):
        raise JEqualsH("H coincides with J")
    q = q_point(h, params.t)

    images = {v: apply_similarity(params.t, verts[v]) for v in VERTEX_ORDER}
    k = perspector_k(params.t)
    _check(geom.on_circle(sigma, k), "perspector off the circumcircle")

    flags = []
    for v in VERTEX_ORDER:
        join = geom.line_through(verts[v], images[v])
        k_again, tangent = geom.second_line_circle(join, sigma, verts[v])
        _check(geom.points_equal(k_again, k), f"{v}{v}0 misses the perspector")
        if tangent:
            flags.append(f"tangent:{v}{v}0")

    sides = {v: ref_side_line(v, params) for v in VERTEX_ORDER}
    alts = {v: ref_altitude_line(v, params) for v in VERTEX_ORDER}
    for v in VERTEX_ORDER:
        _check(geom.on_line(alts[v], h), f"altitude {v} misses the orthocentre")

    circles_v = {v: vertex_circle(params.vertex_parameter(v), params.t)
                 for v in VERTEX_ORDER}

    xyz = {}
    for v, name in zip(VERTEX_ORDER, ("X", "Y", "Z")):
        pt, tangent = geom.second_line_circle(alts[v], circles_v[v], verts[v])
        xyz[name] = pt
        if tangent:
            flags.append(f"tangent:{name}")

    s_circle = geom.circle_through3(xyz["X"], xyz["Y"], xyz["Z"])
    _check(geom.points_equal(s_circle.center(), q), "S is not centered at Q")
    _check(geom.on_circle(s_circle, j), "S misses J")
    _check(geom.on_circle(s_circle, h), "S misses H")

    sigma0 = geom.circle_through3(images["A"], images["B"], images["C"])
    _check(geom.on_circle(sigma0, j), "image circumcircle misses J")
    _check(geom.on_circle(sigma0, k), "image circumcircle misses K")

    lmn = {}
    for name in ("L", "M", "N"):
        pt, tangent = ref_lmn_point(name, params)
        lmn[name] = pt
        if tangent:
            flags.append(f"tangent:{name}")

    gws = gws_line(lmn["L"], lmn["M"], lmn["N"])

    points = {
        "J": j, "O": o,
        "A": verts["A"], "B": verts["B"], "C": verts["C"],
        "H": h, "Q": q, "K": k,
        "A0": images["A"], "B0": images["B"], "C0": images["C"],
        "X": xyz["X"], "Y": xyz["Y"], "Z": xyz["Z"],
        "L": lmn["L"], "M": lmn["M"], "N": lmn["N"],
    }
    lines = {
        "sideBC": sides["A"], "sideCA": sides["B"], "sideAB": sides["C"],
        "altA": alts["A"], "altB": alts["B"], "altC": alts["C"],
        "gwsLine": gws,
        "imageSideB0C0": geom.line_through(images["B"], images["C"]),
        "imageSideC0A0": geom.line_through(images["C"], images["A"]),
        "imageSideA0B0": geom.line_through(images["A"], images["B"]),
    }
    circles = {
        "Sigma": sigma, "Sigma0": sigma0, "S": s_circle,
        "cA": circles_v["A"], "cB": circles_v["B"], "cC": circles_v["C"],
    }
    return Scene(params=params, points=points, lines=lines, circles=circles,
                 flags=tuple(flags))


def ref_audit_eq23(params):
    for v in VERTEX_ORDER:
        own = params.vertex_parameter(v)
        printed = _printed_vertex_line(own, params.t)
        built = geom.line_through(vertex_point(own), image_vertex(own, params.t))
        if not geom.lines_equal(printed, built):
            return {"vertex": v, "printed": _fmt_line(printed),
                    "constructive": _fmt_line(built)}
    return None


def ref_audit_eq24(params):
    for v in VERTEX_ORDER:
        own = params.vertex_parameter(v)
        printed = _printed_vertex_circle(own, params.t)
        built = vertex_circle(own, params.t)
        if not geom.circles_equal(printed, built):
            return {"vertex": v, "printed": _fmt_circle(printed),
                    "constructive": _fmt_circle(built)}
    return None


def ref_audit_eq25(params):
    printed = _printed_orthocenter(params.a, params.b, params.c)
    built = ref_orthocenter_h(params)
    wx = wy = None
    if not is_zero(printed.x - built.x, (printed.x, built.x)):
        wx = {"printed": _fmt(printed.x), "constructive": _fmt(built.x)}
    if not is_zero(printed.y - built.y, (printed.y, built.y)):
        wy = {"printed": _fmt(printed.y), "constructive": _fmt(built.y)}
    return wx, wy


def ref_audit_eq26(params):
    pa, pb, pc = _printed_altitude_coeffs(params)
    built = ref_altitude_line("A", params)
    cross = pa * built.b - pb * built.a
    if not is_zero(cross, (pa * built.b, pb * built.a)):
        wcoef = {"printed": f"[{_fmt(pa)}, {_fmt(pb)}]",
                 "constructive": _fmt_line(built)}
        return wcoef, None
    lam = pa / built.a if not is_zero(built.a) else pb / built.b
    scaled_const = lam * built.c
    if not is_zero(pc - scaled_const, (pc, scaled_const)):
        return None, {"printed": _fmt(pc), "constructive": _fmt(scaled_const)}
    return None, None


def ref_audit_eq27(params):
    for v in VERTEX_ORDER:
        own = params.vertex_parameter(v)
        q, r = params.other_parameters(v)
        printed = _printed_xyz(own, q, r, params.t)
        built, _ = ref_xyz_point(v, params)
        if not geom.points_equal(printed, built):
            return {"vertex": v, "printed": _fmt_point(printed),
                    "constructive": _fmt_point(built)}
    return None


def ref_audit_eq28(params):
    printed = _printed_hagge(params)
    built = ref_hagge_circle(params)
    if not geom.circles_equal(printed, built):
        return {"printed": _fmt_circle(printed), "constructive": _fmt_circle(built)}
    return None


def ref_audit(params):
    w25x, w25y = ref_audit_eq25(params)
    w26coef, w26const = ref_audit_eq26(params)
    pairs = (
        ("eq2.3", ref_audit_eq23(params)),
        ("eq2.4", ref_audit_eq24(params)),
        ("eq2.5.x", w25x),
        ("eq2.5.y", w25y),
        ("eq2.6.coeffs", w26coef),
        ("eq2.6.const", w26const),
        ("eq2.7", ref_audit_eq27(params)),
        ("eq2.8", ref_audit_eq28(params)),
    )
    results = tuple(CheckResult(name, witness is None, witness)
                    for name, witness in pairs)
    return Report(backend=params.backend.name, params=params_echo(params),
                  flags=(), results=results)


# -- the comparison ------------------------------------------------------------------


def draws(seed: int, count: int, mag: int, den: int) -> List[Tuple[Fraction, ...]]:
    """Seeded (a, b, c, t) draws, collisions redrawn; the first has t = 0."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        a = rng.rational(mag, den)
        b = rng.rational(mag, den)
        while b == a:
            b = rng.rational(mag, den)
        c = rng.rational(mag, den)
        while c == a or c == b:
            c = rng.rational(mag, den)
        t = Fraction(0) if i == 0 else rng.rational(mag, den)
        out.append((a, b, c, t))
    return out


def outcome(fn, *args) -> str:
    """repr of the result, or the exception type and message.

    A Scene's repr lists its points, lines and circles in order, then flags.
    """
    try:
        return repr(fn(*args))
    except Exception as exc:  # the comparison covers every raise
        return f"raise {type(exc).__name__}: {exc}"


def checked(build, params):
    scene = build(params)
    return scene, run_checks(scene)


def compare(params) -> Tuple[bool, List[str]]:
    """Both routes on one instance; returns (the new build raised, mismatches)."""
    rows = (
        ("build_scene+run_checks", outcome(checked, simson.build_scene, params),
         outcome(checked, ref_build_scene, params)),
        ("audit", outcome(audit_printed_formulas, params), outcome(ref_audit, params)),
    )
    mismatches = [f"{what}: {got[:300]} != {want[:300]}"
                  for what, got, want in rows if got != want]
    return rows[0][1].startswith("raise "), mismatches


def sweep(backend, seed, count, mag, den):
    raised, mismatches = 0, []
    for raw in draws(seed, count, mag, den):
        params = Params.make(*raw, backend=backend)
        r, m = compare(params)
        raised += r
        mismatches.extend(f"{raw}: {line}" for line in m)
    return raised, mismatches


@pytest.mark.parametrize("mag,den,count", [(10, 10, 40), (10 ** 6, 10 ** 6, 12)])
def test_exact_sweep_matches_reference(mag, den, count):
    raised, mismatches = sweep(EXACT, 5, count, mag, den)
    assert not mismatches
    assert raised == 0


def test_float_sweep_matches_reference():
    raised, mismatches = 0, []
    for eps in (1e-6, 1e-9):
        for mag, den in ((10, 1000), (1000, 10), (10 ** 4, 100)):
            r, m = sweep(FloatBackend(eps), 7, 40, mag, den)
            raised += r
            mismatches.extend(f"eps={eps} mag={mag} den={den} {line}" for line in m)
    assert not mismatches
    # near-coincident vertices make the float backend raise on some draws;
    # the comparison must have covered such raises too
    assert raised > 0


def test_read_out_helpers_match_reference():
    for raw in draws(3, 12, 10, 10):
        params = Params.make(*raw)
        assert simson.orthocenter_h(params) == ref_orthocenter_h(params)
        assert simson.hagge_circle(params) == ref_hagge_circle(params)
        for v in VERTEX_ORDER:
            assert simson.side_line(v, params) == ref_side_line(v, params)
            assert simson.altitude_line(v, params) == ref_altitude_line(v, params)
            assert simson.xyz_point(v, params) == ref_xyz_point(v, params)
        for which in "LMN":
            assert simson.lmn_point(which, params) == ref_lmn_point(which, params)


def test_stage_builds_each_vertex_once(monkeypatch):
    calls = []
    real = simson.vertex_point
    monkeypatch.setattr(simson, "vertex_point", lambda p: calls.append(p) or real(p))
    simson.build_scene(Params.make(1, 2, 3, Fraction(1, 2)))
    assert len(calls) == 3
    calls.clear()
    audit_printed_formulas(Params.make(1, 2, 3, Fraction(1, 2)))
    assert len(calls) == 3
