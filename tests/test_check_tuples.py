"""The checks on tuples against the object-building checks they replaced.

``verify``'s nineteen checks are called on one map from name to canonical
tuple and compose geom's tuple functions.  Neither they nor the audit build
a Point, Line, Circle, Scalar, DirectedTan or Fraction, not even for a
witness, which is written from tuples and pairs (n, d) through
``numeric.format_pair``.  The reference below is the earlier form, kept
verbatim: each check body builds its intermediate objects through the
public primitives, and so do ``double_simson_line`` and
``_line_through_collinear``.  The two must give ``Report``s with the same
``repr`` on seeded passing scenes of both backends (t = 0 and tangent-flag
instances included) and on every single-object corruption of the golden
and classical scenes and of one scene at magnitude 10^200.  The last tests
pin which path decides an exact check: a certificate on incidences the
scene holds, or, where that fails, the constructive body that gives every
FAIL and its witness.
"""

import ast
import collections
import dataclasses
import inspect
import random
from fractions import Fraction
from pathlib import Path
from typing import List, Sequence, Tuple

import pytest

from conftest import _fmt, _fmt_line, _fmt_point, check_witness, count_fractions
from oblique_simson import geom, simson, verify
from oblique_simson.errors import AllCoincident, GeometryError, NotCollinear, NotOnCircumcircle
from oblique_simson.geom import Circle, DirectedTan, Line, Point
from oblique_simson.numeric import EXACT, FloatBackend, Scalar
from oblique_simson.simson import Params, Scene
from oblique_simson.verify import CheckResult, Report, params_echo


# -- reference: double_simson_line and _line_through_collinear, verbatim ----------


def _line_through_collinear(p: Point, q: Point, r: Point,
                            not_collinear: str, all_coincide: str) -> Line:
    """The line through the first distinct pair of three collinear points."""
    if not geom.collinear3(p, q, r):
        raise NotCollinear(not_collinear)
    for u, v in ((p, q), (p, r), (q, r)):
        if not geom.points_equal(u, v):
            return geom.line_through(u, v)
    raise AllCoincident(all_coincide)


def gws_line(l: Point, m: Point, n: Point) -> Line:
    """The line carrying three collinear points (at least two distinct).

    Raises NotCollinear if the points do not line up; on scenes built by this
    package that indicates an internal bug, never a valid configuration.
    """
    return _line_through_collinear(l, m, n, "L, M, N are not collinear",
                                   "all three points coincide; no unique line")


def double_simson_line(j: Point, p: Point, q: Point, r: Point) -> Line:
    """Line through the reflections of j in the three sides of triangle pqr.

    Requires j on the circumcircle of pqr; the returned line passes through
    the orthocentre of pqr (checked by the verifier, not here).
    """
    circ = geom.circle_through3(p, q, r)
    if not geom.on_circle(circ, j):
        raise NotOnCircumcircle("point is not on the circumcircle of the triangle")
    refs = [
        geom.reflect_in_line(j, geom.line_through(q, r)),
        geom.reflect_in_line(j, geom.line_through(r, p)),
        geom.reflect_in_line(j, geom.line_through(p, q)),
    ]
    return _line_through_collinear(*refs, "side reflections failed to line up",
                                   "all three reflections coincide")


# -- reference: the nineteen check bodies, verbatim -------------------------------


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
    line = double_simson_line(pts["J"], pts["A0"], pts["B0"], pts["C0"])
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
    classical = gws_line(*feet)
    if not geom.lines_equal(classical, scene.lines["gwsLine"]):
        return {"classical": _fmt_line(classical),
                "gwsLine": _fmt_line(scene.lines["gwsLine"])}
    return None


def _chk_double_simson_abc(scene: Scene):
    pts = scene.points
    line = double_simson_line(pts["J"], pts["A"], pts["B"], pts["C"])
    if not geom.on_line(line, pts["H"]):
        return {"line": _fmt_line(line), "H": _fmt_point(pts["H"])}
    return None


REF_CHECKS = {
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


def ref_run_checks(scene: Scene) -> Report:
    """Run all named checks; failures become results, never exceptions."""
    results: List[CheckResult] = []
    for name, check in REF_CHECKS.items():
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


# -- the tests -------------------------------------------------------------------

BACKENDS = {"exact": EXACT, "float": FloatBackend(1e-9)}

# one instance per kind of tangency flag: tangent:AA0, tangent:X, tangent:Y and Z
TANGENT = [(Fraction(-3, 2), Fraction(-4, 3), -1, Fraction(-1, 3)),
           (-3, Fraction(-4, 3), Fraction(1, 2), Fraction(1, 2)),
           (-4, -3, Fraction(1, 3), 2)]


def passing_params(backend) -> List[Params]:
    raw = [(1, 2, 3, Fraction(1, 2)), (1, 2, 3, 0), *TANGENT]
    for seed in (5, 9):
        instances, _ = verify.fuzz_instances(verify.FuzzConfig(seed=seed, count=12))
        for _, p, _ in instances:
            raw.append((p.a.value, p.b.value, p.c.value, p.t.value))
            raw.append((p.a.value, p.b.value, p.c.value, 0))
    if backend.exact:
        wide = verify.FuzzConfig(seed=5, count=3, max_numerator=10 ** 200,
                                 max_denominator=10 ** 200)
        raw += [(p.a.value, p.b.value, p.c.value, p.t.value)
                for _, p, _ in verify.fuzz_instances(wide)[0]]
    return [Params.make(*values, backend=backend) for values in raw]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_passing_scenes_match_reference(backend):
    be = BACKENDS[backend]
    flags = set()
    for params in passing_params(be):
        scene = simson.build_scene(params)
        report = verify.run_checks(scene)
        assert report.all_pass
        assert repr(report) == repr(ref_run_checks(scene))
        flags.update(scene.flags)
    assert {"tangent:AA0", "tangent:X", "tangent:Y", "tangent:Z"} <= flags


def corruptions(scene: Scene):
    """Every single-object corruption: each point moved along x and along y,
    each line's and circle's constant bumped, and gwsLine rescaled by 1/2
    (the same line, other coefficients on float; an exact Line is
    canonical, so there it is gwsLine itself)."""
    be = scene.backend
    step = Fraction(1, 7) if be.exact else 1 / 7

    def bump(s: Scalar) -> Scalar:
        return Scalar(be, s.value + step)

    for name, p in scene.points.items():
        for moved in (Point(bump(p.x), p.y), Point(p.x, bump(p.y))):
            yield f"{name} moved", dataclasses.replace(scene, points={**scene.points, name: moved})
    for name, l in scene.lines.items():
        bumped = Line(l.a, l.b, bump(l.c))
        yield f"{name} bumped", dataclasses.replace(scene, lines={**scene.lines, name: bumped})
    for name, c in scene.circles.items():
        bumped = Circle(c.d, c.e, bump(c.f))
        yield f"{name} bumped", dataclasses.replace(scene, circles={**scene.circles, name: bumped})
    gws = scene.lines["gwsLine"]
    half = Fraction(1, 2) if be.exact else 0.5
    rescaled = Line(*(Scalar(be, s.value * half) for s in (gws.a, gws.b, gws.c)))
    yield "gwsLine rescaled", dataclasses.replace(scene, lines={**scene.lines, "gwsLine": rescaled})


def first_wide_params() -> Params:
    """The first seed-5 fuzz instance at magnitude 10^200 (exact)."""
    wide = verify.FuzzConfig(seed=5, count=1, max_numerator=10 ** 200,
                             max_denominator=10 ** 200)
    return verify.fuzz_instances(wide)[0][0][1]


@pytest.mark.parametrize("t, backend", [
    (Fraction(1, 2), "exact"), (Fraction(1, 2), "float"), (0, "exact"), (0, "float"),
    ("wide", "exact"),
], ids=["golden-exact", "golden-float", "classical-exact", "classical-float", "wide-exact"])
def test_corrupted_scenes_match_reference(backend, t):
    """The golden and classical triangles on both backends, and one exact
    instance at magnitude 10^200, where the checks' certificates fail on
    many corruptions and their fallbacks give the verdict and witness."""
    if t == "wide":
        params = first_wide_params()
    else:
        params = Params.make(1, 2, 3, t, backend=BACKENDS[backend])
    scene = simson.build_scene(params)
    failing = 0
    for what, corrupted in corruptions(scene):
        report = verify.run_checks(corrupted)
        assert repr(report) == repr(ref_run_checks(corrupted)), what
        failing += not report.all_pass
        if what == "gwsLine rescaled":
            # a float line keeps its coefficients, and lines compare them
            # coefficient by coefficient
            assert report.result("line_equals_double_simson_of_image").passed == (
                backend == "exact")
    assert failing > 40


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_run_checks_builds_no_objects(backend, monkeypatch):
    """The checks and the audit build no Point, Line, Circle, Scalar,
    DirectedTan or Fraction: not on passing scenes (the earlier checks built
    36 objects and 105 Scalars on the golden instance), not on the
    corruption corpus of test_corrupted_scenes_match_reference, whose FAILs
    print witnesses, and not on the golden audit, whose eq2.5.x and
    eq2.6.const rows print MISMATCH witnesses."""
    be = BACKENDS[backend]
    scenes = [simson.build_scene(p) for p in passing_params(be)[:8]]
    bases = [Params.make(1, 2, 3, t, backend=be) for t in (Fraction(1, 2), 0)]
    if be.exact:
        bases.append(first_wide_params())
    corpus = [c for p in bases for _, c in corruptions(simson.build_scene(p))]
    golden = bases[0]
    fractions = count_fractions(monkeypatch)
    born = []
    for cls in (Point, Line, Circle, Scalar, DirectedTan):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            born.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    def counted_pair(*args, _pair=geom._pair):  # the pairs geom's writers hold
        born.append("Scalar")
        return _pair(*args)

    monkeypatch.setattr(geom, "_pair", counted_pair)
    reports = [verify.run_checks(scene) for scene in scenes]
    failing = [verify.run_checks(scene) for scene in corpus]
    audit = verify.audit_printed_formulas(golden)
    monkeypatch.undo()
    assert all(report.all_pass for report in reports)
    assert sum(not report.all_pass for report in failing) > 80
    assert [r.name for r in audit.failures] == ["eq2.5.x", "eq2.6.const"]
    assert born == [] and fractions == []


def test_verify_takes_tuples_alone():
    """verify imports no object type, every check is called as
    check(backend, tuples by name, params), and verify defines no text
    writer of its own: a witness's point, line, circle or tangent is written
    by geom's writers."""
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = {alias.name.rpartition(".")[2] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"Point", "Line", "Circle", "Scalar"}
    assert {"_point_text", "_line_text", "_circle_text", "_tan_text"} <= imported
    for check in verify._CHECK_IMPLS.values():
        assert list(inspect.signature(check).parameters) == ["be", "h", "params"]
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in functions if f.name.startswith("_fmt")] == []
    assert [f.name for f in functions for node in ast.walk(f)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.JoinedStr)] == []


@pytest.mark.parametrize("part", ["points", "lines", "circles"])
def test_object_of_another_backend_is_an_error_result(golden_scene, part):
    """The checks compute on the tuples of the scene's backend, so an object
    of another backend makes every check an error result, never a raise."""
    name, obj = next(iter(getattr(golden_scene, part).items()))
    fb = FloatBackend(1e-9)
    alien = type(obj)(*(Scalar(fb, float(s.value)) for s in vars(obj).values()))
    scene = dataclasses.replace(golden_scene, **{part: {**getattr(golden_scene, part), name: alien}})
    report = verify.run_checks(scene)
    assert len(report.results) == 19
    assert all(r.witness == {"error": "cannot combine exact and float objects"}
               for r in report.results)


# -- which path decides an exact check ---------------------------------------------

CERTIFIED = ("concyclic_chains_thm41", "perspector_common", "q_is_image_of_H", "q_equidistant",
             "line_equals_double_simson_of_image")
# the tuple functions that, among these checks, only the constructive bodies call
BODY_CALLS = ("_concyclic4_h", "_second_line_circle_h", "_orthocentric_h", "_dist_sq_h")


def run_check(monkeypatch, scene: Scene, name: str):
    """(the check's witness, or its error as run_checks reports it, and the
    calls its body made to BODY_CALLS)."""
    calls = collections.Counter()
    for fn in BODY_CALLS:
        def counted(*args, _f=getattr(geom, fn), _fn=fn):
            calls[_fn] += 1
            return _f(*args)

        monkeypatch.setattr(geom, fn, counted)
    try:
        witness = check_witness(scene, name)
    except GeometryError as exc:
        witness = {"error": str(exc)}
    monkeypatch.undo()
    return witness, dict(calls)


def corrupted(scene: Scene, what: str) -> Scene:
    """The first corruption named *what* (a moved point: moved along x)."""
    return next(c for w, c in corruptions(scene) if w == what)


def test_passing_exact_scenes_pass_on_certificates(monkeypatch):
    """No body runs on a passing exact scene, except perspector_common's
    where a join touches Sigma at its vertex, so that K is that vertex."""
    fallbacks = []
    for params in passing_params(EXACT):
        scene = simson.build_scene(params)
        for name in CERTIFIED:
            witness, calls = run_check(monkeypatch, scene, name)
            assert witness is None
            if calls:
                assert {"tangent:AA0", "tangent:BB0", "tangent:CC0"} & set(scene.flags)
                fallbacks.append((name, calls))
    assert len(fallbacks) == 3
    assert all(f == ("perspector_common", {"_second_line_circle_h": 3}) for f in fallbacks)


@pytest.mark.parametrize("circle", ["cA", "cB", "cC"])
def test_bumped_vertex_circle_falls_back_and_passes(golden_scene, monkeypatch, circle):
    # the two chains on the bumped circle are decided by the concyclicity sum
    assert run_check(monkeypatch, corrupted(golden_scene, f"{circle} bumped"),
                     "concyclic_chains_thm41") == (None, {"_concyclic4_h": 2})


def test_bumped_sigma_falls_back(golden_scene, monkeypatch):
    """The chains do not read Sigma.  perspector_common's body decides, and
    fails with its own error: the known vertex is off the bumped circle."""
    scene = corrupted(golden_scene, "Sigma bumped")
    assert run_check(monkeypatch, scene, "concyclic_chains_thm41") == (None, {})
    assert run_check(monkeypatch, scene, "perspector_common") == (
        {"error": "known point is not on the circle"}, {"_second_line_circle_h": 1})
    assert run_check(monkeypatch, scene, "double_simson_of_ABC_through_H") == (
        None, {"_concyclic4_h": 1})


def test_bumped_sigma0_falls_back_and_passes(golden_scene, monkeypatch):
    assert run_check(monkeypatch, corrupted(golden_scene, "Sigma0 bumped"),
                     "line_equals_double_simson_of_image") == (None, {"_concyclic4_h": 1})


def test_moved_y_fails_its_first_chain(golden_scene):
    report = verify.run_checks(corrupted(golden_scene, "Y moved"))
    assert report.result("concyclic_chains_thm41").witness == {"chain": "J,L,B,Y"}


@pytest.mark.parametrize("what, check", [("Q moved", "q_equidistant"),
                                         ("A0 moved", "q_is_image_of_H"),
                                         ("K moved", "perspector_common")])
def test_moved_point_fails_in_the_body_on_a_wide_scene(monkeypatch, what, check):
    """At magnitude 10^200 a moved point breaks the certificate, and the
    body gives the witness."""
    scene = corrupted(simson.build_scene(first_wide_params()), what)
    witness, calls = run_check(monkeypatch, scene, check)
    assert witness is not None and calls


@pytest.mark.parametrize("mag", [10, 10 ** 200])
def test_equidistance_is_the_distance_difference(mag):
    """w^3 F equals the cross-multiplied |QJ|^2 - |QH|^2 of two _dist_sq_h
    pairs, for J away from the origin; F is 0 for H the mirror of J in Q."""
    rng = random.Random(24)
    draw = lambda: rng.randint(-mag, mag)
    for _ in range(50):
        q, j, h = (geom._point_h(EXACT, draw(), draw(), rng.randint(1, mag)) for _ in range(3))
        assert j[:2] != (0, 0)
        (n1, d1), (n2, d2) = geom._dist_sq_h(EXACT, q, j), geom._dist_sq_h(EXACT, q, h)
        assert q[2] ** 3 * verify._equidistance_h(q, j, h) == n1 * d2 - n2 * d1
        (x, y, w), (a, b, c) = q, j
        mirror = geom._point_h(EXACT, 2 * x * c - a * w, 2 * y * c - b * w, w * c)
        assert verify._equidistance_h(q, j, mirror) == 0


def test_float_checks_take_no_certificate(monkeypatch):
    scene = simson.build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=BACKENDS["float"]))
    assert run_check(monkeypatch, scene, "concyclic_chains_thm41") == (None, {"_concyclic4_h": 6})
    assert run_check(monkeypatch, scene, "q_equidistant") == (None, {"_dist_sq_h": 2})


def test_q_on_altitudes_of_a_degenerate_image_triangle_is_an_error(golden_scene):
    """B0 at A0 and C0 placed so that Q is on both 'altitudes': the
    certificate needs a proper triangle, so the body raises as before."""
    pts = golden_scene.points
    (qx, qy, qw), (ax, ay, aw) = pts["Q"]._h, pts["A0"]._h
    ux, uy = qx * aw - ax * qw, qy * aw - ay * qw  # Q - A0, over qw aw
    c0 = geom._hom_point(EXACT, ax * qw - uy, ay * qw + ux, aw * qw)  # A0 + (Q - A0) turned
    scene = dataclasses.replace(golden_scene, points={**pts, "B0": pts["A0"], "C0": c0})
    # both dot products vanish, and only the triangle test is left to fail
    assert not verify._on_two_altitudes_h(EXACT, pts["Q"]._h, pts["A0"]._h, pts["A0"]._h, c0._h)
    report = verify.run_checks(scene)
    assert repr(report) == repr(ref_run_checks(scene))
    assert report.result("q_is_image_of_H").witness == {
        "error": "orthocentre of collinear points is undefined"}


@pytest.mark.parametrize("base, moved, onto, check, error", [
    # the join of B and B0 at B is no line, though K = J is on Sigma away from B
    ("classical_scene", "B0", "B", "perspector_common",
     "no unique line through coincident points"),
    # Sigma0 holds J, A0, A0 and C0, but the triangle test comes first
    ("golden_scene", "B0", "A0", "line_equals_double_simson_of_image",
     "no circle through collinear (or repeated) points"),
])
def test_repeated_point_is_an_error_though_the_circle_holds(request, base, moved, onto, check,
                                                            error):
    base = request.getfixturevalue(base)
    scene = dataclasses.replace(base, points={**base.points, moved: base.points[onto]})
    report = verify.run_checks(scene)
    assert repr(report) == repr(ref_run_checks(scene))
    assert report.result(check).witness["error"].startswith(error)


@pytest.mark.parametrize("moved, onto, chain", [
    ("L", "B", "J,L,C,Z"), ("M", "C", "J,M,A,X"), ("N", "A", "J,N,B,Y"), ("J", "L", "J,M,A,X")])
def test_point_moved_along_one_vertex_circle_fails_the_other(golden_scene, moved, onto, chain):
    """A point moved onto another point of some vertex circles leaves one
    that it was on, whose first chain fails: L onto B stays on cB and
    leaves cC, and J onto L stays on cB and cC and leaves cA."""
    scene = dataclasses.replace(golden_scene, points={**golden_scene.points,
                                                      moved: golden_scene.points[onto]})
    report = verify.run_checks(scene)
    assert repr(report) == repr(ref_run_checks(scene))
    assert report.result("concyclic_chains_thm41").witness == {"chain": chain}
