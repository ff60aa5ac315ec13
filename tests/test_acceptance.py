"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.  All exact-backend assertions are literal equalities
of canonical rationals; the only tolerances are the ones stated per
criterion (1e-9 for the float-backend comparison).
"""

import json
import math
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from conftest import E, P
from oblique_simson import (
    Circle,
    FloatBackend,
    FuzzConfig,
    Line,
    Params,
    build_scene,
    fuzz,
    scene_from_json,
    scene_to_json,
)
from oblique_simson import geom
from oblique_simson.cli import main
from oblique_simson.simson import double_simson_line
from oblique_simson.verify import audit_printed_formulas, fuzz_instances


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_golden_instance(golden_scene):
    start = time.perf_counter()
    scene = build_scene(Params.make(1, 2, 3, Fraction(1, 2)))
    pts = scene.points

    expected_points = {
        "A": P(1, 1), "B": P("2/5", "4/5"), "C": P("1/5", "3/5"),
        "H": P("-2/5", "12/5"), "Q": P("-7/5", 1),
        "A0": P(0, 1), "B0": P("-1/5", "3/5"), "C0": P("-1/5", "2/5"),
        "K": P(1, 1),
        "X": P(0, 2), "Y": P("8/25", "24/25"), "Z": P("6/25", "12/25"),
        "L": P("-2/5", 0), "M": P("-3/5", "1/5"), "N": P("-4/5", "2/5"),
    }
    for name, expected in expected_points.items():
        got = pts[name]
        assert (got.x.value, got.y.value) == (expected.x.value, expected.y.value), name

    assert "tangent:AA0" in scene.flags                     # K coincides with A
    assert scene.circles["S"] == Circle(E("14/5"), E(-2), E(0))
    assert scene.lines["gwsLine"] == Line(E(5), E(5), E(2))
    sigma0 = scene.circles["Sigma0"]
    assert sigma0 == Circle(E(-1), E(-1), E(0))             # x^2+y^2-x-y = 0
    assert geom.on_circle(sigma0, pts["J"]) and geom.on_circle(sigma0, pts["K"])

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"criterion 1 (golden instance, exact, {elapsed:.3f}s): PASS")


def test_criterion_2_classical_reduction(classical_scene):
    pts = classical_scene.points

    # independent foot-of-perpendicular oracle in raw Fractions
    def foot_from_origin(px1, py1, px2, py2):
        a = py1 - py2
        b = px2 - px1
        c = px1 * py2 - px2 * py1
        k = c / (a * a + b * b)
        return (-k * a, -k * b)

    verts = {n: (pts[n].x.value, pts[n].y.value) for n in "ABC"}
    expected = {
        "L": foot_from_origin(*verts["B"], *verts["C"]),
        "M": foot_from_origin(*verts["C"], *verts["A"]),
        "N": foot_from_origin(*verts["A"], *verts["B"]),
    }
    assert expected["L"] == (Fraction(-1, 5), Fraction(1, 5))
    for name, (ex, ey) in expected.items():
        assert (pts[name].x.value, pts[name].y.value) == (ex, ey), name

    h = pts["H"]
    assert (pts["Q"].x.value, pts["Q"].y.value) == \
        (h.x.value / 2, h.y.value / 2) == (Fraction(-1, 5), Fraction(6, 5))
    assert geom.on_line(classical_scene.lines["gwsLine"], pts["Q"])
    _report("criterion 2 (classical t=0 reduction, exact): PASS")


def test_criterion_3_fuzz_1000():
    config = FuzzConfig(seed=42, count=1000)
    start = time.perf_counter()
    result = fuzz(config)
    elapsed = time.perf_counter() - start

    assert len(result.reports) == 1000
    failing = [(i, [f.name for f in r.failures])
               for i, r in enumerate(result.reports) if not r.all_pass]
    assert not failing, failing
    for report in result.reports:
        assert len(report.results) == 19

    # deterministic: a rerun of a prefix config reproduces the same reports
    prefix = fuzz(FuzzConfig(seed=42, count=100))
    assert prefix == fuzz(FuzzConfig(seed=42, count=100))
    assert result.reports[:100] == prefix.reports

    assert elapsed < 60.0
    _report(f"criterion 3 (fuzz 1000/1000 exact, {elapsed:.1f}s): PASS")


def test_criterion_4_printed_formula_audit():
    instances, _skips = fuzz_instances(FuzzConfig(seed=7, count=100))
    assert len(instances) == 100
    generic = 0
    for _i, params, _scene in instances:
        report = audit_printed_formulas(params)
        verdict = {r.name: r.passed for r in report.results}
        assert verdict["eq2.3"], report.params
        assert verdict["eq2.4"], report.params
        assert verdict["eq2.5.y"], report.params
        assert verdict["eq2.6.coeffs"], report.params
        assert verdict["eq2.7"], report.params
        assert verdict["eq2.8"], report.params
        abc = params.a.value * params.b.value * params.c.value
        b_plus_c = params.b.value + params.c.value
        assert verdict["eq2.5.x"] == (abc == 0), report.params
        assert verdict["eq2.6.const"] == (b_plus_c == 0), report.params
        if abc != 0 and b_plus_c != 0:
            generic += 1
    # with numerators in [-10, 10], P(abc != 0 and b+c != 0) is about 0.84;
    # the fixed seed yields 88 generic instances, every one showing the pattern
    assert generic >= 75
    _report(f"criterion 4 (audit 100 instances, {generic} generic): PASS")


def test_criterion_5_route_equivalence():
    instances, _skips = fuzz_instances(FuzzConfig(seed=43, count=200))
    for _i, _params, scene in instances:
        pts = scene.points
        j = pts["J"]
        for name, side in (("L", "imageSideB0C0"), ("M", "imageSideC0A0"),
                           ("N", "imageSideA0B0")):
            reflected = geom.reflect_in_line(j, scene.lines[side])
            assert (reflected.x.value, reflected.y.value) == \
                (pts[name].x.value, pts[name].y.value)
        via_reflections = double_simson_line(j, pts["A0"], pts["B0"], pts["C0"])
        gws = scene.lines["gwsLine"]
        assert (via_reflections.a.value, via_reflections.b.value,
                via_reflections.c.value) == (gws.a.value, gws.b.value, gws.c.value)
    _report("criterion 5 (route equivalence on 200 instances, exact): PASS")


def test_criterion_6_float_backend_consistency(golden_scene):
    float_scene = build_scene(
        Params.make(1, 2, 3, 0.5, backend=FloatBackend(1e-9)))
    tol = 1e-9

    for name, exact_pt in golden_scene.points.items():
        fp = float_scene.points[name]
        assert abs(float(exact_pt.x) - fp.x.value) <= tol, name
        assert abs(float(exact_pt.y) - fp.y.value) <= tol, name

    for name, exact_c in golden_scene.circles.items():
        fc = float_scene.circles[name]
        for ev, fv in ((exact_c.d, fc.d), (exact_c.e, fc.e), (exact_c.f, fc.f)):
            assert abs(float(ev) - fv.value) <= tol, name

    for name, exact_l in golden_scene.lines.items():
        fl = float_scene.lines[name]
        # exact canonical integers, rescaled to the float backend's unit-normal form
        norm = math.hypot(float(exact_l.a), float(exact_l.b))
        for ev, fv in ((exact_l.a, fl.a), (exact_l.b, fl.b), (exact_l.c, fl.c)):
            assert abs(float(ev) / norm - fv.value) <= tol, name

    assert float_scene.flags == golden_scene.flags
    _report("criterion 6 (float backend within 1e-9 of exact): PASS")


def test_criterion_7_cli_contract(tmp_path, capsys, monkeypatch):
    golden = ["--a", "1", "--b", "2", "--c", "3", "--t", "1/2"]

    # exit 0: all checks pass
    assert main(["verify", *golden]) == 0
    # exit 2: degenerate input, bad flags, bad fuzz config
    assert main(["construct", "--a", "1", "--b", "1", "--c", "3", "--t", "0"]) == 2
    assert main(["construct", "--a", "1"]) == 2
    assert main(["fuzz", "--count", "0"]) == 2
    capsys.readouterr()

    # exit 1: a failing check (unreachable from valid input on the exact
    # backend, so driven through the check seam)
    import dataclasses

    from oblique_simson import verify as verify_mod
    real = verify_mod.run_checks

    def failing(scene):
        report = real(scene)
        broken = dataclasses.replace(report.results[0], passed=False,
                                     witness={"forced": "1"})
        return dataclasses.replace(report, results=(broken,) + report.results[1:])

    monkeypatch.setattr("oblique_simson.cli.verify.run_checks", failing)
    assert main(["verify", *golden]) == 1
    monkeypatch.undo()
    capsys.readouterr()

    # JSON round trip identity
    out = tmp_path / "scene.json"
    assert main(["construct", *golden, "--json", str(out)]) == 0
    capsys.readouterr()
    scene = scene_from_json(out.read_text())
    assert scene_from_json(scene_to_json(scene)) == scene
    doc = json.loads(out.read_text())
    assert doc["points"]["Q"] == ["-7/5", "1"]

    # byte-deterministic SVG across repeated runs
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["construct", *golden, "--svg", str(svg1)]) == 0
    assert main(["construct", *golden, "--svg", str(svg2)]) == 0
    capsys.readouterr()
    assert svg1.read_bytes() == svg2.read_bytes()
    ET.fromstring(svg1.read_text())    # well-formed
    _report("criterion 7 (CLI exit codes, JSON round trip, SVG determinism): PASS")
