"""The exact construction's circles S and Sigma0, and the double-Simson
precondition, against the three-point route they replaced.

On the exact backend ``build_scene`` builds S about Q and Sigma0 about the
image of O, both through J, and ``double_simson_line`` tests that J lies on
the circle of its triangle without building that circle.  The tests below
compare both with the circle through three points, and show that a
construction mutant which moves Q or X off S is caught by the check that
now carries the membership, ``xyz_incidences``.  The audit's Eq2.8 row
compares its printed circle with the stage's S, the one the scene holds.
"""

import random
from fractions import Fraction

import pytest

from conftest import P
from oblique_simson import geom, simson
from oblique_simson.errors import AllCoincident, NotCollinear, NotOnCircumcircle
from oblique_simson.numeric import EXACT, FloatBackend
from oblique_simson.simson import Params, build_scene, double_simson_line
from oblique_simson.verify import (FuzzConfig, audit_printed_formulas, fuzz_instances,
                                   run_checks)


@pytest.mark.parametrize("mag,seed", [(10, 31), (10 ** 200, 32)], ids=["mag10", "mag1e200"])
def test_exact_s_and_sigma0_are_the_three_point_circles(mag, seed):
    instances, _ = fuzz_instances(FuzzConfig(seed=seed, count=4, max_numerator=mag,
                                             max_denominator=mag))
    for _, _, scene in instances:
        pts = scene.points
        s = geom.circle_through3(*(pts[n] for n in ("X", "Y", "Z")))
        sigma0 = geom.circle_through3(*(pts[n] for n in ("A0", "B0", "C0")))
        assert scene.circles["S"]._h == s._h
        assert scene.circles["Sigma0"]._h == sigma0._h


# -- construction mutants ----------------------------------------------------------


def shifted_q(monkeypatch):
    """Q moved by (1/1000, 0) where the stage computes it."""
    real = simson._q_h

    def mutant(be, h, t):
        x, y, w = real(be, h, t)
        return geom._point_h(be, 1000 * x + w, 1000 * y, 1000 * w)

    monkeypatch.setattr(simson, "_q_h", mutant)


def moved_s(monkeypatch):
    """S replaced in the stage by the circle through J about Q moved by (1/1000, 0)."""
    real = simson.construct_core

    def mutant(params):
        stage, flags = real(params)
        be, (x, y, w) = params.backend, stage["Q"]
        center = geom._point_h(be, 1000 * x + w, 1000 * y, 1000 * w)
        return {**stage, "S": geom._circle_center_through_h(be, center, stage["J"])}, flags

    monkeypatch.setattr(simson, "construct_core", mutant)


def x_at_a(monkeypatch):
    """X moved along altA to its other meet with cA, the vertex A: still on
    altA and cA, but off S."""
    real = simson.construct_core

    def mutant(params):
        stage, flags = real(params)
        return {**stage, "X": stage["A"]}, flags

    monkeypatch.setattr(simson, "construct_core", mutant)


@pytest.mark.parametrize("mutate", [shifted_q, x_at_a], ids=["Q", "X"])
def test_construction_mutant_fails_xyz_incidences(monkeypatch, golden_params, mutate):
    mutate(monkeypatch)
    scene = build_scene(golden_params)
    monkeypatch.undo()
    result = run_checks(scene).result("xyz_incidences")
    assert not result.passed
    assert result.witness["off"] == "S"


def test_moved_s_fails_the_audit_and_xyz_incidences(monkeypatch, golden_params):
    """The scene and the audit read one S: a stage S moved off X, Y, Z is a
    MISMATCH of Eq2.8 and fails xyz_incidences."""
    moved_s(monkeypatch)
    scene, audit = build_scene(golden_params), audit_printed_formulas(golden_params)
    monkeypatch.undo()
    assert not audit.result("eq2.8").passed
    result = run_checks(scene).result("xyz_incidences")
    assert not result.passed
    assert result.witness["off"] == "S"


def test_exact_stage_skips_the_near_j_test(monkeypatch):
    """A vertex (2d^2, 2nd, d^2 + n^2) is never J on exact, so the stage
    compares vertices with J only on float."""
    calls = []
    real = geom._same_h
    monkeypatch.setattr(geom, "_same_h", lambda *args: calls.append(args) or real(*args))
    for backend, want in ((EXACT, 0), (FloatBackend(), 3)):
        calls.clear()
        stage, _ = simson.construct_core(Params.make(1, 2, 3, Fraction(1, 2), backend=backend))
        verts = [stage[v] for v in simson.VERTEX_ORDER]
        near_j = [args for args in calls if args[1] in verts and args[2] == stage["J"]]
        assert len(near_j) == want


@pytest.mark.parametrize("mag,seed", [(10, 3), (10 ** 200, 5)], ids=["mag10", "mag1e200"])
def test_exact_run_builds_no_three_point_circle(monkeypatch, mag, seed):
    """On exact, building, checking and auditing an instance builds every
    circle from its centre and compares no magnitudes in geom."""
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(geom, "_circle_through3_h", counted("circle", geom._circle_through3_h))
    monkeypatch.setattr(geom, "abs", counted("abs", abs), raising=False)
    instances, _ = fuzz_instances(FuzzConfig(seed=seed, count=5, max_numerator=mag,
                                             max_denominator=mag))
    for _, params, scene in instances:
        assert run_checks(scene).all_pass
        audit_printed_formulas(params)
    assert calls == []


# -- double_simson_line against the three-point circle -------------------------------


def ref_double_simson_line(j, p, q, r):
    """The route before: j tested on the circle through p, q and r, then the
    line through the first distinct pair of its reflections in the sides."""
    if not geom.on_circle(geom.circle_through3(p, q, r), j):
        raise NotOnCircumcircle("point is not on the circumcircle of the triangle")
    refs = [geom.reflect_in_line(j, geom.line_through(u, v)) for u, v in ((q, r), (r, p), (p, q))]
    if not geom.collinear3(*refs):
        raise NotCollinear("side reflections failed to line up")
    for u, v in ((0, 1), (0, 2), (1, 2)):
        if not geom.points_equal(refs[u], refs[v]):
            return geom.line_through(refs[u], refs[v])
    raise AllCoincident("all three reflections coincide")


def outcome(fn, args):
    try:
        return "=", fn(*args)._h
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


def double_simson_inputs(mag, seed, rounds):
    """(j, p, q, r) quadruples: random, collinear, with a repeated point, and
    with all four on one circle (j also at a vertex, and on a degenerate
    triangle)."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-mag, mag), rng.randint(1, mag))

    def pt():
        return P(rat(), rat())

    out = []
    for _ in range(rounds):
        j, p, q, r = pt(), pt(), pt(), pt()
        (px, py), (dx, dy), k, m = (rat(), rat()), (rat(), rat()), rat(), rat()
        line = [P(px + s * dx, py + s * dy) for s in (0, k, m)]
        # the rational points c + rho ((1 - s^2), 2s) / (1 + s^2) of one circle
        cx, cy, rho = rat(), rat(), rat() or Fraction(1)
        on = [P(cx + rho * (1 - s * s) / (1 + s * s), cy + rho * 2 * s / (1 + s * s))
              for s in (rat(), rat(), rat(), rat())]
        out += [
            (j, p, q, r), (j, *line), (line[1], *line), (j, p, p, r), (j, p, q, q),
            (j, r, q, r), (p, p, p, p), (*on,), (on[0], on[1], on[0], on[2]),
            (on[1], on[1], on[2], on[3]), (on[3], on[1], on[2], on[3]),
            (on[0], on[1], on[2], on[2]), (p, *on[1:]), (on[0], p, on[2], on[3]),
        ]
    return out


@pytest.mark.parametrize("mag,seed,rounds", [(10, 41, 40), (10 ** 200, 42, 4)],
                         ids=["mag10", "mag1e200"])
def test_double_simson_line_matches_the_three_point_route(mag, seed, rounds):
    seen = set()
    for args in double_simson_inputs(mag, seed, rounds):
        want = outcome(ref_double_simson_line, args)
        assert outcome(double_simson_line, args) == want, args
        seen.add(want[0] if want[0] == "=" else want[1])
    assert seen == {"=", "NotOnCircumcircle", "CollinearPoints"}
