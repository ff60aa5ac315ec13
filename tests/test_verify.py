import dataclasses
from fractions import Fraction

import pytest

from conftest import E, P
from oblique_simson import (
    Circle,
    FloatBackend,
    FuzzConfig,
    Params,
    audit_printed_formulas,
    build_scene,
    fuzz,
    run_checks,
)
from oblique_simson.verify import AUDIT_NAMES, CHECK_NAMES, SplitMix64, fuzz_instances


class TestRunChecks:
    def test_golden_all_pass(self, golden_scene):
        report = run_checks(golden_scene)
        assert report.all_pass
        assert [r.name for r in report.results] == list(CHECK_NAMES)
        assert len(report.results) == 19
        assert report.backend == "exact"
        assert report.params == {"a": "1", "b": "2", "c": "3", "t": "1/2"}
        assert report.flags == ("tangent:AA0",)

    def test_t_zero_reduction_is_conditional(self, golden_scene, classical_scene):
        skipped = run_checks(golden_scene).result("t_zero_reduction")
        assert skipped.passed and "not applicable" in skipped.witness["note"]
        ran = run_checks(classical_scene).result("t_zero_reduction")
        assert ran.passed and ran.witness is None

    def test_classical_all_pass(self, classical_scene):
        assert run_checks(classical_scene).all_pass

    def test_deterministic(self, golden_scene):
        assert run_checks(golden_scene) == run_checks(golden_scene)

    def test_perturbed_L_fails_with_witness(self, golden_scene):
        corrupted = dataclasses.replace(
            golden_scene,
            points={**golden_scene.points, "L": P("-399/1000", 0)},
        )
        report = run_checks(corrupted)
        assert not report.all_pass
        l_check = report.result("L_on_BC")
        assert not l_check.passed
        assert l_check.witness["residual"] != "0"
        # every failing check carries a witness, and none of them raises
        for r in report.failures:
            assert r.witness

    def test_corrupted_scene_never_raises(self, golden_scene):
        corrupted = dataclasses.replace(
            golden_scene,
            points={**golden_scene.points, "L": P(0, 0), "Q": P(9, 9)},
        )
        report = run_checks(corrupted)   # must complete without exceptions
        assert not report.all_pass
        assert report.result("q_on_line").witness is not None


# a float instance whose tolerance misses the centre of S (exact: 19/19)
FLOAT_MISS = ("5/946", "5/274", "1/190", "9/769")


def _with(scene, **changes):
    """The scene with some points or circles replaced."""
    return dataclasses.replace(scene, **{
        kind: {**getattr(scene, kind), **objects} for kind, objects in changes.items()})


class TestSingleVerdictPath:
    """build_scene builds without asserting the paper's identities; each one
    has its verdict in a named check, with a witness."""

    def test_float_tolerance_miss_is_a_named_fail(self):
        scene = build_scene(Params.make(*FLOAT_MISS, backend=FloatBackend(1e-9)))
        hagge = run_checks(scene).result("hagge_center_and_members")
        assert not hagge.passed
        assert set(hagge.witness) == {"center", "Q"}
        assert hagge.witness["center"] != hagge.witness["Q"]
        exact = run_checks(build_scene(Params.make(*FLOAT_MISS)))
        assert exact.all_pass and len(exact.results) == 19

    @pytest.mark.parametrize("changes,check,witness", [
        ({"points": {"K": P(1, 2)}},
         "on_circumcircle", {"point": "K", "residual": "3"}),
        ({"circles": {"S": Circle(E(3), E(-2), E(0))}},
         "hagge_center_and_members", {"center": "(-3/2, 1)", "Q": "(-7/5, 1)"}),
        ({"circles": {"Sigma0": Circle(E(-1), E(-1), E(Fraction(1, 10)))}},
         "sigma0_through_J_and_K", {"point": "A0", "residual": "1/10"}),
        ({"points": {"A0": P(0, 2)}},
         "perspector_common", {"vertex": "A", "second": "(2, 0)", "K": "(1, 1)"}),
    ], ids=["K-off-Sigma", "S-centre-moved", "Sigma0-constant", "AA0-misses-K"])
    def test_corrupted_object_fails_its_check(self, golden_scene, changes, check,
                                              witness):
        report = run_checks(_with(golden_scene, **changes))
        result = report.result(check)
        assert not result.passed
        assert result.witness == witness


class TestSplitMix64:
    def test_reference_stream(self):
        # published outputs of the seed-0 stream
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_rational_bounds(self):
        rng = SplitMix64(99)
        for _ in range(500):
            r = rng.rational(7, 4)
            assert abs(r.numerator) <= 7
            assert 1 <= r.denominator <= 4

    def test_seed_determinism(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


class TestFuzz:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, count=0)
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, count=5, max_numerator=0)
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, count=5, max_denominator=0)

    def test_small_run_passes_and_is_deterministic(self):
        config = FuzzConfig(seed=42, count=25)
        first = fuzz(config)
        second = fuzz(config)
        assert first == second
        assert first.all_pass
        assert first.summary() == "25/25 pass"
        assert first.skips == ()

    def test_prefix_stability(self):
        # the first k instances of a longer run equal the k-instance run
        short = fuzz(FuzzConfig(seed=7, count=5))
        long = fuzz(FuzzConfig(seed=7, count=12))
        assert long.reports[:5] == short.reports

    def test_include_t_zero(self):
        result = fuzz(FuzzConfig(seed=3, count=1, include_t_zero=True))
        assert result.reports[0].params["t"] == "0"
        assert result.reports[0].result("t_zero_reduction").witness is None
        assert result.all_pass

    def test_distinct_parameters(self):
        instances, skips = fuzz_instances(FuzzConfig(seed=11, count=40))
        assert skips == []
        for _, params, _scene in instances:
            values = {params.a.value, params.b.value, params.c.value}
            assert len(values) == 3


class TestAudit:
    def test_golden_verdicts(self, golden_params):
        report = audit_printed_formulas(golden_params)
        assert [r.name for r in report.results] == list(AUDIT_NAMES)
        verdicts = {r.name: r.passed for r in report.results}
        assert verdicts == {
            "eq2.3": True, "eq2.4": True,
            "eq2.5.x": False, "eq2.5.y": True,
            "eq2.6.coeffs": True, "eq2.6.const": False,
            "eq2.7": True, "eq2.8": True,
        }

    def test_golden_witnesses(self, golden_params):
        report = audit_printed_formulas(golden_params)
        x = report.result("eq2.5.x").witness
        assert x == {"printed": "-28/25", "constructive": "-2/5"}
        const = report.result("eq2.6.const").witness
        assert const["printed"] == "0" and const["constructive"] == "-20"

    def test_mismatch_vanishes_when_b_plus_c_is_zero(self):
        report = audit_printed_formulas(Params.make(1, 2, -2, Fraction(1, 3)))
        assert report.result("eq2.6.const").passed        # coincidence: b + c = 0
        assert not report.result("eq2.5.x").passed        # abc = -4 != 0

    def test_mismatch_vanishes_when_abc_is_zero(self):
        report = audit_printed_formulas(Params.make(0, 1, 2, Fraction(1, 3)))
        assert report.result("eq2.5.x").passed            # coincidence: abc = 0
        assert not report.result("eq2.6.const").passed    # b + c = 3 != 0

    def test_both_coincidences(self):
        report = audit_printed_formulas(Params.make(0, 2, -2, Fraction(1, 3)))
        assert report.all_pass

    def test_float_backend_audit(self, golden_params):
        from oblique_simson import FloatBackend
        fb = FloatBackend(1e-9)
        params = Params.make(1, 2, 3, 0.5, backend=fb)
        report = audit_printed_formulas(params)
        verdicts = {r.name: r.passed for r in report.results}
        assert not verdicts["eq2.5.x"] and not verdicts["eq2.6.const"]
        assert verdicts["eq2.3"] and verdicts["eq2.8"]
