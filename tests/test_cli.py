import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET

import pytest

from oblique_simson import simson, verify
from oblique_simson.cli import main

GOLDEN = ["--a", "1", "--b", "2", "--c", "3", "--t", "1/2"]

# the interpreter's integer-to-text digit limit (0: none)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestConstruct:
    def test_writes_json_and_svg(self, tmp_path, capsys):
        out_json = tmp_path / "scene.json"
        out_svg = tmp_path / "scene.svg"
        code = main(["construct", *GOLDEN,
                     "--json", str(out_json), "--svg", str(out_svg)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Q   = (-7/5, 1)" in captured.out
        doc = json.loads(out_json.read_text())
        assert doc["points"]["Q"] == ["-7/5", "1"]
        root = ET.fromstring(out_svg.read_text())
        labels = [el for el in root.iter() if el.tag.endswith("text")]
        assert len(labels) == 17

    def test_degenerate_input_exits_2(self, capsys):
        code = main(["construct", "--a", "1", "--b", "1", "--c", "3", "--t", "0"])
        assert code == 2
        assert "degenerate triangle: a = b" in capsys.readouterr().err

    def test_unparseable_scalar_exits_2(self, capsys):
        code = main(["construct", "--a", "x", "--b", "2", "--c", "3", "--t", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_flag_exits_2(self, capsys):
        assert main(["construct", "--a", "1", "--b", "2", "--c", "3"]) == 2

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    def test_unwritable_output_exits_2(self, flag, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out"
        code = main(["construct", *GOLDEN, flag, str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {target}: No such file or directory\n"

    def test_svg_beyond_float_range_exits_2(self, tmp_path, capsys):
        out_svg = tmp_path / "scene.svg"
        # Q is past the float range (at 1e154 only the squared radii are, and it draws)
        code = main(["construct", "--a", "1", "--b", "2", "--c", "3", "--t", "1e310",
                     "--svg", str(out_svg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: scene value exceeds the float range of the SVG canvas\n"
        assert not out_svg.exists()

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_value_beyond_text_limit_exits_2(self, tmp_path, capsys):
        # a parses, but the vertex coordinates have about twice its digits
        a = "7" * (INT_TEXT_LIMIT // 2 + 100)
        out_json = tmp_path / "scene.json"
        code = main(["construct", "--a", a, "--b", "2", "--c", "3", "--t", "1/2",
                     "--json", str(out_json)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a value has too many digits to write as text\n"
        assert not out_json.exists()

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    @pytest.mark.parametrize("flag", [["--t", "1e{}"], ["--t", "1e-{}"], ["--t=-2.5e-{}"]],
                             ids=["big", "small", "merged-negative"])
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_exponent_past_text_limit_exits_2(self, flag, backend, capsys):
        """Before the bound, a float run read 1e-5000 as 0.0 and an exact
        one built 10**exponent for as long as that took."""
        flag = [part.format(INT_TEXT_LIMIT + 1) for part in flag]
        code = main(["verify", "--a", "1", "--b", "2", "--c", "3", "--backend", backend,
                     *flag])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        value = flag[-1].replace("--t=", "")
        assert captured.err == ("error: decimal exponent past the integer-to-text "
                                f"limit {INT_TEXT_LIMIT}: {value!r}\n")

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_negative_value_past_text_limit_names_the_limit(self, capsys):
        """"--t -1e..." past the bound is merged like any negative value, so
        its own ParseError is printed, not argparse's "expected one argument"."""
        value = f"-1e-{INT_TEXT_LIMIT + 1}"
        code = main(["verify", "--a", "1", "--b", "2", "--c", "3", "--t", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: decimal exponent past the integer-to-text "
                                f"limit {INT_TEXT_LIMIT}: {value!r}\n")

    def test_float_underflow_exits_2(self, capsys):
        """A nonzero value that rounds to 0.0 on the float backend is an input
        error: read as 0.0 it would silently run the classical t = 0 case."""
        code = main(["verify", "--a", "1", "--b", "2", "--c", "3", "--t", "1e-400",
                     "--backend", "float"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: nonzero value is below the float range "
                                "(rounds to 0.0)\n")

    def test_negative_rational_values(self, capsys):
        # both "--t -2/3" and "--t=-2/3" must parse
        code = main(["verify", "--a", "-3/7", "--b", "1/4", "--c", "5",
                     "--t", "-2/3"])
        assert code == 0
        assert "19/19 checks passed" in capsys.readouterr().out
        code = main(["verify", "--a=-3/7", "--b", "1/4", "--c", "5", "--t=-2/3"])
        assert code == 0
        code = main(["verify", "--a", "-.5", "--b", "1/4", "--c", "5", "--t", "-2/3"])
        assert code == 0


class TestVerify:
    def test_golden_all_pass(self, capsys):
        code = main(["verify", *GOLDEN])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(" PASS") == 19
        assert "FAIL" not in out
        assert "19/19 checks passed" in out

    def test_t_zero_instance(self, capsys):
        code = main(["verify", "--a", "1", "--b", "2", "--c", "3", "--t", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t_zero_reduction" in out and "19/19 checks passed" in out

    @pytest.mark.parametrize("command", ["verify", "audit", "construct"])
    def test_float_vertex_at_j_exits_2(self, command, capsys):
        """A float vertex within the tolerance of J is reported as the
        degenerate triangle it is, by every command that builds the stage."""
        code = main([command, "--a", "10000000000", "--b", "2", "--c", "3", "--t", "1/2",
                     "--backend", "float"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degenerate triangle: vertex A coincides with J\n"

    def test_float_backend_passes(self, capsys):
        code = main(["verify", *GOLDEN, "--backend", "float", "--eps", "1e-9"])
        assert code == 0
        assert "19/19 checks passed" in capsys.readouterr().out

    def test_float_tolerance_miss_is_a_check_failure(self, capsys):
        flags = ["--a", "5/946", "--b", "5/274", "--c", "1/190", "--t", "9/769"]
        assert main(["verify", *flags, "--backend", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "hagge_center_and_members                 FAIL  center=(" \
            in captured.out
        assert main(["verify", *flags]) == 0
        assert "19/19 checks passed" in capsys.readouterr().out

    def test_eps_below_roundoff_is_an_input_error(self, capsys):
        # below double roundoff the construction cannot certify its own
        # invariants, which is rejected as bad input (2), not a check failure
        code = main(["verify", *GOLDEN, "--backend", "float", "--eps", "1e-18"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1", "2"])
    def test_eps_not_finite_positive_is_an_input_error(self, eps, capsys):
        code = main(["verify", *GOLDEN, "--backend", "float", "--eps", eps])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --eps:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", *GOLDEN], ["construct", *GOLDEN], ["audit", *GOLDEN],
        ["audit", "--seed", "7", "--count", "2"],
    ], ids=["verify", "construct", "audit", "audit-seeded"])
    def test_eps_without_float_backend_exits_2(self, argv, capsys):
        code = main([*argv, "--eps", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --eps applies only to --backend float\n"

    def test_float_overflow_is_an_input_error(self, capsys):
        code = main(["verify", "--a", "1e400", "--b", "2", "--c", "3", "--t", "1",
                     "--backend", "float"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_check_failures_exit_1(self, capsys, monkeypatch):
        # on valid input the exact checks cannot fail (that is the point of
        # the toolkit), so the failure branch is exercised at the seam
        import dataclasses

        from oblique_simson import verify as verify_mod

        real = verify_mod.run_checks

        def failing(scene):
            report = real(scene)
            broken = dataclasses.replace(
                report.results[0], passed=False, witness={"residual": "1"})
            return dataclasses.replace(report, results=(broken,) + report.results[1:])

        monkeypatch.setattr(verify_mod, "run_checks", failing)
        monkeypatch.setattr("oblique_simson.cli.verify.run_checks", failing)
        code = main(["verify", *GOLDEN])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "18/19 checks passed" in out


class TestFuzz:
    def test_deterministic_output(self, capsys):
        assert main(["fuzz", "--seed", "42", "--count", "15"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "42", "--count", "15"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "15/15 pass" in first

    def test_count_zero_exits_2(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 2
        assert "count" in capsys.readouterr().err

    def test_include_t_zero(self, capsys):
        assert main(["fuzz", "--seed", "5", "--count", "2", "--include-t-zero"]) == 0
        assert "include-t-zero=yes" in capsys.readouterr().out

    def test_checks_each_instance_as_drawn(self, monkeypatch, capsys):
        """fuzz keeps no Report: at most two are alive at once, and it prints
        the text of verify.fuzz's reports, FAIL lines and exit code included.
        An instance whose a has an even numerator is checked with Q moved to
        H, so that some instances fail."""
        run_checks, reports, alive = verify.run_checks, [], []

        def tracked(scene):
            if scene.params.a._ratio()[0] % 2 == 0:
                scene = dataclasses.replace(scene, points={**scene.points, "Q": scene.points["H"]})
            report = run_checks(scene)
            reports.append(weakref.ref(report))
            alive.append(sum(ref() is not None for ref in reports))
            return report

        monkeypatch.setattr(verify, "run_checks", tracked)
        code = main(["fuzz", "--seed", "42", "--count", "50"])
        assert len(reports) == 50 and max(alive) <= 2
        result = verify.fuzz(verify.FuzzConfig(seed=42, count=50))
        monkeypatch.undo()
        want = ["seed=42 count=50 max-mag=10 max-den=10 include-t-zero=no"]
        for i, report in enumerate(result.reports):
            params = " ".join(f"{k}={v}" for k, v in report.params.items())
            want += [f"instance {i} ({params}): FAIL {failure.name}  "
                     + " ".join(f"{k}={v}" for k, v in failure.witness.items())
                     for failure in report.failures]
        want.append(result.summary())
        assert capsys.readouterr().out == "\n".join(want) + "\n"
        assert 0 < result.pass_count < 50 and code == 1


class TestAudit:
    def test_single_instance_table(self, capsys):
        assert main(["audit", *GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "Eq2.3 vertex-image line" in out
        assert out.count("MATCH") >= 6
        assert "Eq2.5 orthocentre x" in out and "MISMATCH" in out
        assert "printed=-28/25 constructive=-2/5" in out
        assert "printed=0 constructive=-20" in out

    def test_seeded_aggregate(self, capsys):
        assert main(["audit", "--seed", "7", "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert "aggregate over 6 instances:" in out
        assert "Eq2.3 vertex-image line        MATCH 6  MISMATCH 0" in out
        assert "Eq2.8 circle through X,Y,Z     MATCH 6  MISMATCH 0" in out

    def test_seeded_audit_constructs_each_instance_once(self, monkeypatch, capsys):
        """audit --seed builds no scene, and one stage per instance that it
        does not keep: at most two are alive at once."""
        build, core, builds, stages, alive = simson.build_scene, simson.construct_core, [], [], []

        class Stage(dict):
            pass  # a dict that a weakref can follow

        def tracked_build(params):
            builds.append(params)
            return build(params)

        def tracked_core(params):
            stage, flags = core(params)
            stage = Stage(stage)
            stages.append(weakref.ref(stage))
            alive.append(sum(ref() is not None for ref in stages))
            return stage, flags

        monkeypatch.setattr(simson, "build_scene", tracked_build)
        monkeypatch.setattr(simson, "construct_core", tracked_core)
        assert main(["audit", "--seed", "7", "--count", "30"]) == 0
        monkeypatch.undo()
        assert "aggregate over 30 instances:" in capsys.readouterr().out
        assert builds == [] and len(stages) == 30 and max(alive) <= 2

    def test_partial_scene_flags_exit_2(self, capsys):
        assert main(["audit", "--a", "1", "--b", "2"]) == 2

    def test_seeded_float_backend_exits_2(self, capsys):
        code = main(["audit", "--seed", "7", "--count", "2",
                     "--backend", "float", "--eps", "1e-6"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_no_mode_exits_2(self, capsys):
        assert main(["audit"]) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--count", "--max-mag", "--max-den"])
    def test_single_instance_rejects_seeded_flags(self, flag, capsys):
        code = main(["audit", *GOLDEN, flag, "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: audit --a/--b/--c/--t does not take {flag}\n"

    def test_seeded_defaults(self, capsys):
        assert main(["audit", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed=7 count=100 max-mag=10 max-den=10\n")
        assert "aggregate over 100 instances:" in out


class _BufferedClosedStdout(io.StringIO):
    """A buffered stdout whose reader has gone away: writes land in the
    buffer, and flushing it fails."""

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class _UnbufferedClosedStdout(_BufferedClosedStdout):
    """An unbuffered stdout whose reader has gone away: every write fails."""

    def write(self, _text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("stub", [_BufferedClosedStdout, _UnbufferedClosedStdout],
                             ids=["buffered", "unbuffered"])
    def test_exits_2_and_points_stdout_at_devnull(self, stub, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", stub())
        code = main(["audit", "--seed", "7", "--count", "3"])
        devnull, sys.stdout = sys.stdout, sys.__stdout__
        devnull.close()
        assert code == 2
        assert devnull.name == os.devnull
        assert capsys.readouterr().err == ""

    def test_real_pipe_closed_by_reader(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "oblique_simson", "audit", "--seed", "7", "--count", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == b""


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "oblique_simson", "verify", *GOLDEN],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "19/19 checks passed" in proc.stdout

    def test_module_invocation_bad_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "oblique_simson", "construct", "--a", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
