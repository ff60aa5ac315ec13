"""Command-line front end: construct, verify, fuzz, audit.

Exit codes (stable contract): 0 success / all checks pass, 1 check failures,
2 usage or input errors.  A command reports an input error by raising a
GeometryError, which main prints as one "error:" line.  All output is a
deterministic function of the flags, including the fuzz and audit streams
(seeded SplitMix64).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import sceneio, verify
from .errors import GeometryError, OutputError, ParseError
from .numeric import EXACT, Backend, FloatBackend
from .simson import Params, build_scene
from .verify import AUDIT_NAMES, FuzzConfig, Report

_AUDIT_LABELS = {
    "eq2.3": "Eq2.3 vertex-image line",
    "eq2.4": "Eq2.4 vertex circle",
    "eq2.5.x": "Eq2.5 orthocentre x",
    "eq2.5.y": "Eq2.5 orthocentre y",
    "eq2.6.coeffs": "Eq2.6 altitude coefficients",
    "eq2.6.const": "Eq2.6 altitude constant",
    "eq2.7": "Eq2.7 altitude-circle point",
    "eq2.8": "Eq2.8 circle through X,Y,Z",
}


def _add_scene_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--a", required=required, metavar="RAT",
                        help="vertex parameter a (rational, e.g. 1, -3/4, 0.25)")
    parser.add_argument("--b", required=required, metavar="RAT",
                        help="vertex parameter b")
    parser.add_argument("--c", required=required, metavar="RAT",
                        help="vertex parameter c")
    parser.add_argument("--t", required=required, metavar="RAT",
                        help="similarity parameter t (t=0: classical case)")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("exact", "float"), default="exact",
                        help="arithmetic backend (default: exact)")
    parser.add_argument("--eps", type=float, default=None, metavar="EPS",
                        help="absolute tolerance for --backend float (default 1e-9)")


def _backend_from_args(args) -> Backend:
    if args.backend != "float":
        if args.eps is not None:
            raise ParseError("--eps applies only to --backend float")
        return EXACT
    try:
        return FloatBackend() if args.eps is None else FloatBackend(args.eps)
    except ValueError as exc:
        raise ParseError(f"--eps: {exc}") from exc


def _params_from_args(args) -> Params:
    backend = _backend_from_args(args)
    return Params(*(backend.parse(getattr(args, k)) for k in ("a", "b", "c", "t")))


def _print_report(report: Report) -> None:
    print(f"backend: {report.backend}")
    print("params: " + " ".join(f"{k}={v}" for k, v in report.params.items()))
    print("flags: " + (", ".join(report.flags) if report.flags else "(none)"))
    for r in report.results:
        if r.passed:
            note = f" ({r.witness['note']})" if r.witness and "note" in r.witness else ""
            print(f"{r.name:<40} PASS{note}")
        else:
            detail = " ".join(f"{k}={v}" for k, v in (r.witness or {}).items())
            print(f"{r.name:<40} FAIL  {detail}")
    total = len(report.results)
    passed = sum(1 for r in report.results if r.passed)
    print(f"{passed}/{total} checks passed")


def _fuzz_config(args, include_t_zero: bool = False) -> FuzzConfig:
    try:
        return FuzzConfig(seed=args.seed, count=args.count, max_numerator=args.max_mag,
                          max_denominator=args.max_den, include_t_zero=include_t_zero)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cmd_construct(args) -> int:
    """Every output is rendered before any file is written, and the summary
    is printed only once every file is written."""
    scene = build_scene(_params_from_args(args))
    writers = ((args.json, sceneio.scene_to_json), (args.svg, sceneio.render_svg))
    for path, text in [(path, render(scene)) for path, render in writers if path]:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    sys.stdout.write(sceneio.scene_summary(scene))
    return 0


def cmd_verify(args) -> int:
    report = verify.run_checks(build_scene(_params_from_args(args)))
    _print_report(report)
    return 0 if report.all_pass else 1


def cmd_fuzz(args) -> int:
    config = _fuzz_config(args, args.include_t_zero)
    print(f"seed={config.seed} count={config.count} "
          f"max-mag={config.max_numerator} max-den={config.max_denominator} "
          f"include-t-zero={'yes' if config.include_t_zero else 'no'}")
    passed = 0
    for i, params in verify._instances(config):  # each checked as drawn, and not kept
        report = verify.run_checks(build_scene(params))
        passed += report.all_pass
        for failure in report.failures:
            pstr = " ".join(f"{k}={v}" for k, v in report.params.items())
            detail = " ".join(f"{k}={v}" for k, v in (failure.witness or {}).items())
            print(f"instance {i} ({pstr}): FAIL {failure.name}  {detail}")
    print(f"{passed}/{config.count} pass")
    return 0 if passed == config.count else 1


def _audit_single(params: Params) -> None:
    report = verify.audit_printed_formulas(params)
    print("params: " + " ".join(f"{k}={v}" for k, v in report.params.items()))
    for r in report.results:
        label = _AUDIT_LABELS[r.name]
        if r.passed:
            print(f"{label:<30} MATCH")
        else:
            detail = " ".join(f"{k}={v}" for k, v in (r.witness or {}).items())
            print(f"{label:<30} MISMATCH  {detail}")


def cmd_audit(args) -> int:
    scene_flags = [getattr(args, k) for k in ("a", "b", "c", "t")]
    seeded_flags = {"--seed": args.seed, "--count": args.count,
                    "--max-mag": args.max_mag, "--max-den": args.max_den}
    if any(v is not None for v in scene_flags):
        if not all(v is not None for v in scene_flags):
            raise ParseError("audit needs all of --a --b --c --t (or --seed/--count)")
        given = [flag for flag, v in seeded_flags.items() if v is not None]
        if given:
            raise ParseError(f"audit --a/--b/--c/--t does not take {', '.join(given)}")
        _audit_single(_params_from_args(args))
        return 0
    if args.seed is None:
        raise ParseError("audit needs either --a/--b/--c/--t or --seed [--count]")
    if _backend_from_args(args) is not EXACT:
        raise ParseError("audit --seed runs on the exact backend only; "
                         "--backend float needs --a/--b/--c/--t")
    # None marks a flag not given, which single-instance mode rejects
    for name, default in (("count", 100), ("max_mag", 10), ("max_den", 10)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    config = _fuzz_config(args)
    print(f"seed={config.seed} count={config.count} "
          f"max-mag={config.max_numerator} max-den={config.max_denominator}")
    match_counts = {name: 0 for name in AUDIT_NAMES}
    for i, params in verify._instances(config):
        report = verify.audit_printed_formulas(params)
        mism = [r.name for r in report.results if not r.passed]
        for r in report.results:
            if r.passed:
                match_counts[r.name] += 1
        pstr = " ".join(f"{k}={v}" for k, v in report.params.items())
        verdict = "MISMATCH " + ",".join(mism) if mism else "all MATCH"
        print(f"instance {i} ({pstr}): {verdict}")
    print(f"aggregate over {config.count} instances:")
    for name in AUDIT_NAMES:
        m = match_counts[name]
        print(f"  {_AUDIT_LABELS[name]:<30} MATCH {m}  MISMATCH {config.count - m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblique-simson",
        description="Construct and verify oblique Wallace-Simson lines "
                    "in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser(
        "construct", help="build a scene; optionally write JSON and SVG")
    _add_scene_flags(p_construct, required=True)
    _add_backend_flags(p_construct)
    p_construct.add_argument("--json", metavar="PATH", help="write the scene document")
    p_construct.add_argument("--svg", metavar="PATH", help="write an SVG figure")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser(
        "verify", help="run all named checks on one instance")
    _add_scene_flags(p_verify, required=True)
    _add_backend_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="check many seeded random rational instances")
    p_fuzz.add_argument("--seed", type=int, default=42)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--max-mag", type=int, default=10,
                        help="max |numerator| of random parameters")
    p_fuzz.add_argument("--max-den", type=int, default=10,
                        help="max denominator of random parameters")
    p_fuzz.add_argument("--include-t-zero", action="store_true",
                        help="force t=0 on the first instance")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_audit = sub.add_parser(
        "audit", help="compare the handed-down closed forms against the construction")
    _add_scene_flags(p_audit, required=False)
    _add_backend_flags(p_audit)
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--count", type=int, default=None, help="default 100")
    p_audit.add_argument("--max-mag", type=int, default=None, help="default 10")
    p_audit.add_argument("--max-den", type=int, default=None, help="default 10")
    p_audit.set_defaults(func=cmd_audit)

    return parser


_VALUE_FLAGS = {"--a", "--b", "--c", "--t"}
_NEGATIVE_VALUE = re.compile(r"-[0-9.]").match


def _merge_negative_values(argv: Sequence[str]) -> list:
    """Join "--t -2/3" into "--t=-2/3" so negative rationals parse.

    argparse only recognizes plain negative numbers as values, not forms
    like -3/7; merging keeps both spellings working.  A value flag followed
    by "-" and a digit or "." is always merged, so a value that does not
    parse reports its own ParseError.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and _NEGATIVE_VALUE(nxt):
            out.append(f"{tok}={nxt}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: whatever is still buffered goes nowhere,
        # so the interpreter's own flush at exit cannot fail again
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 2
