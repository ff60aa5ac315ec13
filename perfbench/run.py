#!/usr/bin/env python3
"""Benchmark of the oblique-simson package, driven from outside through its public calls.

    python3 perfbench/run.py --workload fuzz-exact --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One process, one caller, a closed loop: each instance starts when the previous
one has ended, with no threads.  The seed fixes a pool of parameter tuples,
drawn with the README's SplitMix64 stream; the loop makes passes over the pool
until the given seconds have passed, so every instance runs many times at
moments spread over the run.  An instance's latency is the best of its runs,
which filters out the stretches in which other tenants of the machine slow
it down.  Every run's outcome is checked (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it makes untraced passes for half the time, then one pass
with spans around the package's seams (``spans.py``), then a counting pass
and the scalar microbenchmarks (``micro.py``), and writes the spans to
``perfbench/out/trace-<workload>.json.gz``.

The last line of standard output is the result object; the line before it
holds the run's provenance and outcome counts.  Instances whose outcome is
wrong are listed on standard error with their parameters.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from inputs import draw_pool
from micro import numeric_micro
from spans import OpCounter, SpanStats, Tracer
from workloads import WORKLOADS, classify_float, coord_bits, judge_exact_report, run_audit_io

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 11
MAX_LISTED_PROBLEMS = 20

# Seams reported with calls only: they build constants and do no arithmetic.
CALLS_ONLY = {"geom.point", "simson.origin_j", "simson.circumcenter_o",
              "simson.circumcircle_sigma"}
# Public functions reported without calls and self time: build_scene has its
# inclusive time instead, and no workload runs normalize_frame.
NOT_SEAMS = {"simson.build_scene", "simson.normalize_frame"}
INCLUSIVE = ("simson.build_scene", "verify.run_checks", "verify.audit",
             "sceneio.scene_to_json", "sceneio.scene_from_json", "sceneio.render_svg")

def load_package():
    if not (SRC / "oblique_simson" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import oblique_simson
    if Path(oblique_simson.__file__).resolve().parent != SRC / "oblique_simson":
        raise SystemExit(f"perfbench: imported {oblique_simson.__file__}, not {SRC}")
    return oblique_simson


_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import oblique_simson
from inputs import draw_pool
backend = oblique_simson.FloatBackend({eps!r}) if {eps!r} else oblique_simson.EXACT
params = [oblique_simson.Params.make(*raw, backend=backend)
          for raw in draw_pool({seed}, {pool}, {num}, {den})]
print(time.perf_counter() - start)
"""


class SetupTimer:
    """Fresh-interpreter timings of `import oblique_simson` plus building the
    run's Params.  An untimed first child fills the bytecode cache."""

    def __init__(self, wl, seed: int):
        self._code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), eps=wl.float_eps,
                                         seed=seed, pool=wl.judged, num=wl.max_num,
                                         den=wl.max_den)
        self.samples: List[float] = []
        self._child()

    def _child(self) -> float:
        done = subprocess.run([sys.executable, "-I", "-c", self._code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout)

    def sample(self) -> None:
        self.samples.append(self._child())

    def sampler(self, seconds: float):
        """A `between` hook for run_passes that takes up to SETUP_SAMPLES
        samples spread evenly over `seconds`."""
        start = time.perf_counter()

        def between():
            due = len(self.samples) * seconds / SETUP_SAMPLES
            if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - start >= due:
                self.sample()
        return between

    def median_s(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


class Passes:
    """What the loop saw of each distinct instance of the pool."""

    def __init__(self, size: int):
        self.runs = [0] * size
        self.best_ns: List[Optional[int]] = [None] * size
        self.first: List[object] = [None] * size   # first outcome, kept as verify.fuzz keeps Reports
        self.problems: Dict[int, str] = {}          # first problem seen per instance
        self.failed_runs = 0
        self.latencies_ns: List[int] = []           # every run, in order
        self.wall_ns = 0


def run_passes(pkg, wl, params, raws, seconds: float, tracer=None, between=None) -> Passes:
    """Closed loop over the pool, pass after pass, until `seconds` have passed.

    The first pass runs the pool in order and always completes.  `between`
    runs before each pass, outside the timing.  Each outcome is judged right
    after its instance, untimed."""
    clock = time.perf_counter_ns
    seen = Passes(len(params))
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    passes = 0
    order = list(range(len(params)))
    while passes == 0 or clock() < deadline:
        if between is not None:
            between()
        for k in order:
            if passes and clock() >= deadline:
                break
            if tracer is not None:
                tracer.instance = k
            start = clock()
            try:
                outcome = wl.run(pkg, params[k])
            except Exception as exc:  # a raise is an outcome to judge, not a crash
                outcome = exc
            elapsed = clock() - start
            seen.latencies_ns.append(elapsed)
            if seen.runs[k] == 0:
                seen.best_ns[k] = elapsed
                seen.first[k] = outcome
            else:
                seen.best_ns[k] = min(seen.best_ns[k], elapsed)
            seen.runs[k] += 1
            if wl.judge is not None:
                problem = wl.judge(pkg, raws[k], outcome)
            elif float_summary(outcome) != float_summary(seen.first[k]):
                problem = "float verdict changed between runs"
            else:
                problem = None
            if problem is not None:
                seen.failed_runs += 1
                seen.problems.setdefault(k, problem)
        passes += 1
        # A fresh order per pass keeps an instance from always meeting the
        # same phase of the machine's slow stretches.
        random.Random(passes).shuffle(order)
    seen.wall_ns = clock() - begin
    return seen


def float_summary(outcome):
    if isinstance(outcome, BaseException):
        return type(outcome).__name__
    return tuple(r.name for r in outcome.failures)


def judge_float(pkg, raws, passes: List[Passes]) -> Dict[str, int]:
    """Sort each float instance against the exact oracle, computed here,
    outside the timed loops, and return run counts per class.  Runs of the
    'oracle' and 'crash' classes are added to `failed_runs`; every instance
    not in 'agree' is recorded as a problem."""
    counts = dict.fromkeys(("agree", "fail", "raise", "crash", "oracle"), 0)
    described = {"oracle": "exact oracle", "crash": "float crash",
                 "raise": "spurious raise", "fail": "false FAIL"}
    for k, raw in enumerate(raws):
        runs = sum(p.runs[k] for p in passes)
        if not runs:
            continue
        try:
            exact = pkg.run_checks(pkg.build_scene(pkg.Params.make(*raw)))
        except Exception as exc:  # judged like any exact outcome
            exact = exc
        oracle_problem = judge_exact_report(pkg, raw, exact)
        outcome = passes[0].first[k]
        verdict = classify_float(pkg, oracle_problem, outcome)
        counts[verdict] += runs
        if verdict in ("oracle", "crash"):
            passes[0].failed_runs += runs
        if verdict != "agree":
            detail = oracle_problem if verdict == "oracle" else float_summary(outcome)
            passes[0].problems.setdefault(k, f"{described[verdict]}: {detail}")
    return counts


def fuzz_prefix_problem(pkg, wl, seed, raws, first):
    """The pool's prefix must equal the package's own fuzz stream, and on the
    exact fuzz workloads our Reports must equal verify.fuzz's."""
    config = pkg.FuzzConfig(seed=seed, count=wl.fuzz_prefix,
                            max_numerator=wl.max_num, max_denominator=wl.max_den)
    instances, _ = pkg.verify.fuzz_instances(config)
    for i, params, _ in instances:
        drawn = tuple(s.value for s in (params.a, params.b, params.c, params.t))
        if drawn != raws[i]:
            return f"instance {i}: verify.fuzz drew {drawn}, the benchmark {raws[i]}"
    if wl.judge is judge_exact_report:
        for i, report in enumerate(pkg.fuzz(config).reports):
            if report != first[i]:
                return f"instance {i}: Report differs from verify.fuzz"
    return None


def decile_ms(values_ns, which: int) -> float:
    return statistics.quantiles(values_ns, n=10)[which - 1] / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def span_metrics(stats: SpanStats, seams: List[str], instances: int) -> dict:
    """Per-instance metrics of the installed seams only, so a seam that is
    gone yields no metric rather than a zero."""
    out = {}
    for name in seams:
        if name.startswith(("geom.", "simson.")) and name not in NOT_SEAMS:
            out[f"{name}.calls"] = stats.calls.get(name, 0) / instances
            if name not in CALLS_ONLY:
                out[f"{name}.self_us"] = stats.self_ns.get(name, 0) / instances / 1e3
        if name in INCLUSIVE or name.startswith(("verify.check.", "verify.audit.")):
            out[f"{name}.us"] = stats.inclusive_ns.get(name, 0) / instances / 1e3
    return out


def count_metrics(pkg, wl, params) -> dict:
    """Operation counts, coordinate size and output size over the pool; they
    depend on the seed alone."""
    counter = OpCounter(pkg.numeric.Scalar)
    try:
        for p in params:
            try:
                wl.run(pkg, p)
            except Exception:  # already judged in the timed passes
                pass
    finally:
        counter.restore()
    bits, json_bytes, svg_bytes = 0, 0, 0
    for p in params:
        try:
            scene = pkg.build_scene(p)
        except pkg.GeometryError:
            continue
        bits = max(bits, coord_bits(scene))
        if wl.run is run_audit_io:
            json_bytes += len(pkg.scene_to_json(scene).encode())
            svg_bytes += len(pkg.render_svg(scene).encode())
    n = len(params)
    return {
        "numeric.scalar_ops_per_instance": counter.scalar_ops[0] / n,
        "numeric.fraction_ops_per_instance": counter.fraction_ops[0] / n,
        "numeric.coord_bits.max": bits,
        "sceneio.json_bytes": json_bytes / n,
        "sceneio.svg_bytes": svg_bytes / n,
    }


def traced_pass(pkg, wl, params, raws, args) -> Tuple[Passes, dict]:
    """One pass over the pool with spans on every seam, then the counting
    pass and the microbenchmarks; returns the pass and per-layer metrics."""
    tracer = Tracer()
    tracer.install(pkg.geom, pkg.simson, pkg.sceneio, pkg.verify)
    try:
        seen = run_passes(pkg, wl, params, raws, 0, tracer=tracer)
    finally:
        tracer.restore()
    spans = tracer.spans
    write_spans(args, spans)
    values = span_metrics(SpanStats(spans), tracer.seams, len(params))
    values.update(count_metrics(pkg, wl, params))
    values.update(numeric_micro(pkg, raws[0]))
    return seen, values


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks of this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_spans(args, spans) -> None:
    """Spans as (name index, start_ns, end_ns, parent index, instance)."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    OUT.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "names": names,
           "spans": [(index[n], s, e, p, i) for n, s, e, p, i in spans]}
    with gzip.open(OUT / f"trace-{args.workload}.json.gz", "wt") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def report_problems(raws, passes: List[Passes]) -> None:
    problems = {}
    for seen in passes:
        for k, problem in seen.problems.items():
            problems.setdefault(k, problem)
    for n, k in enumerate(sorted(problems)):
        if n == MAX_LISTED_PROBLEMS:
            print(f"perfbench: ... {len(problems) - n} more instances", file=sys.stderr)
            break
        a, b, c, t = raws[k]
        print(f"perfbench: a={a} b={b} c={c} t={t}: {problems[k]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pkg = load_package()
    units = metric_units(args.trace)
    wl = WORKLOADS[args.workload]
    setup = None if args.trace else SetupTimer(wl, args.seed)
    backend = pkg.FloatBackend(wl.float_eps) if wl.float_eps else pkg.EXACT
    every_raw = draw_pool(args.seed, wl.judged, wl.max_num, wl.max_den)
    every_param = [pkg.Params.make(*raw, backend=backend) for raw in every_raw]
    raws, params = every_raw[:wl.pool], every_param[:wl.pool]

    if args.trace:
        untraced = run_passes(pkg, wl, params, raws, args.seconds / 2)
        traced, values = traced_pass(pkg, wl, params, raws, args)
        values["trace.overhead_frac"] = (statistics.median(traced.latencies_ns)
                                         / statistics.median(untraced.best_ns) - 1)
        timed = [untraced, traced]
    else:
        untraced = run_passes(pkg, wl, params, raws, args.seconds,
                              between=setup.sampler(args.seconds))
        rss = peak_rss_mb()
        timed = [untraced]
    extra_raws = every_raw[wl.pool:]
    extra = run_passes(pkg, wl, every_param[wl.pool:], extra_raws, 0)
    groups = [(raws, timed), (extra_raws, [extra])]

    outcomes: Dict[str, int] = {}
    if wl.judge is None:
        for group_raws, group in groups:
            for verdict, runs in judge_float(pkg, group_raws, group).items():
                outcomes[verdict] = outcomes.get(verdict, 0) + runs
    attempted = sum(sum(seen.runs) for _, group in groups for seen in group)
    failed = sum(seen.failed_runs for _, group in groups for seen in group)
    wrong_instances = sum(len(set().union(*(seen.problems for seen in group)))
                          for _, group in groups)
    prefix_problem = fuzz_prefix_problem(pkg, wl, args.seed, raws, untraced.first)
    for group_raws, group in groups:
        report_problems(group_raws, group)
    if prefix_problem:
        print(f"perfbench: fuzz prefix check: {prefix_problem}", file=sys.stderr)

    best = untraced.best_ns
    if not args.trace:
        values = {
            "instances_per_s": len(best) / (sum(best) / 1e9),
            "instance_ms.p50": decile_ms(best, 5),
            "instance_ms.p90": decile_ms(untraced.latencies_ns, 9),
            "ok_frac": 1 - wrong_instances / wl.judged,
            "setup_s": setup.median_s(),
            "peak_rss_mb": rss,
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "attempted": attempted,
        "p50_samples": len(best), "p90_samples": len(untraced.latencies_ns),
        "runs_per_instance": sum(untraced.runs) / len(best),
        "wall_instances_per_s": sum(untraced.runs) / (untraced.wall_ns / 1e9),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(), "git_commit": git_commit(),
    }
    print(json.dumps({"provenance": provenance, "float_outcomes": outcomes}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and prefix_problem is None,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
