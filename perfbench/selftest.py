#!/usr/bin/env python3
"""Self-test of the benchmark:  python3 perfbench/selftest.py

For each workload it makes one short untraced run and two short traced runs
of one seed, and checks that

* each run prints every metric that BENCHMARK.json names, with its unit, and
  a result with `correct`, `attempted` and `failed`;
* no span's self time exceeds its inclusive time, per span and per name;
* the traced counts (`*.calls`, `*_ops_per_instance`, `coord_bits.max`,
  `*_bytes`) are identical across the two traced runs.

It also checks that the benchmark fails, without a result, in a directory
holding only BENCHMARK.json and the benchmark (no package source).
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
SECONDS = "1"
COUNTED = (".calls", "_ops_per_instance", ".coord_bits.max", "_bytes")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess, expected: list, errors: list, what: str):
    if done.returncode != 0:
        errors.append(f"{what}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    if result["attempted"] < 1 or not result["correct"]:
        errors.append(f"{what}: attempted {result['attempted']}, correct {result['correct']}")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{what}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{what}: {metric['name']} unit {got['unit']} != {metric['unit']}")
    return result


def check_self_time(workload: str, errors: list) -> None:
    with gzip.open(BENCH / "out" / f"trace-{workload}.json.gz", "rt") as fh:
        spans = json.load(fh)["spans"]
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, own = {}, {}
    for (name, start, end, _, _), children in zip(spans, child):
        duration = end - start
        if not 0 <= duration - children <= duration:
            errors.append(f"{workload}: span {name} self {duration - children} ns "
                          f"outside [0, {duration}]")
            return
        inclusive[name] = inclusive.get(name, 0) + duration
        own[name] = own.get(name, 0) + duration - children
    errors.extend(f"{workload}: self time of span {n} exceeds its inclusive time"
                  for n in inclusive if own[n] > inclusive[n])


def check_bare_directory(errors: list) -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = run("fuzz-exact", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        errors.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list = []
    for workload in (w["name"] for w in spec["workloads"]):
        result_of(run(workload, 0), spec["end_to_end"], errors, f"{workload} untraced")
        traced = [result_of(run(workload, 1), spec["per_layer"], errors,
                            f"{workload} traced #{i}") for i in (1, 2)]
        check_self_time(workload, errors)
        if all(traced):
            first, second = (r["metrics"] for r in traced)
            for name in first:
                if name.endswith(COUNTED) and first[name] != second.get(name):
                    errors.append(f"{workload}: {name} {first[name]['value']} then "
                                  f"{second.get(name, {}).get('value')}")
        print(f"selftest: {workload} done, {len(errors)} problems so far", flush=True)
    check_bare_directory(errors)
    for error in errors:
        print("selftest: FAIL", error)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
