"""The four workloads: what one instance runs and how its outcome is judged.

Every package call goes through a module attribute (``pkg.simson.build_scene``
and so on), so a traced run sees it.  Judging uses the names re-exported by
the package's ``__init__``, which the tracer does not replace, so checks add
no spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from inputs import RawParams

AUDIT_ROWS = ("eq2.3", "eq2.4", "eq2.5.x", "eq2.5.y",
              "eq2.6.coeffs", "eq2.6.const", "eq2.7", "eq2.8")


@dataclass(frozen=True)
class Workload:
    name: str
    max_num: int
    max_den: int
    pool: int           # distinct seeded instances; the loop makes passes over them
    judged: int         # instances ok_frac covers; those past the pool run once, untimed
    fuzz_prefix: int    # instances compared against the package's own fuzzer
    float_eps: Optional[float]
    run: Callable       # (pkg, params) -> outcome
    judge: Optional[Callable]  # (pkg, raw, outcome) -> None, or why it is wrong;
    #                            None: judged against the exact oracle instead


def run_fuzz(pkg, params):
    return pkg.verify.run_checks(pkg.simson.build_scene(params))


def run_audit_io(pkg, params):
    scene = pkg.simson.build_scene(params)
    audit = pkg.verify.audit_printed_formulas(params)
    text = pkg.sceneio.scene_to_json(scene)
    back = pkg.sceneio.scene_from_json(text)
    svg = pkg.sceneio.render_svg(scene)
    return scene, audit, back, svg


def judge_exact_report(pkg, raw: RawParams, outcome) -> Optional[str]:
    if isinstance(outcome, BaseException):
        kind = "raise" if isinstance(outcome, pkg.GeometryError) else "non-GeometryError raise"
        return f"{kind}: {type(outcome).__name__}: {outcome}"
    if len(outcome.results) != len(pkg.verify.CHECK_NAMES):
        return f"{len(outcome.results)} results, expected {len(pkg.verify.CHECK_NAMES)}"
    failures = [r.name for r in outcome.failures]
    return f"FAIL {','.join(failures)}" if failures else None


def expected_audit(raw: RawParams) -> dict:
    """Acceptance criterion 4: eq2.5.x matches iff abc = 0, eq2.6.const iff
    b + c = 0, every other row always matches."""
    a, b, c, _ = raw
    verdicts = {row: True for row in AUDIT_ROWS}
    verdicts["eq2.5.x"] = a * b * c == 0
    verdicts["eq2.6.const"] = b + c == 0
    return verdicts


def judge_audit_io(pkg, raw: RawParams, outcome) -> Optional[str]:
    if isinstance(outcome, BaseException):
        return f"raise: {type(outcome).__name__}: {outcome}"
    scene, audit, back, svg = outcome
    got = {r.name: r.passed for r in audit.results}
    want = expected_audit(raw)
    if got != want:
        wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"audit rows off the expected pattern: {','.join(wrong)}"
    if back != scene:
        return "JSON round trip changed the scene"
    if pkg.render_svg(back) != svg:
        return "SVG differs on a second render"
    return None


def classify_float(pkg, oracle_problem: Optional[str], outcome) -> str:
    """Sort a float instance against its exact oracle.

    'oracle': the exact backend itself got the instance wrong.  'crash': the
    float run raised something other than a GeometryError.  'raise'
    (spurious raise) and 'fail' (false FAIL): wrong float verdicts on an
    instance the exact backend passes.  'agree': everything else.
    """
    if oracle_problem is not None:
        return "oracle"
    if isinstance(outcome, BaseException):
        return "raise" if isinstance(outcome, pkg.GeometryError) else "crash"
    return "agree" if outcome.all_pass else "fail"


WORKLOADS = {
    w.name: w for w in (
        Workload("fuzz-exact", 10, 10, 25, 25, 20, None, run_fuzz, judge_exact_report),
        Workload("fuzz-exact-wide", 10 ** 200, 10 ** 200, 5, 5, 2, None, run_fuzz,
                 judge_exact_report),
        Workload("fuzz-float", 10, 1000, 100, 400, 20, 1e-9, run_fuzz, None),
        Workload("audit-io", 10, 10, 25, 25, 20, None, run_audit_io, judge_audit_io),
    )
}


def coord_bits(scene) -> int:
    """Largest numerator or denominator bit length among exact scene scalars."""
    best = 0
    objects = (list(scene.points.values()) + list(scene.lines.values())
               + list(scene.circles.values()))
    for obj in objects:
        for scalar in vars(obj).values():
            best = max(best, _bits(scalar.value))
    return best


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0
