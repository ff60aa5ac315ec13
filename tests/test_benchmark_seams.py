"""The per-layer metrics of BENCHMARK.json name seams that the package has.

``perfbench`` reports a seam's metrics only while the seam exists: it wraps
the public functions of ``geom``, ``simson`` and ``sceneio``, the checks of
``verify._CHECK_IMPLS`` and the audit rows ``verify._audit_eq*``.  A
refactor that removes or renames one of them would fail the benchmark's
self-test; this test fails first.
"""

import inspect
import json
import re
from pathlib import Path

from oblique_simson import geom, sceneio, simson, verify

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MODULES = {"geom": geom, "simson": simson, "sceneio": sceneio}


def per_layer_names():
    return [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]


def test_module_seams_are_public_functions():
    seams = set()
    for name in per_layer_names():
        module, _, rest = name.partition(".")
        seam = re.fullmatch(r"(\w+)\.(calls|self_us|us)", rest)
        if module in MODULES and seam:
            seams.add((module, seam.group(1)))
    assert len(seams) > 30
    for module, attr in sorted(seams):
        fn = getattr(MODULES[module], attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), f"{module}.{attr}"
        assert fn.__module__ == MODULES[module].__name__, f"{module}.{attr}"


def test_check_seams_are_named_checks():
    checks = [m[1] for m in map(re.compile(r"verify\.check\.(\w+)\.us").fullmatch,
                                per_layer_names()) if m]
    assert len(checks) == len(verify.CHECK_NAMES)
    assert set(checks) <= set(verify.CHECK_NAMES)


def test_audit_row_seams_have_rows():
    rows = [m[1] for m in map(re.compile(r"verify\.audit\.eq2\.(\d)\.us").fullmatch,
                              per_layer_names()) if m]
    assert rows
    for k in rows:
        assert inspect.isfunction(getattr(verify, f"_audit_eq2{k}", None)), k
