"""Outside-in tracing: spans around the package's module-level seams.

Nothing here edits the package.  A traced run replaces, for its duration,

* the public functions of ``geom``, ``simson`` and ``sceneio`` (the package
  reaches them through module attributes, so internal calls are seen too),
* the values of ``verify._CHECK_IMPLS``, the table ``run_checks`` dispatches
  through,
* the per-row functions ``verify._audit_eq*`` of ``audit_printed_formulas``,
* ``verify.run_checks`` and ``verify.audit_printed_formulas`` themselves,

with wrappers that append a span ``(name, start_ns, end_ns, parent, instance)``
to an in-memory list.  A seam that a later refactor removes simply yields no
spans, so its metrics go missing instead of reading wrong.

Operation counts come from a separate pass that wraps the operator methods of
``numeric.Scalar`` and ``fractions.Fraction``.
"""

from __future__ import annotations

import inspect
import re
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]

_AUDIT_ROW = re.compile(r"_audit_eq(\d)(\d)$")

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)
FRACTION_OPS = SCALAR_OPS + (
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__pow__", "__rpow__", "__pos__",
)


class _Patches:
    """Attribute and mapping replacements, undone in reverse order."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def set_attr(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def set_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class Tracer:
    """Records one span per call of a wrapped seam; `instance` tags each span.

    A span's slot is reserved when the call starts, so parents precede their
    children and `parent` is an index into `spans`.
    """

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.seams: List[str] = []
        self.instance = -1
        self._stack: List[int] = []
        self._patches = _Patches()

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.seams.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance)

        traced.__wrapped__ = fn
        return traced

    def install(self, geom, simson, sceneio, verify) -> None:
        for short, module in (("geom", geom), ("simson", simson), ("sceneio", sceneio)):
            for attr, fn in public_functions(module):
                self._patches.set_attr(module, attr, self.wrap(f"{short}.{attr}", fn))
        for attr, name in (("run_checks", "verify.run_checks"),
                           ("audit_printed_formulas", "verify.audit")):
            if hasattr(verify, attr):
                self._patches.set_attr(verify, attr, self.wrap(name, getattr(verify, attr)))
        table = getattr(verify, "_CHECK_IMPLS", {})
        for check, fn in list(table.items()):
            self._patches.set_item(table, check, self.wrap(f"verify.check.{check}", fn))
        for attr, name in audit_rows(verify):
            self._patches.set_attr(verify, attr, self.wrap(name, getattr(verify, attr)))

    def restore(self) -> None:
        self._patches.restore()


def public_functions(module) -> List[Tuple[str, Callable]]:
    """Functions defined in `module` under a public name, sorted by name."""
    return [(attr, fn) for attr, fn in sorted(vars(module).items())
            if not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


def audit_rows(verify) -> List[Tuple[str, str]]:
    """(attribute, span name) of each per-row function of the audit."""
    rows = []
    for attr, fn in sorted(vars(verify).items()):
        row = _AUDIT_ROW.match(attr)
        if row and inspect.isfunction(fn):
            rows.append((attr, f"verify.audit.eq{row.group(1)}.{row.group(2)}"))
    return rows


class SpanStats:
    """Per-name totals over the recorded spans."""

    def __init__(self, spans: List[Span]):
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.inclusive_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        for (name, start, end, _, _), children in zip(spans, child_ns):
            own = end - start - children
            self.inclusive_ns[name] = self.inclusive_ns.get(name, 0) + end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.calls[name] = self.calls.get(name, 0) + 1


class OpCounter:
    """Counts operator calls on Scalar and Fraction while installed."""

    def __init__(self, scalar_cls):
        self.scalar_ops = [0]
        self.fraction_ops = [0]
        self._patches = _Patches()
        self._install(scalar_cls, SCALAR_OPS, self.scalar_ops)
        self._install(Fraction, FRACTION_OPS, self.fraction_ops)

    def _install(self, cls, names, cell: List[int]) -> None:
        for name in names:
            fn = cls.__dict__.get(name)
            if fn is None:
                continue

            def counted(*args, _fn=fn):
                cell[0] += 1
                return _fn(*args)

            self._patches.set_attr(cls, name, counted)

    def restore(self) -> None:
        self._patches.restore()
