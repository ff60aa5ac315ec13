"""The README against the code: its quick start runs as printed, and its
Public API table is the package root's ``__all__``."""

import re
from pathlib import Path

import oblique_simson

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def test_quick_start_prints_what_it_runs():
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    namespace = {}
    shown = []
    for line in code.splitlines():
        statement, _, comment = line.partition("  # ")
        if not comment:
            exec(statement, namespace)
            continue
        value = repr(eval(statement, namespace))
        # the comment starts with the repr; any explanation follows it
        assert re.match(re.escape(value) + r"(?![\w(])", comment.strip()), (statement, value)
        shown.append(value)
    assert shown == ["Point(-7/5, 1)", "Line(5, 5, 2)", "('tangent:AA0',)", "True"]
    assert len(namespace["report"].results) == 19


def test_public_api_table_is_all():
    rows = re.findall(r"^\| `(\w+)` \|", _section("Public API"), re.M)
    assert rows == oblique_simson.__all__
    assert all(hasattr(oblique_simson, name) for name in rows)
