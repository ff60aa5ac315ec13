"""The exact kernel's one backend hook: the package names ``math.gcd`` only
where ``ExactBackend`` binds it as ``gcd``.

The canonical writers of ``geom`` (``_point_h``, ``_line_h``, ``_over_v``),
``make_line``'s canonical test and ``numeric.format_scalar`` take the gcd
from the backend, so another exact-kind backend plugs in without patching.
This scan also covers the paths that the Z[t] test never reaches.
"""

import ast
from pathlib import Path

import oblique_simson
from oblique_simson.numeric import EXACT, ExactBackend

PACKAGE = Path(oblique_simson.__file__).parent


def gcd_references(tree):
    """(enclosing class, enclosing assignment target) for each ``math.gcd``,
    ``from math import gcd`` and ``import math`` under another name."""
    found = []

    def visit(node, cls, target):
        for child in ast.iter_child_nodes(node):
            c, t = cls, target
            if isinstance(child, ast.ClassDef):
                c = child.name
            elif isinstance(child, ast.Assign) and len(child.targets) == 1:
                t = getattr(child.targets[0], "id", None)
            if (isinstance(child, ast.Attribute) and child.attr == "gcd"
                    and isinstance(child.value, ast.Name) and child.value.id == "math"):
                found.append((c, t))
            if isinstance(child, ast.ImportFrom) and child.module == "math":
                found.extend((c, "from math import " + a.name) for a in child.names)
            if isinstance(child, ast.Import):
                found.extend((c, "import math as " + a.asname) for a in child.names
                             if a.name == "math" and a.asname)
            visit(child, c, t)

    visit(tree, None, None)
    return found


def test_math_gcd_only_in_the_exact_backend_binding():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        refs = gcd_references(ast.parse(path.read_text(encoding="utf-8")))
        if refs:
            found[path.name] = refs
    assert found == {"numeric.py": [("ExactBackend", "gcd")]}


def test_the_binding_is_math_gcd():
    assert ExactBackend.gcd(12, -18, 30) == 6 and EXACT.gcd(0, 0) == 0
