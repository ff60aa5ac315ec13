"""Objects exist only at the API edge of ``geom`` and ``simson``.

A public function composes private tuple functions and writes its result
once; it never calls another public function of either module, which would
build objects only to read their tuples back.  The read-outs that hand out
one object of a whole build are the exceptions: ``build_scene`` runs
``construct_core``, and the six read-outs (through ``_flagged`` for two of
them) run ``build_scene``.
"""

import ast
import inspect

from oblique_simson import geom, simson

MODULES = {"geom": geom, "simson": simson}
READ_OUTS = ("orthocenter_h", "side_line", "altitude_line", "xyz_point", "hagge_circle",
             "lmn_point", "_flagged")
ALLOWED = {("build_scene", "construct_core")} | {(f, "build_scene") for f in READ_OUTS}


def public_functions(module):
    return {name for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


PUBLIC = {name: public_functions(module) for name, module in MODULES.items()}


def public_callee(call: ast.Call, own: str):
    """The public geom or simson function a call names, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in PUBLIC[own]:
        return func.id
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in PUBLIC and func.attr in PUBLIC[func.value.id]):
        return func.attr
    return None


def calls_to_public(own: str):
    """(caller, callee) for each call of a public function in module *own*."""
    found = []

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and caller is not None:
                callee = public_callee(child, own)
                if callee is not None:
                    found.append((caller, callee))
            visit(child, caller)

    visit(ast.parse(inspect.getsource(MODULES[own])), None)
    return found


def test_no_function_calls_a_public_function():
    found = {own: calls_to_public(own) for own in MODULES}
    assert ("build_scene", "construct_core") in found["simson"]  # the scan sees calls
    for own, pairs in found.items():
        assert [pair for pair in pairs if pair not in ALLOWED] == [], own
