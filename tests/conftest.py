from fractions import Fraction

import pytest

from oblique_simson import EXACT, Params, Point, Scalar, build_scene, geom, verify
from oblique_simson.geom import Circle, Line
from oblique_simson.numeric import format_scalar


def E(value):
    """Exact scalar from int / Fraction / 'p/q' string."""
    if isinstance(value, str):
        value = Fraction(value)
    return EXACT.scalar(value)


def P(x, y):
    """Exact point from int / Fraction / 'p/q' string coordinates."""
    return Point(E(x), E(y))


# -- reference: the object formatters that verify's witnesses used, verbatim -----

_fmt = format_scalar


def _fmt_point(p: Point) -> str:
    return f"({_fmt(p.x)}, {_fmt(p.y)})"


def _fmt_line(l: Line) -> str:
    return f"[{_fmt(l.a)}, {_fmt(l.b)}, {_fmt(l.c)}]"


def _fmt_circle(c: Circle) -> str:
    return f"[{_fmt(c.d)}, {_fmt(c.e)}, {_fmt(c.f)}]"


def check_witness(scene, name):
    """The witness of verify's check *name* on *scene*, the check called as
    run_checks calls it: on the scene's canonical tuples by name."""
    h = {n: obj._h for n, obj in {**scene.points, **scene.lines, **scene.circles}.items()}
    return verify._CHECK_IMPLS[name](scene.backend, h, scene.params)


def count_fractions(monkeypatch):
    """A list that records every Fraction built until ``monkeypatch.undo()``.

    A Fraction is built through ``Fraction.__new__``, or, where the class has
    it (CPython 3.12 on), through ``Fraction._from_coprime_ints``, which its
    arithmetic uses without calling ``__new__``; both are counted.
    """
    built = []
    new = Fraction.__new__

    def counted_new(*args, **kwargs):
        built.append(args)
        return new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    coprime = Fraction.__dict__.get("_from_coprime_ints")
    if coprime is not None:
        def counted_coprime(cls, *args):
            built.append((cls, *args))
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return built


def printed_formula(name, *args):
    """The audit's printed formula ``verify.<name>`` at the parameters *args*
    (Scalars, or the Params of a whole-instance formula), read over their
    common denominator as the audit reads them."""
    if isinstance(args[0], Params):
        p = args[0]
        args = (p.a, p.b, p.c) if name == "_printed_altitude_coeffs" else (p.a, p.b, p.c, p.t)
    num = geom._over_common(*args)
    if name == "_printed_altitude_coeffs":
        return verify._printed_altitude_coeffs(args[0].backend, *num)
    return getattr(verify, name)(*num)


def printed_object(name, *args):
    """The object that the audit's printed formula ``verify.<name>`` stands
    for, built from the values it returns: the line, circle or point of
    homogeneous values, or the altitude coefficients of (n, d) pairs."""
    be = args[0].backend
    printed = printed_formula(name, *args)
    if name == "_printed_vertex_line":
        return geom._line(be, *printed)
    if name in ("_printed_vertex_circle", "_printed_hagge"):
        return geom._circle(be, *printed)
    if name == "_printed_altitude_coeffs":
        return tuple(Scalar(be, be.div(*r)) for r in printed)
    return geom._hom_point(be, *printed)


@pytest.fixture(scope="session")
def golden_params():
    return Params.make(1, 2, 3, Fraction(1, 2))


@pytest.fixture(scope="session")
def golden_scene(golden_params):
    return build_scene(golden_params)


@pytest.fixture(scope="session")
def classical_scene():
    return build_scene(Params.make(1, 2, 3, 0))
