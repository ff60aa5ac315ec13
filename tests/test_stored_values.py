"""Stored values: the integers exact objects keep, and copies of every value.

An exact Point, Line or Circle keeps its homogeneous integers in a ``_h``
slot after the kernel first reads it.  The slot is not a dataclass field:
``vars``, ``dataclasses.fields``, ``==`` and ``repr`` see only the
coordinates, an object built by ``dataclasses.replace`` starts empty, and a
float object is never filled.  Kernel results must
not depend on whether the slot is filled.

``copy``, ``deepcopy`` and ``pickle`` rebuild a Scalar from its backend and
value and a Point, Line or Circle from its fields, so each works on every
stored value and no copy carries the slot.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from oblique_simson import geom, sceneio, simson, verify
from oblique_simson.geom import Circle, Line, Point
from oblique_simson.numeric import EXACT, FloatBackend, Scalar
from oblique_simson.simson import Params

BACKENDS = {"exact": EXACT, "float": FloatBackend(1e-9)}
READERS = {Point: geom._hom, Line: geom._iline, Circle: geom._icircle}
FIELDS = {Point: ["x", "y"], Line: ["a", "b", "c"], Circle: ["d", "e", "f"]}


def E(value):
    return EXACT.scalar(Fraction(value))


def objects(scene):
    return [*scene.points.values(), *scene.lines.values(), *scene.circles.values()]


def fresh(obj):
    """The same value built again from its fields, with an empty slot."""
    return type(obj)(*vars(obj).values())


def fresh_scene(scene):
    return dataclasses.replace(
        scene, points={n: fresh(p) for n, p in scene.points.items()},
        lines={n: fresh(l) for n, l in scene.lines.items()},
        circles={n: fresh(c) for n, c in scene.circles.items()})


def outcome(fn, args):
    try:
        return "=", repr(fn(*args))
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


@pytest.fixture
def scene():
    return simson.build_scene(Params.make(Fraction(-3, 7), 2, Fraction(5, 2), Fraction(1, 3)))


# -- the read-once cache ------------------------------------------------------------------


def test_first_exact_read_fills_the_slot(scene):
    for obj in objects(fresh_scene(scene)):
        assert obj._h is None
        h = READERS[type(obj)](obj)
        assert obj._h is h
        assert READERS[type(obj)](obj) is h


def test_slot_is_not_a_field(scene):
    for obj in objects(scene):
        READERS[type(obj)](obj)
        names = FIELDS[type(obj)]
        assert list(vars(obj)) == names
        assert [f.name for f in dataclasses.fields(obj)] == names
        twin = fresh(obj)
        assert twin._h is None
        assert obj == twin
        assert repr(obj) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names[0], E(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj._h = None


def test_checks_agree_on_filled_and_empty_objects(scene):
    filled = fresh_scene(scene)
    for obj in objects(filled):
        READERS[type(obj)](obj)
    assert verify.run_checks(filled) == verify.run_checks(fresh_scene(scene))


def test_replace_starts_empty():
    p = geom.point(EXACT, Fraction(1, 2), Fraction(1, 3))
    assert geom._hom(p) == (3, 2, 6)
    moved = dataclasses.replace(p, y=E(Fraction(1, 5)))
    assert moved._h is None
    assert geom._hom(moved) == (5, 2, 10)
    line = geom.make_line(E(1), E(2), E(3))
    assert line._h == (1, 2, 3)  # make_line passes its canonical integers
    shifted = dataclasses.replace(line, c=E(-4))
    assert geom._iline(shifted) == (1, 2, -4)
    assert geom.on_line(shifted, geom.point(EXACT, 0, 2))
    assert not geom.on_line(line, geom.point(EXACT, 0, 2))
    circle = geom.make_circle(E(-2), E(0), E(0))
    assert geom._icircle(circle) == (-2, 0, 0, 1)
    grown = dataclasses.replace(circle, f=E(-3))
    assert geom._icircle(grown) == (-2, 0, -3, 1)
    assert geom.on_circle(grown, geom.point(EXACT, 3, 0))
    assert not geom.on_circle(circle, geom.point(EXACT, 3, 0))


def test_directly_built_objects():
    """A non-canonical line and a circle over fractions keep what the
    kernel reads, and give the results of their canonical twins."""
    raw = Line(E(2), E(4), E(6))
    canonical = geom.make_line(E(2), E(4), E(6))
    assert repr(canonical) == "Line(1, 2, 3)"
    p, q, other = geom.point(EXACT, 1, -2), geom.point(EXACT, Fraction(1, 2), 7), \
        Line(E(1), E(-1), E(0))
    calls = (
        lambda l: geom.on_line(l, p), lambda l: geom.on_line(l, q),
        lambda l: geom.perpendicular_through(q, l), lambda l: geom.foot_perpendicular(q, l),
        lambda l: geom.reflect_in_line(q, l), lambda l: geom.intersect_lines(l, other),
        lambda l: geom.directed_tan(l, other),
    )
    for call in calls:
        want = outcome(call, (canonical,))
        for line in (fresh(raw), raw, raw):  # empty, then filled
            assert outcome(call, (line,)) == want
    assert raw._h == (2, 4, 6)
    circle = Circle(E(Fraction(1, 2)), E(Fraction(-1, 3)), E(-5))
    twin = fresh(circle)
    for c in (circle, circle, twin):  # empty, filled, empty again
        assert repr(c.center()) == "Point(-1/4, 1/6)"
        assert repr(c.radius_sq()) == "Scalar(exact, 733/144)"
        assert geom.on_circle(c, geom.point(EXACT, 2, 0))
        assert not geom.on_circle(c, geom.point(EXACT, 0, 2))
    assert circle._h == (3, -2, -30, 6)


def test_json_round_trip_reads_the_same_integers(scene):
    back = sceneio.scene_from_json(sceneio.scene_to_json(scene))
    assert back == scene
    for ours, theirs in zip(objects(back), objects(scene)):
        assert READERS[type(ours)](ours) == READERS[type(theirs)](theirs)
    assert verify.run_checks(back) == verify.run_checks(scene)


def test_float_objects_never_fill_the_slot():
    fb = BACKENDS["float"]
    scene = simson.build_scene(Params.make(Fraction(-3, 7), 2, Fraction(5, 2), Fraction(1, 3),
                                           backend=fb))
    verify.run_checks(scene)
    sceneio.scene_from_json(sceneio.scene_to_json(scene))
    sceneio.render_svg(scene)
    assert all(obj._h is None for obj in objects(scene))


# -- copy, deepcopy and pickle ---------------------------------------------------------


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_copies_of_stored_values(backend, how):
    be, clone = BACKENDS[backend], COPIES[how]
    params = Params.make(1, 2, 3, "1/2", backend=be)
    scalar = be.scalar(Fraction(-3, 4))
    twin = clone(scalar)
    assert type(twin) is Scalar and twin == scalar and twin.backend == be
    assert clone(params) == params
    scene = simson.build_scene(params)
    verify.run_checks(scene)
    scene_twin = clone(scene)
    assert scene_twin == scene
    for ours, theirs in zip(objects(scene), objects(scene_twin)):
        if be.exact:
            READERS[type(ours)](ours)  # copy an object whose slot is filled
            assert ours._h is not None
        for value in (ours, theirs):
            copied = clone(value)
            assert copied == ours and repr(copied) == repr(ours)
            assert copied._h is None
            if be.exact:
                assert READERS[type(ours)](copied) == ours._h
    assert verify.run_checks(scene_twin) == verify.run_checks(scene)
