"""Stored values: the homogeneous values objects hold, and copies of every value.

Every exact Point, Line and Circle is born holding its homogeneous integers
in a ``_h`` slot.  A kernel result is handed the canonical integers it
computed, and its coordinates are Scalars holding pairs of them, so they
build no ``Fraction``; any other exact object computes its integers from
its coordinates' pairs (n, d) when it is built.  A
float object holds its coordinates' floats there, with weight 1.0.  The
slot is not a dataclass field: ``vars``, ``dataclasses.fields``, ``==`` and
``repr`` see only the coordinates.

``copy``, ``deepcopy`` and ``pickle`` rebuild a Scalar from its backend and
value and a Point, Line or Circle from its fields, so each works on every
stored value and each copy computes the same integers.  Exact values hash;
float values, which compare within a tolerance, do not.
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest

from conftest import count_fractions, printed_object
from oblique_simson import geom, numeric, sceneio, simson, verify
from oblique_simson.errors import GeometryError
from oblique_simson.geom import Circle, Line, Point
from oblique_simson.numeric import EXACT, FloatBackend, Scalar, format_scalar
from oblique_simson.simson import Params

BACKENDS = {"exact": EXACT, "float": FloatBackend(1e-9)}
FIELDS = {Point: ["x", "y"], Line: ["a", "b", "c"], Circle: ["d", "e", "f"]}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def E(value):
    return EXACT.scalar(Fraction(value))


def objects(scene):
    return [*scene.points.values(), *scene.lines.values(), *scene.circles.values()]


def fresh(obj):
    """The same value built again from its fields."""
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


# -- the integers every exact object is born with ---------------------------------------


def reference(obj):
    """What obj's integers must be, from its coordinates' Fractions: the
    numerators over the lcm m of the reduced denominators, then m for a
    point or circle (gcd 1, weight m > 0).  A line's coefficients are its
    canonical integers, so m is 1 and a line leaves it out."""
    values = [s.value for s in vars(obj).values()]
    m = math.lcm(*(v.denominator for v in values))
    h = tuple(v.numerator * (m // v.denominator) for v in values)
    return h if isinstance(obj, Line) and m == 1 else (*h, m)


def holds_reference(obj) -> bool:
    """Whether obj's integers are its reference, and canonical."""
    return obj._h == reference(obj) and canonical(obj, obj._h)


def pair(n, d):
    """The exact Scalar holding (n, d) as it stands, not in lowest terms."""
    return numeric._pair(EXACT, n, d)


def route_objects():
    """Exact points, lines and circles by every route that builds one."""
    k1, k2 = geom._hom_point(EXACT, 6, -4, 8), geom._hom_point(EXACT, 1, 5, 3)
    eager = [Point(E(Fraction(1, 2)), E(Fraction(1, 4))),
             Line(E(Fraction(1, 2)), E(Fraction(-1, 3)), E(2)),
             Circle(E(Fraction(1, 2)), E(Fraction(-1, 3)), E(-5))]
    params = Params.make(Fraction(-3, 7), 2, Fraction(5, 2), Fraction(1, 3))
    scene = simson.build_scene(params)
    a, b, c, t = params.a, params.b, params.c, params.t
    return {
        "kernel": [k1, k2, geom._line(EXACT, 2, 4, 6), geom._circle(EXACT, -4, 2, -6, 2),
                   *objects(scene)],
        "point": [geom.point(EXACT, Fraction(1, 2), Fraction(-1, 4)), geom.point(EXACT, 0, 0)],
        "eager": eager,
        "pair": [Point(pair(6, 4), pair(2, 4)), Line(pair(2, 4), pair(3, 3), pair(-9, 6)),
                 Circle(pair(6, 4), pair(0, 5), pair(-10, 4)), *objects(fresh_scene(scene))],
        # coordinates of two kernel points, each pair over its point's weight
        "kernel pairs": [Point(k1.x, k2.y), Point(k1.y, k1.y), Line(k1.x, k2.y, k1.y),
                         Circle(k2.x, k1.x, k1.y)],
        "replace": [dataclasses.replace(k1, y=E(Fraction(1, 4))),
                    dataclasses.replace(eager[1], c=k2.y),
                    dataclasses.replace(eager[2], f=k1.y)],
        **{how: [clone(obj) for obj in (k1, *eager)] for how, clone in COPIES.items()},
        "json": objects(sceneio.scene_from_json(sceneio.scene_to_json(scene))),
        "make_line": [geom.make_line(E(1), E(2), E(3)), geom.make_line(E(2), E(-4), E(6)),
                      geom.make_line(pair(2, 2), E(0), E(-1)), geom.make_line(k1.x, k2.y, k1.y)],
        "make_circle": [geom.make_circle(E(-2), E(0), E(0)),
                        geom.make_circle(k1.x, k2.y, pair(-6, 4))],
        # the objects an audit witness builds from the printed formulas' tuples
        "audit": [printed_object("_printed_vertex_line", a, t),
                  printed_object("_printed_vertex_circle", b, t),
                  printed_object("_printed_orthocenter", a, b, c),
                  printed_object("_printed_xyz", c, a, b, t),
                  printed_object("_printed_hagge", params)],
    }


ROUTES = sorted(route_objects())


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_is_born_holding_its_integers(route):
    for obj in route_objects()[route]:
        assert obj._h is not None and holds_reference(obj), (route, obj, obj._h)
        assert fresh(obj)._h == obj._h


WRITERS = {Point: geom._point_of, Line: geom._line_of, Circle: geom._circle_of}


@pytest.mark.parametrize("route", ROUTES)
def test_integers_determine_the_object(route):
    """The kernel writer of an object's _h gives the object back."""
    for obj in route_objects()[route]:
        again = WRITERS[type(obj)](EXACT, obj._h)
        assert again == obj and repr(again) == repr(obj), (route, obj)


def test_line_is_canonical_however_built():
    """An exact Line from non-canonical coefficients is make_line of them:
    the same fields, integers, hash and repr."""
    for coeffs in ((2, 4, -6), ("1/2", 1, "-3/2"), (-1, -2, 3), (0, -4, 2), (-3, 0, 0)):
        direct, made = Line(*map(E, coeffs)), geom.make_line(*map(E, coeffs))
        assert direct == made and hash(direct) == hash(made) and repr(direct) == repr(made)
        assert direct._h == made._h and canonical(direct, direct._h)
        assert tuple(s._ratio() for s in vars(direct).values()) == tuple((n, 1) for n in direct._h)
    line = Line(E(2), E(4), E(-6))
    assert line._h == (1, 2, -3) and repr(line) == "Line(1, 2, -3)"
    assert geom.lines_equal(line, Line(E("1/2"), E(1), E("-3/2")))
    assert not geom.lines_equal(line, Line(E(1), E(2), E(3)))
    kept = (E(1), E(2), E(-3))
    assert all(a is b for a, b in zip(vars(Line(*kept)).values(), kept))


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("name", BACKENDS)
def test_line_with_zero_normal_raises(name, c):
    scalar = BACKENDS[name].scalar
    with pytest.raises(GeometryError, match="^line coefficients degenerate: a = b = 0$"):
        Line(scalar(0), scalar(0), scalar(c))


def test_float_line_keeps_its_coefficients():
    F = BACKENDS["float"].scalar
    coeffs = (F(2), F(-4), F(6))
    line = Line(*coeffs)
    assert all(a is b for a, b in zip(vars(line).values(), coeffs))
    assert repr(line._h) == "(2.0, -4.0, 6.0)" and repr(line) == "Line(2.0, -4.0, 6.0)"
    # a normal within the tolerance of zero is degenerate, as in make_line
    with pytest.raises(GeometryError, match="^line coefficients degenerate: a = b = 0$"):
        Line(F(1e-12), F(-1e-12), F(1))


def test_constructors_read_pairs_not_values(monkeypatch):
    """Making an object from pair coordinates builds no Fraction, and a
    pair not in lowest terms still gives the unique integers."""
    cases = ((Point, (pair(6, 4), pair(-2, 4)), (3, -1, 2)),
             (Line, (pair(2, 4), pair(3, 3), pair(-9, 6)), (1, 2, -3)),
             (Circle, (pair(6, 4), pair(0, 5), pair(-10, 4)), (3, 0, -5, 2)))
    built = count_fractions(monkeypatch)
    made = [(make(*args), want) for make, args, want in cases]
    monkeypatch.undo()
    assert built == []
    for obj, want in made:
        assert obj._h == want
    assert Point(E(Fraction(1, 2)), E(Fraction(1, 4)))._h == (2, 1, 4)


def test_slot_is_not_a_field(scene):
    for obj in objects(scene):
        names = FIELDS[type(obj)]
        assert list(vars(obj)) == names
        assert [f.name for f in dataclasses.fields(obj)] == names
        twin = fresh(obj)
        assert twin._h == obj._h
        assert obj == twin
        assert repr(obj) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names[0], E(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj._h = None


def test_checks_agree_on_kernel_and_directly_built_objects(scene):
    assert verify.run_checks(fresh_scene(scene)) == verify.run_checks(scene)


def test_replace_computes_its_integers():
    p = geom.point(EXACT, Fraction(1, 2), Fraction(1, 3))
    assert p._h == (3, 2, 6)
    moved = dataclasses.replace(p, y=E(Fraction(1, 5)))
    assert moved._h == (5, 2, 10)
    line = geom.make_line(E(1), E(2), E(3))
    assert line._h == (1, 2, 3)
    shifted = dataclasses.replace(line, c=E(-4))
    assert shifted._h == (1, 2, -4)
    assert geom.on_line(shifted, geom.point(EXACT, 0, 2))
    assert not geom.on_line(line, geom.point(EXACT, 0, 2))
    circle = geom.make_circle(E(-2), E(0), E(0))
    assert circle._h == (-2, 0, 0, 1)
    grown = dataclasses.replace(circle, f=E(-3))
    assert grown._h == (-2, 0, -3, 1)
    assert geom.on_circle(grown, geom.point(EXACT, 3, 0))
    assert not geom.on_circle(circle, geom.point(EXACT, 3, 0))


def test_directly_built_objects():
    """A line built from non-canonical coefficients and a circle over
    fractions keep what the kernel reads, and give the results of their
    canonical twins."""
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
        for line in (fresh(raw), raw):
            assert outcome(call, (line,)) == want
    assert raw._h == (1, 2, 3)
    circle = Circle(E(Fraction(1, 2)), E(Fraction(-1, 3)), E(-5))
    twin = fresh(circle)
    for c in (circle, twin):
        assert repr(c.center()) == "Point(-1/4, 1/6)"
        assert repr(c.radius_sq()) == "Scalar(exact, 733/144)"
        assert geom.on_circle(c, geom.point(EXACT, 2, 0))
        assert not geom.on_circle(c, geom.point(EXACT, 0, 2))
    assert circle._h == (3, -2, -30, 6)


def test_json_round_trip_reads_the_same_integers(scene):
    back = sceneio.scene_from_json(sceneio.scene_to_json(scene))
    assert back == scene
    for ours, theirs in zip(objects(back), objects(scene)):
        assert ours._h == theirs._h
    assert verify.run_checks(back) == verify.run_checks(scene)


def float_h(obj):
    """What a float object's _h must be: its coordinates' floats, then the
    weight 1.0 for a point or a circle."""
    h = tuple(s.value for s in vars(obj).values())
    return h if isinstance(obj, Line) else (*h, 1.0)


def holds_floats(obj) -> bool:
    """Whether obj's _h is float_h(obj), compared as text so that the
    sign of a zero and the type of each entry count."""
    return (all(type(v) is float for v in obj._h)
            and repr(obj._h) == repr(float_h(obj)))


def float_route_objects():
    """Float points, lines and circles by every route that builds one."""
    fb = BACKENDS["float"]
    F = fb.scalar
    params = Params.make(Fraction(-3, 7), 2, Fraction(5, 2), Fraction(1, 3), backend=fb)
    scene = simson.build_scene(params)
    a, b, c, t = params.a, params.b, params.c, params.t
    k = geom._hom_point(fb, 6.0, -4.0, 8.0)
    direct = [Point(F("1/2"), F(-0.0)), Line(F(3), F(-4), F(0)),
              Circle(F("1/2"), F("-1/3"), F(-5))]
    return {
        "kernel": [k, geom._line(fb, 2.0, 4.0, -0.0), geom._circle(fb, -4.0, 2.0, -6.0),
                   geom.intersect_lines(scene.lines["gwsLine"], scene.lines["sideBC"]),
                   scene.circles["S"].center(), *objects(scene)],
        "point": [geom.point(fb, Fraction(1, 2), Fraction(-1, 4)), geom.point(fb, 0, 0)],
        "direct": direct,
        "replace": [dataclasses.replace(k, y=F(-0.0)),
                    dataclasses.replace(direct[1], c=F(2)),
                    dataclasses.replace(direct[2], f=F(-7))],
        **{how: [clone(obj) for obj in (k, *direct, *objects(scene))]
           for how, clone in COPIES.items()},
        "json": objects(sceneio.scene_from_json(sceneio.scene_to_json(scene))),
        "make_line": [geom.make_line(F(1), F(2), F(3)), geom.make_line(F(0), F(-4), F(6))],
        "make_circle": [geom.make_circle(F(-2), F(0), F(0))],
        # the objects an audit witness builds from the printed formulas' tuples
        "audit": [printed_object("_printed_vertex_line", a, t),
                  printed_object("_printed_vertex_circle", b, t),
                  printed_object("_printed_orthocenter", a, b, c),
                  printed_object("_printed_xyz", c, a, b, t),
                  printed_object("_printed_hagge", params)],
    }


FLOAT_ROUTES = sorted(float_route_objects())


@pytest.mark.parametrize("route", FLOAT_ROUTES)
def test_float_objects_hold_their_floats(route):
    for obj in float_route_objects()[route]:
        assert holds_floats(obj), (route, obj, obj._h)
        assert repr(fresh(obj)._h) == repr(obj._h)


# -- copy, deepcopy and pickle ---------------------------------------------------------


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
        assert holds_reference(ours) if be.exact else holds_floats(ours)
        for value in (ours, theirs):
            copied = clone(value)
            assert copied == ours and repr(copied) == repr(ours)
            assert repr(copied._h) == repr(ours._h)
    assert verify.run_checks(scene_twin) == verify.run_checks(scene)


# -- kernel results are born canonical -----------------------------------------------


def canonical(obj, h) -> bool:
    """Whether h is the unique integer form of obj: gcd 1 with a positive
    weight (W of a point, v of a circle), or a line's leading sign rule."""
    if math.gcd(*h) != 1:
        return False
    if isinstance(obj, Line):
        return h[0] > 0 or (h[0] == 0 and h[1] > 0)
    return h[-1] > 0


def kernel_results(monkeypatch):
    """Record every Point, Line and Circle the exact kernel writers build."""
    born = []
    for name in ("_point_of", "_line_of", "_circle_of"):
        writer = getattr(geom, name)

        def recorded(*args, _writer=writer):
            obj = _writer(*args)
            born.append(obj)
            return obj

        monkeypatch.setattr(geom, name, recorded)
    return born


SAMPLES = {
    "golden": [Params.make(1, 2, 3, Fraction(1, 2))],
    "t0": [Params.make(Fraction(-3, 7), 2, Fraction(5, 2), 0)],
    "mag10": [p for _, p, _ in verify.fuzz_instances(verify.FuzzConfig(seed=5, count=4))[0]],
    "mag1e200": [p for _, p, _ in verify.fuzz_instances(verify.FuzzConfig(
        seed=5, count=2, max_numerator=10 ** 200, max_denominator=10 ** 200))[0]],
}


@pytest.mark.parametrize("sample", sorted(SAMPLES))
def test_kernel_results_are_born_canonical(sample, monkeypatch):
    """build_scene and run_checks write no object; reading the scene writes
    each of its 33 objects once through the kernel writers, canonical, and a
    second read writes none."""
    for params in SAMPLES[sample]:
        born = kernel_results(monkeypatch)
        scene = simson.build_scene(params)
        assert verify.run_checks(scene).all_pass
        assert born == []
        read = objects(scene)
        assert len(born) == 33 and all(a is b for a, b in zip(born, read))
        assert all(a is b for a, b in zip(objects(scene), read)) and len(born) == 33
        monkeypatch.undo()
        assert {type(obj) for obj in born} == {Point, Line, Circle}
        for obj in born:
            assert obj._h is not None and canonical(obj, obj._h)
            assert fresh(obj)._h == obj._h
        # every scene object, kernel-born or built directly, holds the same form
        for obj in objects(fresh_scene(scene)):
            assert canonical(obj, obj._h) and fresh(obj)._h == obj._h


def test_lines_equal_compares_coefficients_without_reading_them(monkeypatch):
    """As the canonical integers the coefficients are: a pair need not be
    reduced, proportional coefficients give the same line, and no Fraction
    is built."""
    kernel = geom._line(EXACT, 2, 4, 6)
    halves = Line(pair(2, 4), pair(3, 3), E(Fraction(3, 2)))
    lines = {name: Line(E(Fraction(1, 2)), E(sign), E(Fraction(3, 2)))
             for name, sign in (("same", 1), ("other", -1))}
    lines["direct"] = Line(E(1), E(2), E(3))
    built = count_fractions(monkeypatch)
    assert geom.lines_equal(lines["same"], halves)
    assert not geom.lines_equal(lines["other"], halves)
    assert geom.lines_equal(kernel, halves)  # the same line, other coefficients given
    assert geom.lines_equal(kernel, lines["direct"])
    assert geom.lines_equal(kernel, geom._line(EXACT, -1, -2, -3))
    assert not geom.lines_equal(kernel, geom._line(EXACT, 1, 2, 4))
    monkeypatch.undo()
    assert built == []
    assert halves._h == (1, 2, 3) and repr(halves) == repr(kernel) == "Line(1, 2, 3)"


def test_equal_points_and_circles_compare_their_integers():
    p = geom._hom_point(EXACT, 6, -4, 8)
    assert p._h == (3, -2, 4)
    q = geom._hom_point(EXACT, -3, 2, -4)
    direct = Point(E(Fraction(3, 4)), E(Fraction(-1, 2)))
    assert geom.points_equal(p, q) and geom.points_equal(p, direct)
    assert not geom.points_equal(p, geom._hom_point(EXACT, 3, -2, 5))
    c = geom._circle(EXACT, -4, 2, -6, 2)
    assert c._h == (-2, 1, -3, 1)
    assert geom.circles_equal(c, geom._circle(EXACT, 6, -3, 9, -3))
    assert geom.circles_equal(c, Circle(E(-2), E(1), E(-3)))
    assert not geom.circles_equal(c, Circle(E(-2), E(1), E(-4)))


# -- exact pairs ------------------------------------------------------------------------


# negative n, n = 0, d = 1, a fraction not in lowest terms, 10^200
PAIR_CASES = [(-7, 3), (0, 5), (12, 1), (6, 4), (-(10 ** 200) - 1, 10 ** 200), (10 ** 200, 3)]
VIEWS = {
    "repr": repr,
    "format_scalar": format_scalar,
    "float": float,
    "value": lambda s: (type(s.value), s.value),
    "hash": hash,
    "copy": lambda s: repr(copy.copy(s)),
    "deepcopy": lambda s: repr(copy.deepcopy(s)),
    "pickle": lambda s: repr(pickle.loads(pickle.dumps(s))),
}


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("n, d", PAIR_CASES)
def test_pair_scalar_matches_eager(n, d, view, monkeypatch):
    held, eager = pair(n, d), EXACT.scalar(Fraction(n, d))
    built = count_fractions(monkeypatch)
    got = VIEWS[view](held)
    monkeypatch.undo()
    assert got == VIEWS[view](eager)
    # text and float are computed from (n, d); every other view reads .value
    assert (built == []) == (view in ("repr", "format_scalar", "float"))


@pytest.mark.parametrize("n, d", PAIR_CASES)
def test_pair_scalar_compares_as_eager(n, d):
    eager = EXACT.scalar(Fraction(n, d))
    for held, other in ((pair(n, d), eager), (eager, pair(n, d)), (pair(n, d), pair(n, d))):
        assert held == other
        assert not held == EXACT.scalar(Fraction(n, d) + 1)
    assert pair(n, d).value == Fraction(n, d)
    with pytest.raises(AttributeError):
        pair(n, d).nothing  # noqa: B018


def test_run_checks_builds_few_fractions(monkeypatch):
    """A kernel result holds pairs, J, O and Sigma are
    born holding their integers, and the checks compare integers: the golden
    instance's build and checks create none (232 when each coordinate built
    one, 33 when the checks built objects, 7 when J and O built theirs, 3
    when Sigma built its coefficients)."""
    params = Params.make(1, 2, 3, Fraction(1, 2))
    built = count_fractions(monkeypatch)
    report = verify.run_checks(simson.build_scene(params))
    monkeypatch.undo()
    assert report.all_pass
    assert built == []


# -- hashing ---------------------------------------------------------------------------


def test_exact_values_hash(scene):
    stored = [*objects(scene), scene.params]
    scalars = [*vars(scene.params).values(), *(s for obj in objects(scene)
                                               for s in vars(obj).values())]
    for value in stored + scalars:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    for obj in objects(scene):
        assert hash(fresh(obj)) == hash(obj)
    for values in (stored, scalars):  # a Scalar compares only with a Scalar
        members = set(values)
        assert len(members) == len(set(map(repr, values)))
        assert all(copy.deepcopy(value) in members for value in values)
    assert hash(pair(6, 4)) == hash(E(Fraction(3, 2)))
    # a Scalar does not share a hash slot with the equal plain number
    assert len({Fraction(3, 2), E(Fraction(3, 2)), 1, E(1)}) == 4


def test_float_values_do_not_hash():
    fb = BACKENDS["float"]
    scene = simson.build_scene(Params.make(1, 2, 3, "1/2", backend=fb))
    for value in (fb.scalar(1), scene.params, *objects(scene)):
        with pytest.raises(TypeError, match="tolerance"):
            hash(value)


# -- the package computes on pairs -------------------------------------------------------


def corrupted(scene):
    """The scene with each object of a sample moved off its place, so that
    the checks write witnesses: a point, a line and a circle."""
    be = scene.backend
    step = E(Fraction(1, 7)) if be.exact else be.scalar(1 / 7)
    p, l, c = scene.points["L"], scene.lines["gwsLine"], scene.circles["Sigma0"]
    return dataclasses.replace(
        scene, points={**scene.points, "L": Point(p.x + step, p.y)},
        lines={**scene.lines, "gwsLine": Line(l.a, l.b, l.c + step)},
        circles={**scene.circles, "Sigma0": Circle(c.d, c.e, c.f + step)})


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_package_never_reads_scalar_value(backend, monkeypatch):
    """Outside Scalar's own operators, ==, hash and copy, no package code
    reads ``Scalar.value``: with the property made to raise, the golden and
    seeded instances build, check (with witnesses on a corrupted scene),
    audit, round-trip through JSON, draw and normalize as before."""
    be = BACKENDS[backend]
    raws = [(1, 2, 3, Fraction(1, 2)), (Fraction(-3, 7), 2, Fraction(5, 2), 0)]
    raws += [tuple(s.value for s in vars(p).values())
             for _, p, _ in verify.fuzz_instances(verify.FuzzConfig(seed=5, count=6))[0]]
    want = []
    runs = []
    for raw in raws:
        params = Params.make(*raw, backend=be)
        scene = simson.build_scene(params)
        bad = corrupted(scene)
        pts = scene.points
        frame = (pts["A"], pts["B"], pts["C"], pts["J"])

        def run(params=params, scene=scene, bad=bad, frame=frame):
            built = simson.build_scene(params)
            text = sceneio.scene_to_json(built)
            norm = simson.normalize_frame(*frame)
            moved = norm.transform.from_canonical(norm.transform.to_canonical(frame[0]))
            return (repr(built), verify.run_checks(built), verify.run_checks(bad),
                    verify.audit_printed_formulas(params), text,
                    sceneio.scene_to_json(sceneio.scene_from_json(text)),
                    sceneio.render_svg(built), sceneio.scene_summary(built),
                    repr(norm.params(0)), repr(moved))

        runs.append(run)
        want.append(run())
    assert all(w[1].all_pass and not w[2].all_pass for w in want)

    def forbidden(_self):
        raise AssertionError("package code read Scalar.value")

    monkeypatch.setattr(Scalar, "value", property(forbidden))
    got = [run() for run in runs]
    monkeypatch.undo()
    assert got == want
