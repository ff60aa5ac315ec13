"""A Scene's points, lines and circles: read-only maps over canonical tuples.

``build_scene`` and the JSON reader hand a Scene its name -> tuple maps and
write no object; a Point, Line or Circle is written the first time its name
is read, and kept.  A Scene given plain mappings of objects (a hand-built
scene, a ``dataclasses.replace`` corruption) adopts them, each with its own
tuple and backend.  Every consumer reads the tuples, so a scene of tuples
and the same scene of adopted objects must give the same repr, equality,
copies, checks, JSON, SVG and summary.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from oblique_simson import geom, sceneio, simson, verify
from oblique_simson.errors import GeometryError
from oblique_simson.geom import Point
from oblique_simson.numeric import EXACT, FloatBackend, Scalar
from oblique_simson.simson import Params, Scene, SceneObjects
from test_check_tuples import corruptions

FB = FloatBackend(1e-9)
CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def eager(scene: Scene) -> Scene:
    """The same scene holding every object, written and adopted."""
    return Scene(scene.params, dict(scene.points), dict(scene.lines), dict(scene.circles),
                 scene.flags)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return f"raise {type(exc).__name__}: {exc}"


def _float_params():
    instances, _ = verify.fuzz_instances(verify.FuzzConfig(seed=7, count=10))
    for _, p, _ in instances:
        try:
            yield Params.make(p.a.value, p.b.value, p.c.value, p.t.value, backend=FB)
        except GeometryError:
            pass


def _alien(obj, backend):
    """obj's kind at its values, on another backend."""
    convert = (lambda s: Scalar(backend, float(s.value))) if not backend.exact else (
        lambda s: EXACT.scalar(Fraction(s.value)))
    return type(obj)(*(convert(s) for s in vars(obj).values()))


def corpus():
    """(label, factory) pairs; each factory returns a scene none of whose
    objects has been read through it."""
    golden = Params.make(1, 2, 3, Fraction(1, 2))
    golden_f = Params.make(1, 2, 3, Fraction(1, 2), backend=FB)
    cases = [("golden", golden), ("golden-float", golden_f),
             ("classical-float", Params.make(1, 2, 3, 0, backend=FB))]
    cases += [(f"seed3-{i}", p) for i, p in verify._instances(verify.FuzzConfig(seed=3, count=20))]
    wide = verify.FuzzConfig(seed=5, count=1, max_numerator=10 ** 200, max_denominator=10 ** 200)
    cases += [("wide", p) for _, p in verify._instances(wide)]
    cases += [(f"float-{i}", p) for i, p in enumerate(_float_params())]
    out = [(label, lambda p=p: simson.build_scene(p)) for label, p in cases]
    for params in (golden, golden_f):
        for i, (what, _) in enumerate(corruptions(simson.build_scene(params))):
            out.append((f"{params.backend.name} {what}",
                        lambda p=params, i=i: list(corruptions(simson.build_scene(p)))[i][1]))

    def mixed(params, part, name, backend):
        scene = simson.build_scene(params)
        objects = getattr(scene, part)
        return dataclasses.replace(scene, **{part: {**objects,
                                                    name: _alien(objects[name], backend)}})

    out.append(("mixed exact J", lambda: mixed(golden, "points", "J", FB)))
    out.append(("mixed float gwsLine", lambda: mixed(golden_f, "lines", "gwsLine", EXACT)))
    out.append(("mixed float S", lambda: mixed(golden_f, "circles", "S", EXACT)))
    return out


CORPUS = corpus()


def test_corpus_covers_each_kind():
    labels = [label for label, _ in CORPUS]
    assert sum(label.startswith("seed3-") for label in labels) == 20
    assert "wide" in labels and sum(label.startswith("float-") for label in labels) >= 5
    # per backend: 17 points moved two ways, 10 lines and 6 circles bumped, gwsLine rescaled
    assert sum(label.startswith(("exact ", "float ")) for label in labels) == 2 * (34 + 16 + 1)
    assert sum(label.startswith("mixed") for label in labels) == 3


@pytest.mark.parametrize("label, make", CORPUS, ids=[label for label, _ in CORPUS])
def test_lazy_scene_equals_eager_scene(label, make):
    """The scene of tuples against the same scene of adopted objects: the
    consumers first, on a scene nothing has read, then repr, ==, and the
    copy, deepcopy and pickle round trips."""
    lazy, eager_scene = make(), eager(make())
    for writer in (lambda s: repr(verify.run_checks(s)), sceneio.scene_to_json,
                   sceneio.render_svg, sceneio.scene_summary):
        assert outcome(writer, lazy) == outcome(writer, eager_scene)
    assert repr(lazy) == repr(eager_scene)
    assert lazy == eager_scene and eager_scene == lazy and not lazy != eager_scene
    for name, clone in CLONES.items():
        twin, eager_twin = clone(lazy), clone(eager_scene)
        assert repr(twin) == repr(eager_twin) == repr(lazy), name
        assert twin == lazy and eager_twin == eager_scene, name
        assert repr(verify.run_checks(twin)) == repr(verify.run_checks(lazy)), name
    mixed = label.startswith("mixed")
    for part in ("points", "lines", "circles"):
        objects = getattr(lazy, part)
        assert type(objects) is SceneObjects
        assert (objects.backend is None) == (mixed and part == {
            "J": "points", "gwsLine": "lines", "S": "circles"}[label.split()[-1]])
    # a float line that is not a unit normal reads back canonical, so another line
    if not mixed and label != "float gwsLine rescaled":
        assert sceneio.scene_from_json(sceneio.scene_to_json(lazy)) == lazy


def test_mixed_scene_checks_and_writes_by_each_backend(golden_scene):
    """A mixed-backend scene: every check is a BackendMismatch result, and
    the JSON writes each value by its object's own backend."""
    fl = simson.build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=FB))
    mixed = dataclasses.replace(fl, points={**fl.points, "Q": golden_scene.points["Q"]})
    assert mixed.points.backend is None and mixed.points.backend_of("Q") == EXACT
    assert mixed.points.backend_of("J") == FB
    report = verify.run_checks(mixed)
    assert [r.witness for r in report.results] == [
        {"error": "cannot combine float and exact objects"}] * 19
    assert sceneio.scene_to_document(mixed)["points"]["Q"] == [-1.4, 1.0]
    twin = pickle.loads(pickle.dumps(mixed))
    assert twin.points.backend is None and repr(twin) == repr(mixed)


def test_maps_are_read_only(golden_scene):
    for objects in (golden_scene.points, golden_scene.lines, golden_scene.circles):
        name = next(iter(objects))
        with pytest.raises(TypeError):
            objects[name] = objects[name]
        with pytest.raises(TypeError):
            del objects[name]
        with pytest.raises(TypeError):
            hash(objects)
    with pytest.raises(dataclasses.FrozenInstanceError):
        golden_scene.points = {}


def test_names_and_sizes_write_nothing(monkeypatch):
    scene = simson.build_scene(Params.make(1, 2, 3, Fraction(1, 2)))
    written = []
    real = geom._point_of
    monkeypatch.setattr(geom, "_point_of", lambda *args: written.append(args) or real(*args))
    points = scene.points
    assert list(points) == list(simson.POINT_NAMES) == list(points.keys())
    assert len(points) == 17 and "Q" in points and "nope" not in points
    assert points.get("nope") is None
    assert written == []
    assert points.get("Q") is points["Q"] and len(written) == 1
    assert repr(points["Q"]) == "Point(-7/5, 1)"


def test_adopted_objects_are_the_ones_given(golden_scene):
    """A Scene given dicts keeps their objects, and a later change to the
    dict does not reach it."""
    q = Point(EXACT.scalar(Fraction(3, 4)), EXACT.scalar(-1))
    given = {**golden_scene.points, "Q": q}
    scene = dataclasses.replace(golden_scene, points=given)
    given["Q"] = golden_scene.points["Q"]
    assert scene.points["Q"] is q and scene.points._h["Q"] == q._h
    assert scene.lines is golden_scene.lines and scene != golden_scene
    assert scene.points.backend == EXACT
