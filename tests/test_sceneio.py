import dataclasses
import hashlib
import json
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, P, count_fractions
from oblique_simson import (
    FloatBackend,
    Params,
    ParseError,
    build_scene,
    geom,
    render_svg,
    run_checks,
    scene_from_json,
    scene_to_json,
)
from oblique_simson.errors import DegenerateTriangle, GeometryError, OutputError
from oblique_simson.geom import Point, make_circle, make_line
from oblique_simson.numeric import EXACT, Scalar, format_scalar, parse_rational
from oblique_simson.sceneio import document_to_scene, scene_summary, scene_to_document
from oblique_simson.simson import CIRCLE_NAMES, LINE_NAMES, POINT_NAMES, Scene, SceneObjects
from oblique_simson.verify import SplitMix64

# the interpreter's integer-to-text digit limit (0: none)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _outcome(fn, args):
    try:
        return "=", repr(fn(*args))
    except Exception as exc:  # compared by type and message
        return "raise", type(exc).__name__, str(exc)


def _read_as(make, coeffs):
    """make's outcome on the parsed coefficients, an error as the reader
    reports it: a malformed document."""
    want = _outcome(make, [EXACT.parse(v) for v in coeffs])
    if want[0] == "raise":
        return "raise", "ParseError", "malformed scene document: " + want[2]
    return want


class TestSceneDocument:
    def test_roundtrip_identity_exact(self, golden_scene):
        assert scene_from_json(scene_to_json(golden_scene)) == golden_scene

    def test_roundtrip_identity_classical(self, classical_scene):
        assert scene_from_json(scene_to_json(classical_scene)) == classical_scene

    def test_document_shape(self, golden_scene):
        doc = scene_to_document(golden_scene)
        assert doc["schema"] == 1
        assert doc["backend"] == "exact"
        assert doc["eps_abs"] is None
        assert doc["params"] == {"a": "1", "b": "2", "c": "3", "t": "1/2"}
        assert doc["points"]["Q"] == ["-7/5", "1"]
        assert doc["lines"]["gwsLine"] == ["5", "5", "2"]
        assert doc["circles"]["S"] == ["14/5", "-2", "0"]
        assert doc["flags"] == ["tangent:AA0"]

    def test_rationals_serialized_as_strings(self, golden_scene):
        doc = json.loads(scene_to_json(golden_scene))
        for coords in doc["points"].values():
            assert all(isinstance(v, str) for v in coords)

    def test_float_backend_roundtrip(self):
        fb = FloatBackend(1e-9)
        scene = build_scene(Params.make(1, 2, 3, 0.5, backend=fb))
        doc = scene_to_document(scene)
        assert doc["backend"] == "float"
        assert doc["eps_abs"] == 1e-9
        assert all(isinstance(v, float) or isinstance(v, int)
                   for v in doc["points"]["Q"])
        again = scene_from_json(scene_to_json(scene))
        # bit-exact float round trip through JSON
        for name, p in scene.points.items():
            assert again.points[name].x.value == p.x.value
            assert again.points[name].y.value == p.y.value

    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    def test_float_document_writes_back_byte_for_byte(self, eps):
        """A written float line is a unit normal obeying the sign rule, so
        the reader keeps it as written rather than dividing by its norm
        again: the golden and seeded float documents write back byte for
        byte, to an equal scene with an equal report."""
        fb = FloatBackend(eps)
        golden = build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=fb))
        scenes = [golden, *_seeded_scenes(fb, 5, 40, 10, 10)]
        assert len(scenes) > 30
        for scene in scenes:
            text = scene_to_json(scene)
            back = scene_from_json(text)
            assert scene_to_json(back) == text
            assert back == scene
            assert run_checks(back) == run_checks(scene)

    @pytest.mark.parametrize("coeffs, want", [
        ([2, 0, -2], [1.0, 0.0, -1.0]), ([-1.0, 0.0, 1.0], [1.0, -0.0, -1.0]),
        ([0.6, 0.8, 2.0], [0.6, 0.8, 2.0]), ([0.0, -1.0, 3.0], [-0.0, 1.0, -3.0]),
    ])
    def test_float_document_line_is_canonicalized(self, coeffs, want):
        """A float line not yet a unit normal with the sign rule is made one."""
        doc = scene_to_document(build_scene(Params.make(1, 2, 3, 0.5, backend=FloatBackend())))
        doc["lines"]["gwsLine"] = coeffs
        line = scene_from_json(json.dumps(doc)).lines["gwsLine"]
        assert repr([s.value for s in (line.a, line.b, line.c)]) == repr(want)

    def test_malformed_document_rejected(self, golden_scene):
        with pytest.raises(ParseError):
            scene_from_json("{not json")
        doc = scene_to_document(golden_scene)
        del doc["points"]["Q"]
        with pytest.raises(ParseError):
            scene_from_json(json.dumps(doc))
        doc2 = scene_to_document(golden_scene)
        doc2["schema"] = 99
        with pytest.raises(ParseError):
            scene_from_json(json.dumps(doc2))

    @pytest.mark.parametrize("field,value", [
        ("flags", "tangent:AA0"),
        ("flags", [1, None]),
        ("eps_abs", True),
        ("eps_abs", 1),
        ("eps_abs", 2.5),
        ("eps_abs", "junk"),
        ("eps_abs", None),
        ("eps_abs", [1e-9]),
        ("eps_abs", {"x": 1}),
    ], ids=["flags-string", "flags-not-strings", "eps-abs-bool", "eps-abs-one",
            "eps-abs-above-one", "eps-abs-string", "eps-abs-null", "eps-abs-array",
            "eps-abs-object"])
    def test_mistyped_field_rejected(self, field, value):
        scene = build_scene(Params.make(1, 2, 3, 0.5, backend=FloatBackend(1e-9)))
        doc = scene_to_document(scene)
        doc[field] = value
        with pytest.raises(ParseError, match="^malformed scene document: ") as info:
            scene_from_json(json.dumps(doc))
        if field == "eps_abs" and type(value) not in (int, float):
            assert str(info.value) == ("malformed scene document: "
                                       f"eps_abs must be a number, got {value!r}")

    @pytest.mark.parametrize("field,value", [
        ("schema", True), ("schema", 1.0), ("schema", "1"),
        ("eps_abs", "junk"), ("eps_abs", 1e-9),
    ], ids=["schema-bool", "schema-float", "schema-string",
            "exact-eps-abs-string", "exact-eps-abs-number"])
    def test_exact_document_field_rejected(self, golden_scene, field, value):
        doc = scene_to_document(golden_scene)
        doc[field] = value
        with pytest.raises(ParseError, match="^malformed scene document: "):
            scene_from_json(json.dumps(doc))

    def test_float_document_schema_bool_rejected(self):
        scene = build_scene(Params.make(1, 2, 3, 0.5, backend=FloatBackend(1e-9)))
        doc = scene_to_document(scene)
        doc["schema"] = True
        with pytest.raises(ParseError, match="^malformed scene document: "):
            scene_from_json(json.dumps(doc))

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("part, name, error", [
        ("lines", "gwsLine", "line coefficients degenerate: a = b = 0"),
        ("circles", "S", "not a proper circle: d^2 + e^2 - 4f <= 0"),
    ], ids=["degenerate-line", "improper-circle"])
    def test_degenerate_object_is_a_malformed_document(self, part, name, error, backend):
        be = EXACT if backend == "exact" else FloatBackend(1e-9)
        doc = scene_to_document(build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=be)))
        doc[part][name] = ["0", "0", "1"] if be.exact else [0.0, 0.0, 1.0]
        with pytest.raises(ParseError) as raised:
            scene_from_json(json.dumps(doc))
        assert str(raised.value) == "malformed scene document: " + error

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("part, name, size", [
        ("points", "A", 2), ("lines", "gwsLine", 3), ("circles", "S", 3),
    ], ids=["point", "line", "circle"])
    @pytest.mark.parametrize("shape", ["string", "object"])
    def test_entry_that_is_not_an_array_is_malformed(self, part, name, size, shape, backend):
        """A string or an object of the right length would unpack as its
        characters or keys: "100" as (1, 0, 0), {"1": .., "0": ..} as (1, 0)."""
        be = EXACT if backend == "exact" else FloatBackend(1e-9)
        doc = scene_to_document(build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=be)))
        values = doc[part][name]
        doc[part][name] = ("1" + "0" * (size - 1) if shape == "string"
                           else {str((i + 1) % size): v for i, v in enumerate(values)})
        with pytest.raises(ParseError, match=f"^malformed scene document: {part} entry "
                           f"'{name}' must be an array of {size} values, got "):
            scene_from_json(json.dumps(doc))

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_value_beyond_text_limit_raises_output_error(self):
        a = int("7" * (INT_TEXT_LIMIT // 2 + 100))
        scene = build_scene(Params.make(a, 2, 3, Fraction(1, 2)))
        with pytest.raises(OutputError):
            scene_to_json(scene)

    @pytest.mark.parametrize("coeffs", [
        ["5", "5", "2"], ["1", "0", "-3"], ["0", "1", "7"], ["2", "4", "6"],
        ["-1", "0", "3"], ["0", "-2", "4"], ["1/2", "1", "0"], ["0", "0", "1"],
        ["0", "0", "0"],
    ])
    def test_document_line_as_make_line_builds_it(self, golden_scene, coeffs):
        """A canonical line is kept as parsed; any other is canonicalized
        exactly as make_line does, or rejected where make_line rejects it."""
        doc = scene_to_document(golden_scene)
        doc["lines"]["gwsLine"] = coeffs
        want = _read_as(make_line, coeffs)
        got = _outcome(lambda: scene_from_json(json.dumps(doc)).lines["gwsLine"], ())
        assert got == want

    @pytest.mark.parametrize("coeffs", [
        ["14/5", "-2", "0"], ["-2", "0", "0"], ["1/2", "-1/3", "-5"], ["0", "0", "1"],
        ["2", "0", "1"],
    ])
    def test_document_circle_as_make_circle_builds_it(self, golden_scene, coeffs):
        doc = scene_to_document(golden_scene)
        doc["circles"]["S"] = coeffs
        want = _read_as(make_circle, coeffs)
        got = _outcome(lambda: scene_from_json(json.dumps(doc)).circles["S"], ())
        assert got == want

    def test_reader_builds_each_value_once(self, golden_scene, monkeypatch):
        """The writer's values are read as integer pairs: a document read
        builds no Fraction (86 before, one per parsed value); a value in
        another form builds the one Fraction of the string parser."""
        text = scene_to_json(golden_scene)
        built = count_fractions(monkeypatch)
        back = scene_from_json(text)
        monkeypatch.undo()
        assert built == []
        assert back == golden_scene
        doc = json.loads(text)
        doc["points"]["Q"] = ["-1.4", "+1"]
        built = count_fractions(monkeypatch)
        back = scene_from_json(json.dumps(doc))
        monkeypatch.undo()
        assert len(built) == 2
        assert back == golden_scene

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            scene_from_json("[" * 100000)

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    @pytest.mark.parametrize("field", ["params", "points"])
    def test_exponent_past_text_limit_rejected(self, golden_scene, field):
        doc = scene_to_document(golden_scene)
        value = f"1e{INT_TEXT_LIMIT + 1}"
        if field == "params":
            doc["params"]["t"] = value
        else:
            doc["points"]["Q"] = [value, "0"]
        with pytest.raises(ParseError, match="decimal exponent"):
            scene_from_json(json.dumps(doc))

    def test_exact_document_rejects_numbers(self, golden_scene):
        doc = scene_to_document(golden_scene)
        doc["points"]["Q"] = [0.5, 0.25]
        with pytest.raises(ParseError):
            scene_from_json(json.dumps(doc))


# -- the writer, the reader and the SVG against the code they replaced ------------------


def _draws(seed, count, mag, den):
    """Seeded (a, b, c, t) draws with distinct a, b, c."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        abc = []
        while len(abc) < 3:
            r = rng.rational(mag, den)
            if r not in abc:
                abc.append(r)
        out.append((*abc, rng.rational(mag, den)))
    return out


def _seeded_scenes(backend, seed, count, mag, den):
    """The scenes of the seeded draws that build (a float draw may raise)."""
    for raw in _draws(seed, count, mag, den):
        try:
            yield build_scene(Params.make(*raw, backend=backend))
        except GeometryError:
            pass


SWEEPS = [(EXACT, 10, 10, 40), (EXACT, 10 ** 200, 10 ** 200, 4),
          (FloatBackend(1e-9), 10, 10, 40), (FloatBackend(1e-6), 10 ** 4, 100, 10)]
# the sweep as it rendered before wide exact lines and radii were scaled, when
# each 10^200 figure raised OutputError, and as it renders now
SVG_SWEEP_DIGEST = "d77cb2454009cadb47a78f43e8adc626505daf5f9e183645449a631840611eda"
SVG_SWEEP_DIGEST_WIDE = "d3f8422308f89ee9db03f0be6e48634368f6a925eab9b1f3a4073e72328b5bf2"


def _sweep_scenes():
    for backend, mag, den, count in SWEEPS:
        yield from _seeded_scenes(backend, 11, count, mag, den)


def _old_document(scene):
    """The schema-1 mapping as it was built field by field for json.dumps."""
    be = scene.backend

    def value(x):
        return format_scalar(x) if be.exact else x.value

    return {
        "schema": 1,
        "backend": be.name,
        "eps_abs": None if be.exact else be.eps_abs,
        "params": {k: value(getattr(scene.params, k)) for k in ("a", "b", "c", "t")},
        "points": {n: [value(p.x), value(p.y)] for n, p in scene.points.items()},
        "lines": {n: [value(l.a), value(l.b), value(l.c)] for n, l in scene.lines.items()},
        "circles": {n: [value(C.d), value(C.e), value(C.f)]
                    for n, C in scene.circles.items()},
        "flags": list(scene.flags),
    }


def _old_json(scene):
    return json.dumps(_old_document(scene), indent=2) + "\n"


def _old_exact_reader(doc):
    """document_to_scene on an exact document as it was: each value through
    the string parser, one eager Fraction each."""
    def value(v):
        if not isinstance(v, str):
            raise ParseError(f"exact scene document requires string scalars, got {v!r}")
        return Scalar(EXACT, parse_rational(v))

    try:
        params = Params(*(value(doc["params"][k]) for k in ("a", "b", "c", "t")))
        points = {n: Point(*map(value, doc["points"][n])) for n in POINT_NAMES}
        lines = {n: make_line(*map(value, doc["lines"][n])) for n in LINE_NAMES}
        circles = {n: make_circle(*map(value, doc["circles"][n])) for n in CIRCLE_NAMES}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed scene document: {exc}") from exc
    return Scene(params=params, points=points, lines=lines, circles=circles,
                 flags=tuple(doc["flags"]))


def _assert_reader_agrees(doc):
    """scene_from_json on the document gives _old_exact_reader's scene, with
    the same tuples, or raises its exception type; a degenerate line or an
    improper circle, which the old reader let out as a GeometryError, is the
    reader's malformed document."""
    try:
        want = _old_exact_reader(doc)
    except Exception as exc:  # compared by type
        if isinstance(exc, GeometryError) and not isinstance(exc, (ParseError, DegenerateTriangle)):
            with pytest.raises(ParseError) as info:
                scene_from_json(json.dumps(doc))
            assert str(info.value) == f"malformed scene document: {exc}"
        else:
            with pytest.raises(type(exc)):
                scene_from_json(json.dumps(doc))
        return
    got = scene_from_json(json.dumps(doc))
    assert got == want and repr(got) == repr(want)
    for part in ("points", "lines", "circles"):
        for name, obj in getattr(got, part).items():
            assert obj._h == getattr(want, part)[name]._h
    # non-canonical input writes back canonical
    assert scene_to_json(got) == _old_json(want)


# value slots of the golden document: a param, or one value of a point, line or circle
_SLOTS = [("params", k, None) for k in "abct"] + [
    (part, name, i) for part, names, size in (("points", POINT_NAMES, 2), ("lines", LINE_NAMES, 3),
                                              ("circles", CIRCLE_NAMES, 3))
    for name in names for i in range(size)]
# texts near the writer's form: ASCII digits, signs, "/", "_", exponents, spaces,
# and digits of other scripts that int() and Fraction read but the writer never writes
_NEAR_WRITTEN = st.one_of(
    st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True),  # the writer's form, or q = 0
    st.from_regex(r"\s?[-+]?[0-9٣０_]{0,4}(/[-+]?[0-9߁໕_]{0,3})?([eE][-+]?[0-9]{1,2})?\s?",
                  fullmatch=True),
    st.text(st.sampled_from("0123456789" * 3 + "//--+_e  ." + "٣０߁໕"), max_size=12))


class TestWriterReaderSvgDifferential:
    def test_writer_is_json_dumps_of_the_old_document(self, golden_scene, classical_scene):
        scenes = [golden_scene, classical_scene, *_sweep_scenes()]
        assert any(s.flags for s in scenes) and any(not s.flags for s in scenes)
        for scene in scenes:
            assert scene_to_json(scene) == _old_json(scene)

    def test_writer_escapes_flags_as_json_dumps(self, golden_scene):
        doc = scene_to_document(golden_scene)
        doc["flags"] = ['say "tangent"', "back\\slash", "ünïcödé → λ", "tab\tnew\nline", ""]
        scene = scene_from_json(json.dumps(doc))
        assert scene.flags == tuple(doc["flags"])
        assert scene_to_json(scene) == _old_json(scene)
        assert scene_from_json(scene_to_json(scene)) == scene

    def test_writer_writes_float_values_as_json_dumps(self):
        fb = FloatBackend(1e-9)
        scene = build_scene(Params.make(Fraction(-3, 7), 2, Fraction(5, 2), 0, backend=fb))
        assert all(type(s.value) is float for s in vars(scene.circles["Sigma"]).values())
        points = dict(scene.points)
        points["Q"] = Point(fb.scalar(-0.0), Scalar(fb, float("inf")))
        points["K"] = Point(fb.scalar(5e-324), fb.scalar(1e300))
        for s in (scene, dataclasses.replace(scene, points=points)):
            assert scene_to_json(s) == _old_json(s)

    @pytest.mark.parametrize("text", ["2/4", "-0", "+3", "0/7", " 1/2", "1e3", "1/0", "1/2/3",
                                      "0x10", "", "-", "huge"])
    @pytest.mark.parametrize("where", ["param-a", "param-t", "point", "line", "circle"])
    def test_reader_agrees_with_the_string_parser(self, golden_scene, text, where):
        if text == "huge":
            text = "7" * (INT_TEXT_LIMIT + 1) if INT_TEXT_LIMIT else "7" * 5000
        doc = scene_to_document(golden_scene)
        if where.startswith("param"):
            doc["params"][where[-1]] = text
        else:
            part, name = {"point": ("points", "Q"), "line": ("lines", "gwsLine"),
                          "circle": ("circles", "S")}[where]
            doc[part][name][0] = text
        _assert_reader_agrees(doc)

    @settings(max_examples=300, deadline=None)
    @given(slot=st.sampled_from(_SLOTS), text=st.one_of(_NEAR_WRITTEN, st.text(max_size=8)))
    def test_reader_agrees_with_the_string_parser_on_any_text(self, golden_scene, slot, text):
        """Any text in one value slot reads as the string parser reads it:
        the writer's form on the one-match route, anything else value by value."""
        doc = scene_to_document(golden_scene)
        part, name, i = slot
        if i is None:
            doc[part][name] = text
        else:
            doc[part][name][i] = text
        _assert_reader_agrees(doc)

    def test_svg_sweep_digest(self):
        """render_svg on seeded exact, float and 10^200 scenes, hashed as one
        text.  SVG_SWEEP_DIGEST was recorded with every coordinate drawn from
        its Fraction or float value, when each 10^200 figure raised
        OutputError on a line or a squared radius past the float range: with
        those four read as that raise, the text still hashes to it, so every
        figure that rendered then is the same byte for byte."""
        outcomes = []
        for scene in _sweep_scenes():
            try:
                outcomes.append(render_svg(scene))
            except OutputError as exc:
                outcomes.append(f"raise OutputError: {exc}")
        assert not any(o.startswith("raise") for o in outcomes)
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == SVG_SWEEP_DIGEST_WIDE
        start = SWEEPS[0][3]
        wide = range(start, start + SWEEPS[1][3])
        assert SWEEPS[1][1] == 10 ** 200 and len(wide) == 4
        before = ["raise OutputError: scene value exceeds the float range of the SVG canvas"
                  if i in wide else o for i, o in enumerate(outcomes)]
        assert hashlib.sha256("\n".join(before).encode()).hexdigest() == SVG_SWEEP_DIGEST


class TestSummary:
    def test_golden_summary(self, golden_scene):
        text = scene_summary(golden_scene)
        assert "Q   = (-7/5, 1)" in text
        assert "backend: exact" in text
        assert "tangent:AA0" in text
        assert "gwsLine" in text


class TestSvg:
    def test_byte_deterministic(self, golden_scene):
        assert render_svg(golden_scene) == render_svg(golden_scene)

    def test_well_formed_xml_with_labels(self, golden_scene):
        svg = render_svg(golden_scene)
        assert svg.startswith('<?xml version="1.0"')
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert len(texts) == 17
        assert sorted(el.text for el in texts) == sorted(golden_scene.points)

    def test_label_is_written_as_given(self, golden_scene):
        """A point's label is its name as given, even one holding a format
        directive or the text of a negative zero, which the numbers lose."""
        name = "Q%s-0.000000"
        points = {(name if n == "Q" else n): p for n, p in golden_scene.points.items()}
        svg = render_svg(dataclasses.replace(golden_scene, points=points))
        assert svg == render_svg(golden_scene).replace(">Q</text>", f">{name}</text>")
        # J's canvas y is -0.0, written "0.000000": the label keeps its text
        assert 'cy="0.000000"' in svg and svg.count("-0.000000") == 1

    def test_label_is_escaped_as_xml_text(self, golden_scene):
        """A name holding &, < or > is written escaped, so the figure parses
        and its label reads back as the name; the other labels are as before."""
        name = "P<&"
        points = {(name if n == "Q" else n): p for n, p in golden_scene.points.items()}
        svg = render_svg(dataclasses.replace(golden_scene, points=points))
        labels = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
        assert name in labels and "Q" not in labels and len(labels) == 17
        assert svg == render_svg(golden_scene).replace(">Q</text>", ">P&lt;&amp;</text>")

    def test_scene_without_points_raises_output_error(self, golden_scene):
        with pytest.raises(OutputError, match="^a scene with no points has no figure"):
            render_svg(dataclasses.replace(golden_scene, points={}))

    def test_circles_and_lines_present(self, golden_scene):
        svg = render_svg(golden_scene)
        root = ET.fromstring(svg)
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        # 17 point dots + 6 scene circles
        assert len(circles) == 23
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert 1 <= len(lines) <= 10

    def test_fixed_decimal_formatting(self, golden_scene):
        svg = render_svg(golden_scene)
        root = ET.fromstring(svg)
        for el in root.iter():
            if el.tag.endswith("line"):
                for attr in ("x1", "y1", "x2", "y2"):
                    whole, frac = el.attrib[attr].lstrip("-").split(".")
                    assert len(frac) == 6

    def test_directly_built_points_draw_the_same(self, golden_scene):
        """Points built from their values, with unequal denominators and
        eager coordinates, hold the kernel points' integers and give the
        same bytes; a coordinate past the float range is an OutputError."""
        points = {n: Point(E(p.x.value), E(p.y.value)) for n, p in golden_scene.points.items()}
        assert any(p.x.value.denominator != p.y.value.denominator for p in points.values())
        assert all(p._h == golden_scene.points[n]._h for n, p in points.items())
        direct = dataclasses.replace(golden_scene, points=points)
        assert render_svg(direct) == render_svg(golden_scene)
        # a huge numerator over a huge denominator still fits
        near_one = Fraction(10 ** 400 + 1, 10 ** 400)
        points["Q"] = Point(E(near_one), E(Fraction(-1, 3)))
        assert render_svg(dataclasses.replace(golden_scene, points=points)) == render_svg(
            dataclasses.replace(golden_scene, points={**golden_scene.points, "Q": P(1, "-1/3")}))
        points["Q"] = Point(E(Fraction(10 ** 400, 3)), E(0))
        with pytest.raises(OutputError):
            render_svg(dataclasses.replace(golden_scene, points=points))

    def test_value_beyond_float_range_raises_output_error(self):
        # radius^2 of S and cA exceed the float range, but the radii fit
        assert render_svg(build_scene(Params.make(1, 2, 3, 10 ** 154))).endswith("</svg>\n")
        # Q itself exceeds it
        scene = build_scene(Params.make(1, 2, 3, 10 ** 310))
        with pytest.raises(OutputError):
            render_svg(scene)

    @pytest.mark.parametrize("backend", [EXACT, FloatBackend(1e-9)], ids=["exact", "float"])
    def test_canvas_overflow_raises_output_error(self, backend):
        """K at (10^307, 0) fits a float, but its canvas position at 200 px
        per unit, and the viewBox fitted to it, do not."""
        golden = build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=backend))
        doc = scene_to_document(golden)
        doc["points"]["K"] = ["1" + "0" * 307, "0"] if backend.exact else [1e307, 0.0]
        with pytest.raises(OutputError):
            render_svg(document_to_scene(doc))


# -- the writers read each object's _h, never its coordinate fields ------------------


class _Poisoned:
    """Stands in for a coordinate field: any read of it raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"a writer read {name!r} of a coordinate field")

    def _used(self, *args):
        raise AssertionError("a writer used a coordinate field")

    __repr__ = __str__ = __format__ = __float__ = __bool__ = __eq__ = __hash__ = _used


def _poisoned(obj):
    """A copy of a Point, Line or Circle that holds obj's _h and backend, and
    a _Poisoned in place of each field."""
    copy = object.__new__(type(obj))
    geom._Stored._h.__set__(copy, obj._h)
    geom._Stored.backend.__set__(copy, obj.backend)
    copy.__dict__.update((name, _Poisoned()) for name in vars(obj))
    return copy


def _noncanonical_document(backend):
    """The golden scene's document with values spelled another way: on exact
    "1e0", "+3", "2/4" and "-14/10", on float integers and exponents."""
    golden = build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=backend))
    text = scene_to_json(golden)
    if backend.exact:
        spelled = {'"a": "1"': '"a": "1e0"', '"c": "3"': '"c": "+3"', '"t": "1/2"': '"t": "2/4"',
                   '"-7/5"': '"-14/10"'}
    else:
        spelled = {'"a": 1.0': '"a": 1e0', '"c": 3.0': '"c": 3', '"t": 0.5': '"t": 5e-1'}
    for old, new in spelled.items():
        assert old in text
        text = text.replace(old, new)
    return golden, scene_from_json(text)


class TestWritersReadTuplesAlone:
    @pytest.mark.parametrize("backend", [EXACT, FloatBackend(1e-9)], ids=["exact", "float"])
    def test_writers_read_no_field(self, backend):
        """With every Point, Line and Circle field poisoned, scene_to_json,
        scene_summary and render_svg write the untouched scene's text: the
        golden scene, 20 seeded ones, one at 10^200 on exact (there a float
        vertex falls on J) and a document read back from values not in
        canonical form."""
        golden, read_back = _noncanonical_document(backend)
        wide = [*_seeded_scenes(backend, 5, 1, 10 ** 200, 10 ** 200)] if backend.exact else []
        scenes = [golden, read_back, *_seeded_scenes(backend, 3, 20, 10, 10), *wide]
        assert len(scenes) == (23 if backend.exact else 22)
        assert scene_to_json(read_back) == scene_to_json(golden)
        for scene in scenes:
            poisoned = dataclasses.replace(scene, **{
                part: {name: _poisoned(obj) for name, obj in getattr(scene, part).items()}
                for part in ("points", "lines", "circles")})
            for writer in (scene_to_json, scene_summary, render_svg):
                assert _outcome(writer, [poisoned]) == _outcome(writer, [scene])

    def test_writer_reads_each_map_backend_once(self, golden_scene, monkeypatch):
        """scene_to_json picks each map's value writer once: it reads an
        object's own backend (at most once per object) only in a map whose
        adopted objects have several."""
        calls = []
        backend_of = SceneObjects.backend_of
        monkeypatch.setattr(SceneObjects, "backend_of",
                            lambda objects, name: calls.append(name) or backend_of(objects, name))
        assert scene_to_json(golden_scene) == _old_json(golden_scene)
        assert calls == []
        fl = build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=FloatBackend()))
        mixed = dataclasses.replace(fl, points={**fl.points, "Q": golden_scene.points["Q"]})
        scene_to_json(mixed)
        assert calls == list(POINT_NAMES)

    def test_object_of_another_backend_is_written_at_its_value(self, golden_scene):
        """Each object's values are written by its own backend's rule: an
        exact Q in a float scene is the number -7/5, not its numerator."""
        fl = build_scene(Params.make(1, 2, 3, Fraction(1, 2), backend=FloatBackend()))
        mixed = dataclasses.replace(fl, points={**fl.points, "Q": golden_scene.points["Q"]})
        assert scene_to_document(mixed)["points"]["Q"] == [-1.4, 1.0]
        assert "Q   = (-7/5, 1)" in scene_summary(mixed)
