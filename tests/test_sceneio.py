import json
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from oblique_simson import (
    FloatBackend,
    Params,
    ParseError,
    build_scene,
    render_svg,
    scene_from_json,
    scene_to_json,
)
from oblique_simson.errors import OutputError
from oblique_simson.sceneio import scene_summary, scene_to_document

# the interpreter's integer-to-text digit limit (0: none)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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
    ], ids=["flags-string", "flags-not-strings", "eps-abs-bool"])
    def test_mistyped_field_rejected(self, field, value):
        scene = build_scene(Params.make(1, 2, 3, 0.5, backend=FloatBackend(1e-9)))
        doc = scene_to_document(scene)
        doc[field] = value
        with pytest.raises(ParseError, match="^malformed scene document: "):
            scene_from_json(json.dumps(doc))

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_value_beyond_text_limit_raises_output_error(self):
        a = int("7" * (INT_TEXT_LIMIT // 2 + 100))
        scene = build_scene(Params.make(a, 2, 3, Fraction(1, 2)))
        with pytest.raises(OutputError):
            scene_to_json(scene)

    def test_exact_document_rejects_numbers(self, golden_scene):
        doc = scene_to_document(golden_scene)
        doc["points"]["Q"] = [0.5, 0.25]
        with pytest.raises(ParseError):
            scene_from_json(json.dumps(doc))


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

    def test_value_beyond_float_range_raises_output_error(self):
        # the exact scene builds, but radius^2 of S and cA exceed the float range
        scene = build_scene(Params.make(1, 2, 3, 10 ** 154))
        with pytest.raises(OutputError):
            render_svg(scene)
