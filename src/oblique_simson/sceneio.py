"""Scene serialization: lossless JSON documents and deterministic SVG figures.

JSON keeps exact-backend values as canonical "p/q" strings (never floats), so
a document round-trips to an identical Scene; float-backend scenes store plain
JSON numbers plus the backend tolerance.  Both directions work per object, on
the canonical tuples a Scene holds.  The writer lays schema 1 out byte for
byte as ``json.dumps(document, indent=2)`` would, each object from one
template, exact values through :func:`~oblique_simson.numeric.format_pair`.
The reader takes each entry in one pass: exact text all in the writer's form
becomes integers in one match, any other goes value by value through
:meth:`~oblique_simson.numeric.ExactBackend.parse_pair`, and the values over
their lcm give the tuple Point, make_line and make_circle give.  A float line
already a canonical unit normal is kept as written (see
:func:`~oblique_simson.geom.make_line`), so both kinds of document write back
byte for byte.  A schema that is not the integer 1, an ``eps_abs`` that is
not null on exact or not a number on float, an entry that is not an array of
two or three values, a degenerate line or an improper circle is malformed.

SVG output is cosmetic but byte-deterministic: points, then lines, then
circles, alphabetical by name, each from one template; 6-decimal coordinates,
all formatted at once; a viewBox fitted to the points with a 10% margin; lines
clipped to it, circles drawn whole.  An exact value is drawn at the correctly
rounded quotient of its numerator and denominator, as ``float()`` of a
``Fraction`` gives; a line's exact integers wider than 1000 bits, and a squared
radius past the float range, are first divided by a power of two, taken exactly.
"""

from __future__ import annotations

import json
import math
import re
from itertools import repeat
from typing import List, Optional, Tuple

from . import geom
from .errors import GeometryError, OutputError, ParseError
from .numeric import EXACT, Backend, FloatBackend, _pair, format_pair
from .simson import CIRCLE_NAMES, LINE_NAMES, POINT_NAMES, Params, Scene, SceneObjects

SCHEMA_VERSION = 1

# json.dumps' own string encoder (ASCII output), for names and flags
_string = json.encoder.encode_basestring_ascii

# an exact value in the writer's form, "p" or "p/q" in ASCII digits with q nonzero; k of
# them joined by "," match _WRITER_FORM[k] (compiled on first use), a "," in one fails it
_WRITTEN = r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?"
_WRITER_FORM: dict = {}

# rendering constants: canonical-frame coordinates are O(1), so scale up
_PX_PER_UNIT = 200.0
_MARGIN_FRACTION = 0.10
_DOT_RADIUS = 2.0
_FONT_SIZE = 10.0
# wider exact integers are scaled by a power of two before they become floats
_WIDE_BITS = 1000
_PAST_RANGE = "scene value exceeds the float range of the SVG canvas"


def _pairs(be: Backend, values: list) -> list:
    """The pairs of a document array's values, flat (n_1, d_1, ...): exact text all in the
    writer's form in one match, any other value by value (text through parse_pair)."""
    if be.exact:
        try:
            form = _WRITER_FORM.get(len(values)) or _WRITER_FORM.setdefault(
                len(values), re.compile(",".join([_WRITTEN] * len(values))).fullmatch)
            m = form(",".join(values))
            if m is not None:
                return list(map(int, m.groups("1")))
        except (TypeError, ValueError):  # a value that is not text; past the digit limit
            pass
    flat = []
    for v in values:
        if be.exact:
            if not isinstance(v, str):
                raise ParseError(f"exact scene document requires string scalars, got {v!r}")
            flat += be.parse_pair(v)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            flat += be.coerce(v), 1.0
        else:
            raise ParseError(f"float scene document requires numeric scalars, got {v!r}")
    return flat


def _tuples(be: Backend, doc: dict, section: str, names, canonical) -> dict:
    """Each entry of doc[section], an array of 2 (points) or 3 values, by name as
    canonical(be, N_1, ..., N_k, D): its values over their lcm D (1.0 on float)."""
    entries, tuples, size = doc[section], {}, 2 if section == "points" else 3
    gcd = be.gcd if be.exact else lambda p, q: 1.0  # D from the backend's gcd; 1.0 on float
    for name in names:
        values = entries[name]
        # a string or an object would read as its characters or keys
        if type(values) is not list or len(values) != size:
            raise TypeError(f"{section} entry {name!r} must be an array of {size} values, "
                            f"got {values!r}")
        if size == 2:
            x, p, y, q = _pairs(be, values)
            d = p // gcd(p, q) * q
            tuples[name] = canonical(be, x * (d // p), y * (d // q), d)
        else:
            a, p, b, q, c, r = _pairs(be, values)
            d = p // gcd(p, q) * q
            d = d // gcd(d, r) * r
            tuples[name] = canonical(be, a * (d // p), b * (d // q), c * (d // r), d)
    return tuples


def _float_text(be: Backend, n, d) -> str:
    """A float document's value text, called as format_pair is for exact."""
    value = n / d  # d is 1.0, so this is n bit for bit; json.dumps spells out the nonfinite
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _block(members: List[str], depth: int, brackets: str = "{}") -> str:
    """The text json.dumps(..., indent=2) gives a container at nesting
    *depth* whose members are already written."""
    if not members:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(members)}\n{'  ' * depth}{brackets[1]}"


def scene_to_json(scene: Scene) -> str:
    """The schema-1 document of a Scene as JSON text, byte for byte what
    ``json.dumps(document, indent=2) + "\n"`` writes."""
    backend = scene.backend
    # an exact value is a string of digits, "-" and "/", which need no escape
    text, q = (format_pair, '"') if backend.exact else (_float_text, "")
    sep = f'{q},\n      {q}'
    points, lines, circles, params = scene.points, scene.lines, scene.circles, scene.params

    def backends(objects):
        # the map's one backend, or each object's own where adopted ones have several
        return (repeat(objects.backend) if objects.backend is not None
                else map(objects.backend_of, objects._h))

    members = [
        f'"schema": {SCHEMA_VERSION}',
        f'"backend": {_string(backend.name)}',
        '"eps_abs": ' + json.dumps(None if backend.exact else backend.eps_abs),
        '"params": ' + _block([f'"{k}": {q}{text(backend, *getattr(params, k)._ratio())}{q}'
                               for k in "abct"], 1),
        '"points": ' + _block([
            f"{_string(name)}: [\n      {q}{text(be, x, w)}{sep}{text(be, y, w)}{q}\n    ]"
            for (name, (x, y, w)), be in zip(points._h.items(), backends(points))], 1),
        '"lines": ' + _block([
            f"{_string(name)}: [\n      {q}{text(be, a, be.one)}{sep}{text(be, b, be.one)}"
            f"{sep}{text(be, c, be.one)}{q}\n    ]"
            for (name, (a, b, c)), be in zip(lines._h.items(), backends(lines))], 1),
        '"circles": ' + _block([
            f"{_string(name)}: [\n      {q}{text(be, d, v)}{sep}{text(be, e, v)}"
            f"{sep}{text(be, f, v)}{q}\n    ]"
            for (name, (d, e, f, v)), be in zip(circles._h.items(), backends(circles))], 1),
        '"flags": ' + _block([_string(f) for f in scene.flags], 1, "[]"),
    ]
    return _block(members, 0) + "\n"


def scene_to_document(scene: Scene) -> dict:
    """The versioned, JSON-ready mapping for a Scene: scene_to_json's text, parsed."""
    return json.loads(scene_to_json(scene))


def document_to_scene(doc: dict) -> Scene:
    """Rebuild a Scene from a document produced by scene_to_document."""
    try:
        if type(doc["schema"]) is not int:
            raise TypeError(f"schema must be an integer, got {doc['schema']!r}")
        if doc["schema"] != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema version {doc['schema']!r}")
        if doc["backend"] == "exact":
            if doc.get("eps_abs") is not None:
                raise TypeError(f"eps_abs must be null on an exact document, "
                                f"got {doc['eps_abs']!r}")
            backend: Backend = EXACT
        elif doc["backend"] == "float":
            eps = doc["eps_abs"]
            if isinstance(eps, bool) or not isinstance(eps, (int, float)):
                raise TypeError(f"eps_abs must be a number, got {eps!r}")
            backend = FloatBackend(eps)
        else:
            raise ParseError(f"unknown backend tag {doc['backend']!r}")
        given = doc["params"]
        values = [_pair(backend, *_pairs(backend, [given[k]])) for k in ("a", "b", "c", "t")]
        # each object's canonical tuple, as Point, make_line and make_circle give it
        points = _tuples(backend, doc, "points", POINT_NAMES, geom._point_h)
        lines = _tuples(backend, doc, "lines", LINE_NAMES,
                        lambda be, a, b, c, d: geom._given_line_h(be, a, b, c))
        circles = _tuples(backend, doc, "circles", CIRCLE_NAMES, geom._circle_h)
        flags = doc["flags"]
        if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
            raise TypeError(f"flags must be a list of strings, got {flags!r}")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, GeometryError) as exc:
        # GeometryError: a degenerate line or an improper circle
        raise ParseError(f"malformed scene document: {exc}") from exc
    # a degenerate triangle is a DegenerateTriangle, as from Params.make
    return Scene(Params(*values), SceneObjects("_point_of", backend, points),
                 SceneObjects("_line_of", backend, lines),
                 SceneObjects("_circle_of", backend, circles), tuple(flags))


def scene_from_json(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_scene(doc)


def scene_summary(scene: Scene) -> str:
    """Human-readable deterministic rendering of a Scene, by geom's text writers."""
    be = scene.backend
    out: List[str] = []
    out.append(f"backend: {be.name}")
    out.append("params: " + " ".join(
        f"{k}={format_pair(be, *getattr(scene.params, k)._ratio())}" for k in "abct"))
    out.append("flags: " + (", ".join(scene.flags) if scene.flags else "(none)"))
    out.append("points:")
    points, lines, circles = scene.points, scene.lines, scene.circles
    for name in POINT_NAMES:
        out.append(f"  {name:<3} = {geom._point_text(points.backend_of(name), points._h[name])}")
    out.append("lines (a*x + b*y + c = 0):")
    for name in LINE_NAMES:
        out.append(f"  {name:<14} {geom._line_text(lines.backend_of(name), lines._h[name])}")
    out.append("circles (x^2 + y^2 + d*x + e*y + f = 0):")
    for name in CIRCLE_NAMES:
        out.append(f"  {name:<7} {geom._circle_text(circles.backend_of(name), circles._h[name])}")
    return "\n".join(out) + "\n"


# -- SVG ------------------------------------------------------------------------

# one template per element: its numbers, then ("%%s") its name or stroke
_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
         'version="1.1" viewBox="%.6f %.6f %.6f %.6f">')
_DOT = (f'<circle cx="%.6f" cy="%.6f" r="{_DOT_RADIUS}" fill="black"/>\n<text x="%.6f" '
        f'y="%.6f" font-family="sans-serif" font-size="{_FONT_SIZE}">%%s</text>')
_SEGMENT = '<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" stroke="%%s" stroke-width="1"/>'
_RING = '<circle cx="%.6f" cy="%.6f" r="%.6f" fill="none" stroke="#1f77b4" stroke-width="1"/>'
_SORTED = {names: sorted(names) for names in (POINT_NAMES, LINE_NAMES, CIRCLE_NAMES)}
# a point's name as the text of its label
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _line_floats(be: Backend, h) -> List[float]:
    """A line's coefficients as floats, the same line: exact integers past
    _WIDE_BITS bits are first divided by the power of two that brings the
    widest to _WIDE_BITS bits, leaving room for the clipping's products."""
    scale = be.one
    if be.exact:
        k = max(map(abs, h)).bit_length() - _WIDE_BITS
        if k > 0:
            scale <<= k
    try:
        return [n / scale for n in h]
    except OverflowError as exc:
        raise OutputError(_PAST_RANGE) from exc


def _radius(be: Backend, h) -> float:
    """The radius of the circle tuple h, the root of its squared radius n/d;
    where n/d passes the float range (exact integers only), the root of
    n / (d 4^k) times 2^k, so a radius that fits is drawn."""
    n, d = geom._radius_sq_h(be, h)
    try:
        return (n / d) ** 0.5
    except OverflowError:
        k = (n.bit_length() - d.bit_length()) // 2 - _WIDE_BITS // 2
    try:
        return math.ldexp((n / (d << 2 * k)) ** 0.5, k)
    except OverflowError as exc:
        raise OutputError(_PAST_RANGE) from exc


def _canvas(x, y, w) -> Tuple[float, float]:
    """The canvas position of (x/w, y/w), y flipped as SVG grows down; OutputError past range."""
    try:
        return x / w * _PX_PER_UNIT, -(y / w) * _PX_PER_UNIT
    except OverflowError as exc:
        raise OutputError(_PAST_RANGE) from exc


def _clip_line_to_box(a: float, b: float, c: float, box) -> Optional[Tuple[float, ...]]:
    """Segment of the canvas line a*x + b*y + c = 0 inside the viewBox."""
    x0, y0, w, h = box
    x1, y1 = x0 + w, y0 + h
    slack = 1e-9 * max(w, h, 1.0)
    # where the line meets the box's vertical edges, then its horizontal ones
    candidates = [] if b == 0.0 else [(xe, ye) for xe in (x0, x1) for ye in [-(a * xe + c) / b]
                                      if y0 - slack <= ye <= y1 + slack]
    if a != 0.0:
        candidates += [(xe, ye) for ye in (y0, y1) for xe in [-(b * ye + c) / a]
                       if x0 - slack <= xe <= x1 + slack]
    unique: List[Tuple[float, float]] = []
    for pt in candidates:
        for u in unique:
            if not (abs(pt[0] - u[0]) > 1e-6 or abs(pt[1] - u[1]) > 1e-6):
                break
        else:
            unique.append(pt)
    if len(unique) < 2:
        return None
    unique.sort()
    (ax, ay), (bx, by) = unique[0], unique[-1]
    return ax, ay, bx, by


def render_svg(scene: Scene) -> str:
    """Deterministic SVG 1.1 figure of the scene, each point labelled with its
    name as XML text; OutputError when a value does not fit a float, or when
    the scene has no points to fit the viewBox to."""
    be = scene.backend

    def drawn(objects) -> List[str]:  # the names in order, those of the construction sorted once
        return _SORTED.get(tuple(objects._h)) or sorted(objects._h)

    dots = drawn(scene.points)
    if not dots:
        raise OutputError("a scene with no points has no figure: its viewBox is fitted to them")
    canvas = [_canvas(*scene.points._h[name]) for name in dots]
    xs, ys = zip(*canvas)
    width, height = max(xs) - min(xs), max(ys) - min(ys)
    mx, my = _MARGIN_FRACTION * width, _MARGIN_FRACTION * height
    box = (min(xs) - mx, min(ys) - my, width + 2 * mx, height + 2 * my)
    # the figure's numbers in drawing order: the viewBox, then four for
    # each point, four for each line the box meets and three for each circle
    numbers = [*box, *(v for cx, cy in canvas for v in (cx, cy, cx + 4.0, cy - 4.0))]
    strokes = []
    for name in drawn(scene.lines):
        # canvas coords: x_c = s*x, y_c = -s*y, so ax+by+c=0 becomes
        # a*x_c - b*y_c + s*c = 0
        a, b, c = _line_floats(be, scene.lines._h[name])
        seg = _clip_line_to_box(a, -b, _PX_PER_UNIT * c, box)
        if seg is not None:
            numbers += seg
            strokes.append("#cc0000" if name == "gwsLine" else "#555555")
    rings = drawn(scene.circles)
    for name in rings:
        h = scene.circles._h[name]
        numbers += *_canvas(*geom._center_h(be, h)), _radius(be, h) * _PX_PER_UNIT
    if not all(map(math.isfinite, numbers)):
        raise OutputError(_PAST_RANGE)
    figure = "\n".join([_HEAD, *[_DOT] * len(dots), *[_SEGMENT] * len(strokes),
                        *[_RING] * len(rings), "</svg>\n"])
    if dots is not _SORTED[POINT_NAMES]:  # the construction's names need no escaping
        dots = [name.translate(_XML_ESCAPES) for name in dots]
    # the numbers written at once, a tiny negative one as "0.000000" rather than
    # "-0.000000", before any name is in the text; then the names and strokes
    return (figure % tuple(numbers)).replace("-0.000000", "0.000000") % (*dots, *strokes)
