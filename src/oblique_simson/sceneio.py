"""Scene serialization: lossless JSON documents and deterministic SVG figures.

JSON keeps exact-backend values as canonical "p/q" strings (never floats), so
a document round-trips to an identical Scene.  Float-backend scenes store
plain JSON numbers plus the backend tolerance.  The writer formats the
schema-1 layout itself, byte for byte as ``json.dumps(document, indent=2)``
lays it out: each value from a pair of its object's canonical tuple, read
from the scene's maps without writing the object and by the object's own
backend, exact ones through :func:`~oblique_simson.numeric.format_pair`,
float ones as ``json.dumps`` writes them, and names and flags through
``json``'s own string encoder; :func:`scene_to_document` parses that text.
The reader parses each value straight to its pair, with no Scalar: the
exact reader takes the writer's form ("p" or "p/q" in ASCII digits, q
nonzero) through :meth:`~oblique_simson.numeric.ExactBackend.parse_pair`
as an integer pair, so it builds no ``Fraction``, and any other string
through :func:`~oblique_simson.numeric.parse_rational`; the float reader
takes each number as a float over 1.0.  Each object's values become its
canonical tuple, as Point, make_line and make_circle give it, and the Scene
holds the tuples, writing no object.  A float line whose coefficients
already form a canonical unit normal is read as written (see
:func:`~oblique_simson.geom.make_line`), so a float document, like an
exact one, writes back byte for byte.  A schema that is not the
integer 1, a non-null ``eps_abs`` on an exact document, a point, line or
circle entry that is not an array of two or three values, a degenerate line
or an improper circle is malformed.

SVG output is purely cosmetic but byte-deterministic: fixed ordering (points,
then lines, then circles, alphabetical by name), fixed 6-decimal coordinate
formatting, viewBox fitted to the scene's points with a 10% margin.  Lines
are clipped to the viewBox; circles are drawn whole even if they overflow.
Points, lines and circles are drawn from their tuples, a circle through
geom's ``_center_h`` and ``_radius_sq_h``; an exact value at the correctly
rounded quotient of its numerator and denominator, as ``float()`` of a
``Fraction`` gives.  A line's exact integers wider than 1000 bits, and a
squared radius past the float range, are first divided by a power of two,
which a float result takes exactly, so a figure that fits a float is drawn.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Tuple

from . import geom
from .errors import GeometryError, OutputError, ParseError
from .numeric import EXACT, Backend, FloatBackend, _pair, format_pair
from .simson import CIRCLE_NAMES, LINE_NAMES, POINT_NAMES, Params, Scene, SceneObjects

SCHEMA_VERSION = 1

# json.dumps' own string encoder (ASCII output), for names and flags
_string = json.encoder.encode_basestring_ascii

# rendering constants: canonical-frame coordinates are O(1), so scale up
_PX_PER_UNIT = 200.0
_MARGIN_FRACTION = 0.10
_DOT_RADIUS = 2.0
_FONT_SIZE = 10.0
# wider exact integers are scaled by a power of two before they become floats
# (see _line_floats and _radius)
_WIDE_BITS = 1000
_PAST_RANGE = "scene value exceeds the float range of the SVG canvas"


def _pair_from_json(value, backend: Backend) -> Tuple:
    """The pair (n, d) of a document value: integers on exact, the float over
    1.0 on float."""
    if backend.exact:
        if not isinstance(value, str):
            raise ParseError(f"exact scene document requires string scalars, got {value!r}")
        return backend.parse_pair(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return backend.coerce(value), 1.0
    raise ParseError(f"float scene document requires numeric scalars, got {value!r}")


def _entry(doc: dict, section: str, name: str, size: int, backend: Backend) -> Tuple:
    """The values of doc[section][name] over one denominator (see
    geom._pairs_over_common); the entry must be an array of *size* values:
    a string or an object would unpack as its characters or keys."""
    values = doc[section][name]
    if type(values) is not list or len(values) != size:
        raise TypeError(f"{section} entry {name!r} must be an array of {size} values, "
                        f"got {values!r}")
    return geom._pairs_over_common(backend, [_pair_from_json(v, backend) for v in values])


def _float_text(be: Backend, n, d) -> str:
    """A float document's value text, called as format_pair is for exact."""
    value = n / d  # d is 1.0, so this is n bit for bit
    # json.dumps writes a finite number as its repr, and spells out the others
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

    def section(objects, pairs):
        # each object is an array of two or three numbers, the pairs of its tuple,
        # written by the object's own backend
        return _block([f"{_string(name)}: [\n      {q}"
                       f"{sep.join(text(objects.backend_of(name), n, d) for n, d in pairs(*h))}"
                       f"{q}\n    ]" for name, h in objects._h.items()], 1)

    params, one = scene.params, backend.one
    members = [
        f'"schema": {SCHEMA_VERSION}',
        f'"backend": {_string(backend.name)}',
        '"eps_abs": ' + json.dumps(None if backend.exact else backend.eps_abs),
        '"params": ' + _block([f'"{k}": {q}{text(backend, *getattr(params, k)._ratio())}{q}'
                               for k in "abct"], 1),
        '"points": ' + section(scene.points, lambda x, y, w: ((x, w), (y, w))),
        '"lines": ' + section(scene.lines, lambda a, b, c: ((a, one), (b, one), (c, one))),
        '"circles": ' + section(scene.circles, lambda d, e, f, v: ((d, v), (e, v), (f, v))),
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
            if isinstance(doc["eps_abs"], bool):
                raise TypeError(f"eps_abs must be a number, got {doc['eps_abs']!r}")
            backend = FloatBackend(doc["eps_abs"])
        else:
            raise ParseError(f"unknown backend tag {doc['backend']!r}")
        values = [_pair(backend, *_pair_from_json(doc["params"][k], backend))
                  for k in ("a", "b", "c", "t")]
        # each object's canonical tuple, as Point, make_line and make_circle give it
        points = {name: geom._point_h(backend, *_entry(doc, "points", name, 2, backend))
                  for name in POINT_NAMES}
        lines = {name: geom._given_line_h(backend, *_entry(doc, "lines", name, 3, backend)[:3])
                 for name in LINE_NAMES}
        circles = {name: geom._circle_h(backend, *_entry(doc, "circles", name, 3, backend))
                   for name in CIRCLE_NAMES}
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


def _quotient(n, d) -> float:
    """n / d as a float: correctly rounded for ints, as float() of a
    Fraction gives; OutputError past the float range."""
    try:
        return n / d
    except OverflowError as exc:
        raise OutputError(_PAST_RANGE) from exc


def _line_floats(be: Backend, h) -> List[float]:
    """A line's coefficients as floats, the same line: exact integers past
    _WIDE_BITS bits are first divided by the power of two that brings the
    widest to _WIDE_BITS bits, which leaves room below the float range for
    the clipping's products.  A power of two scales every float result by
    itself, so a line that fits is drawn as before."""
    scale = be.one
    if be.exact:
        k = max(map(abs, h)).bit_length() - _WIDE_BITS
        if k > 0:
            scale <<= k
    return [_quotient(n, scale) for n in h]


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
    """The canvas position of the point (x/w, y/w): y axis flipped, as SVG
    grows downwards."""
    return _quotient(x, w) * _PX_PER_UNIT, -_quotient(y, w) * _PX_PER_UNIT


def _f(v: float) -> str:
    """Every number the SVG writes; OutputError unless it is finite."""
    if not math.isfinite(v):
        raise OutputError(_PAST_RANGE)
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _clip_line_to_box(a: float, b: float, c: float,
                      box: Tuple[float, float, float, float]
                      ) -> Optional[Tuple[float, float, float, float]]:
    """Segment of the canvas line a*x + b*y + c = 0 inside the viewBox."""
    x0, y0, w, h = box
    x1, y1 = x0 + w, y0 + h
    slack = 1e-9 * max(w, h, 1.0)
    candidates: List[Tuple[float, float]] = []
    if b != 0.0:
        for xe in (x0, x1):
            ye = -(a * xe + c) / b
            if y0 - slack <= ye <= y1 + slack:
                candidates.append((xe, ye))
    if a != 0.0:
        for ye in (y0, y1):
            xe = -(b * ye + c) / a
            if x0 - slack <= xe <= x1 + slack:
                candidates.append((xe, ye))
    unique: List[Tuple[float, float]] = []
    for pt in candidates:
        if all(abs(pt[0] - u[0]) > 1e-6 or abs(pt[1] - u[1]) > 1e-6 for u in unique):
            unique.append(pt)
    if len(unique) < 2:
        return None
    unique.sort()
    (ax, ay), (bx, by) = unique[0], unique[-1]
    return ax, ay, bx, by


def render_svg(scene: Scene) -> str:
    """Deterministic SVG 1.1 figure of the scene.

    Raises OutputError when a scene value does not fit a float.
    """
    be = scene.backend
    canvas = {name: _canvas(*h) for name, h in scene.points._h.items()}
    xs = [v[0] for v in canvas.values()]
    ys = [v[1] for v in canvas.values()]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    mx = _MARGIN_FRACTION * width
    my = _MARGIN_FRACTION * height
    box = (min(xs) - mx, min(ys) - my, width + 2 * mx, height + 2 * my)

    parts: List[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(box[0])} {_f(box[1])} {_f(box[2])} {_f(box[3])}">'
    )
    for name in sorted(scene.points):
        cx, cy = canvas[name]
        parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_DOT_RADIUS}" fill="black"/>'
        )
        parts.append(
            f'<text x="{_f(cx + 4.0)}" y="{_f(cy - 4.0)}" '
            f'font-family="sans-serif" font-size="{_FONT_SIZE}">{name}</text>'
        )
    for name in sorted(scene.lines):
        # canvas coords: x_c = s*x, y_c = -s*y, so ax+by+c=0 becomes
        # a*x_c - b*y_c + s*c = 0
        a, b, c = _line_floats(be, scene.lines._h[name])
        seg = _clip_line_to_box(a, -b, _PX_PER_UNIT * c, box)
        if seg is None:
            continue
        stroke = "#cc0000" if name == "gwsLine" else "#555555"
        parts.append(
            f'<line x1="{_f(seg[0])}" y1="{_f(seg[1])}" '
            f'x2="{_f(seg[2])}" y2="{_f(seg[3])}" stroke="{stroke}" stroke-width="1"/>'
        )
    for name in sorted(scene.circles):
        h = scene.circles._h[name]
        cx, cy = _canvas(*geom._center_h(be, h))
        radius = _radius(be, h) * _PX_PER_UNIT
        parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius)}" '
            'fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
