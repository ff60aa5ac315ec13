"""Scene serialization: lossless JSON documents and deterministic SVG figures.

JSON keeps exact-backend values as canonical "p/q" strings (never floats), so
a document round-trips to an identical Scene.  Float-backend scenes store
plain JSON numbers plus the backend tolerance.

SVG output is purely cosmetic but byte-deterministic: fixed ordering (points,
then lines, then circles, alphabetical by name), fixed 6-decimal coordinate
formatting, viewBox fitted to the scene's points with a 10% margin.  Lines
are clipped to the viewBox; circles are drawn whole even if they overflow.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .errors import OutputError, ParseError
from .geom import Point, make_circle, make_line
from .numeric import EXACT, Backend, FloatBackend, Scalar, format_scalar
from .simson import CIRCLE_NAMES, LINE_NAMES, POINT_NAMES, Params, Scene

SCHEMA_VERSION = 1

# rendering constants: canonical-frame coordinates are O(1), so scale up
_PX_PER_UNIT = 200.0
_MARGIN_FRACTION = 0.10
_DOT_RADIUS = 2.0
_FONT_SIZE = 10.0


def _scalar_to_json(x: Scalar):
    return format_scalar(x) if x.backend.exact else x.value


def _scalar_from_json(value, backend: Backend) -> Scalar:
    if backend.exact:
        if not isinstance(value, str):
            raise ParseError(f"exact scene document requires string scalars, got {value!r}")
        return backend.parse(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return backend.scalar(value)
    raise ParseError(f"float scene document requires numeric scalars, got {value!r}")


def scene_to_document(scene: Scene) -> dict:
    """Build the versioned, JSON-ready mapping for a Scene."""
    backend = scene.backend
    doc = {
        "schema": SCHEMA_VERSION,
        "backend": backend.name,
        "eps_abs": None if backend.exact else backend.eps_abs,
        "params": {k: _scalar_to_json(getattr(scene.params, k))
                   for k in ("a", "b", "c", "t")},
        "points": {n: [_scalar_to_json(p.x), _scalar_to_json(p.y)]
                   for n, p in scene.points.items()},
        "lines": {n: [_scalar_to_json(l.a), _scalar_to_json(l.b), _scalar_to_json(l.c)]
                  for n, l in scene.lines.items()},
        "circles": {n: [_scalar_to_json(C.d), _scalar_to_json(C.e), _scalar_to_json(C.f)]
                    for n, C in scene.circles.items()},
        "flags": list(scene.flags),
    }
    return doc


def document_to_scene(doc: dict) -> Scene:
    """Rebuild a Scene from a document produced by scene_to_document."""
    try:
        if doc["schema"] != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema version {doc['schema']!r}")
        if doc["backend"] == "exact":
            backend: Backend = EXACT
        elif doc["backend"] == "float":
            if isinstance(doc["eps_abs"], bool):
                raise TypeError(f"eps_abs must be a number, got {doc['eps_abs']!r}")
            backend = FloatBackend(doc["eps_abs"])
        else:
            raise ParseError(f"unknown backend tag {doc['backend']!r}")
        params = Params(*(_scalar_from_json(doc["params"][k], backend)
                          for k in ("a", "b", "c", "t")))
        points = {}
        for name in POINT_NAMES:
            x, y = doc["points"][name]
            points[name] = Point(_scalar_from_json(x, backend),
                                 _scalar_from_json(y, backend))
        lines = {}
        for name in LINE_NAMES:
            a, b, c = (_scalar_from_json(v, backend) for v in doc["lines"][name])
            lines[name] = make_line(a, b, c)
        circles = {}
        for name in CIRCLE_NAMES:
            d, e, f = (_scalar_from_json(v, backend) for v in doc["circles"][name])
            circles[name] = make_circle(d, e, f)
        flags = doc["flags"]
        if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
            raise TypeError(f"flags must be a list of strings, got {flags!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed scene document: {exc}") from exc
    return Scene(params=params, points=points, lines=lines, circles=circles,
                 flags=tuple(flags))


def scene_to_json(scene: Scene) -> str:
    return json.dumps(scene_to_document(scene), indent=2) + "\n"


def scene_from_json(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_scene(doc)


def scene_summary(scene: Scene) -> str:
    """Human-readable deterministic rendering of a Scene."""
    out: List[str] = []
    out.append(f"backend: {scene.backend.name}")
    out.append("params: " + " ".join(
        f"{k}={_scalar_to_json(getattr(scene.params, k))}" for k in ("a", "b", "c", "t")))
    out.append("flags: " + (", ".join(scene.flags) if scene.flags else "(none)"))
    out.append("points:")
    for name in POINT_NAMES:
        p = scene.points[name]
        out.append(f"  {name:<3} = ({_scalar_to_json(p.x)}, {_scalar_to_json(p.y)})")
    out.append("lines (a*x + b*y + c = 0):")
    for name in LINE_NAMES:
        l = scene.lines[name]
        coeffs = ", ".join(str(_scalar_to_json(v)) for v in (l.a, l.b, l.c))
        out.append(f"  {name:<14} [{coeffs}]")
    out.append("circles (x^2 + y^2 + d*x + e*y + f = 0):")
    for name in CIRCLE_NAMES:
        C = scene.circles[name]
        coeffs = ", ".join(str(_scalar_to_json(v)) for v in (C.d, C.e, C.f))
        out.append(f"  {name:<7} [{coeffs}]")
    return "\n".join(out) + "\n"


# -- SVG ------------------------------------------------------------------------


def _float(x: Scalar) -> float:
    try:
        return float(x)
    except OverflowError as exc:
        raise OutputError("scene value exceeds the float range of the SVG canvas") from exc


def _to_canvas(p: Point) -> Tuple[float, float]:
    # y axis flipped: SVG grows downwards
    return _float(p.x) * _PX_PER_UNIT, -_float(p.y) * _PX_PER_UNIT


def _f(v: float) -> str:
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
    canvas = {name: _to_canvas(p) for name, p in scene.points.items()}
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
        l = scene.lines[name]
        # canvas coords: x_c = s*x, y_c = -s*y, so ax+by+c=0 becomes
        # a*x_c - b*y_c + s*c = 0
        seg = _clip_line_to_box(_float(l.a), -_float(l.b),
                                _PX_PER_UNIT * _float(l.c), box)
        if seg is None:
            continue
        stroke = "#cc0000" if name == "gwsLine" else "#555555"
        parts.append(
            f'<line x1="{_f(seg[0])}" y1="{_f(seg[1])}" '
            f'x2="{_f(seg[2])}" y2="{_f(seg[3])}" stroke="{stroke}" stroke-width="1"/>'
        )
    for name in sorted(scene.circles):
        C = scene.circles[name]
        center = C.center()
        cx, cy = _to_canvas(center)
        radius = _float(C.radius_sq()) ** 0.5 * _PX_PER_UNIT
        parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius)}" '
            'fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
