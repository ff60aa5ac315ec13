"""Exact-arithmetic construction and verification of oblique Wallace-Simson lines.

A triangle inscribed in the unit circumcircle (canonical frame: base point J
at the origin, circumcenter at (1, 0)) is parametrized by three rationals
a, b, c; a fourth rational t picks the point Q on the perpendicular bisector
of J and the orthocentre H.  The package builds the full scene - the circle
S through J and H centered at Q, the altitude points X, Y, Z, the circle
pairs meeting at L, M, N, and the line LMN through Q - and verifies every
incidence of the construction as a literal identity over big rationals, or
within an explicit tolerance on the float backend.

The root exports the documented API, ``__all__``, which the README lists
under "Public API".  Every other name is importable from its own module
(``errors``, ``numeric``, ``geom``, ``simson``, ``verify``, ``sceneio``).
"""

from .errors import BackendMismatch, DivisionByZero, GeometryError, ParseError
from .geom import Circle, Line, Point
from .numeric import EXACT, Backend, FloatBackend, Scalar
from .sceneio import render_svg, scene_from_json, scene_to_json
from .simson import Params, Scene, build_scene, normalize_frame
from .verify import FuzzConfig, Report, audit_printed_formulas, fuzz, run_checks

__all__ = [
    "Params", "Scene", "build_scene", "normalize_frame",
    "run_checks", "Report", "fuzz", "FuzzConfig", "audit_printed_formulas",
    "EXACT", "FloatBackend", "Backend", "Scalar",
    "Point", "Line", "Circle",
    "scene_to_json", "scene_from_json", "render_svg",
    "GeometryError", "BackendMismatch", "DivisionByZero", "ParseError",
]

__version__ = "0.1.0"
