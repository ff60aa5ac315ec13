"""Exception hierarchy for the toolkit.

Everything derives from :class:`GeometryError`, so callers (notably the CLI)
can treat "invalid input / degenerate configuration" uniformly.
"""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


# -- scalar layer -------------------------------------------------------------

class DivisionByZero(GeometryError):
    """Division by a (backend-)zero scalar."""


class BackendMismatch(GeometryError):
    """Exact and approximate scalars were mixed in one operation."""


class ParseError(GeometryError):
    """Input cannot be read: a scalar, a scene document or command-line flags."""


# -- geometric primitives ------------------------------------------------------

class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide."""


class CollinearPoints(GeometryError):
    """Three points expected to span a circle/triangle are collinear."""


class ZeroRadius(GeometryError):
    """Circle requested with coincident center and through-point."""


class IdenticalCircles(GeometryError):
    """Radical line requested for two equal circles."""


class NoRadicalLine(GeometryError):
    """Concentric distinct circles: the radical line is at infinity."""


class KnownPointNotIncident(GeometryError):
    """Second-intersection helper called with a point not on both curves."""


class ParallelLines(GeometryError):
    """Line intersection requested for parallel (or equal) lines."""


# -- construction pipeline -----------------------------------------------------

class DegenerateTriangle(GeometryError):
    """Vertex parameters (or points) do not span a proper triangle."""


class JEqualsH(GeometryError):
    """Orthocentre coincides with the base point J; no perpendicular bisector."""


class NotOnCircumcircle(GeometryError):
    """Base point expected on the circumcircle is not."""


class NotCollinear(GeometryError):
    """Points that must be collinear by construction are not (internal bug)."""


class AllCoincident(GeometryError):
    """A line was requested through points that all coincide."""


class ConstructionError(GeometryError):
    """An inline consistency assert of the construction failed (internal bug)."""


# -- output --------------------------------------------------------------------

class OutputError(GeometryError):
    """An output cannot be produced: an unwritable file, or a scene value
    beyond the float range of the SVG canvas."""
