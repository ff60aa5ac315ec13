import dataclasses
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import E, P
from oblique_simson import BackendMismatch, Circle, FloatBackend, Line, Params, Point, build_scene
from oblique_simson.errors import (
    CoincidentPoints,
    CollinearPoints,
    IdenticalCircles,
    KnownPointNotIncident,
    NoRadicalLine,
    OutputError,
    ZeroRadius,
)
from oblique_simson.geom import (
    DirectedTan,
    circle_center_through,
    circle_through3,
    collinear3,
    concyclic4,
    directed_tan,
    foot_perpendicular,
    intersect_lines,
    line_through,
    make_line,
    midpoint,
    orthocenter3,
    perpendicular_through,
    radical_line,
    reflect_in_line,
    second_circle_circle,
    second_line_circle,
)
from oblique_simson.geom import dist_sq, lines_equal, on_circle, on_line, points_equal

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)

# the interpreter's integer-to-text digit limit (0: none)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
points = st.builds(P, rationals, rationals)


def L(a, b, c):
    return make_line(E(a), E(b), E(c))


def C3(d, e, f):
    return Circle(E(d), E(e), E(f))


# worked-instance objects reused across tests
B_PT = P("2/5", "4/5")
C_PT = P("1/5", "3/5")
SIDE_BC = L(1, -1, "2/5")
CIRCLE_CB = C3("2/5", "-6/5", 0)   # center B0, through J
CIRCLE_CC = C3("2/5", "-4/5", 0)   # center C0, through J
CIRCLE_CA = C3(0, -2, 0)           # center A0, through J


class TestLineThrough:
    def test_diagonal(self):
        assert line_through(P(0, 0), P(1, 1)) == L(1, -1, 0)

    def test_worked_side(self):
        assert line_through(B_PT, C_PT) == Line(E(5), E(-5), E(2))

    def test_vertical(self):
        assert line_through(P(0, 0), P(0, 1)) == Line(E(1), E(0), E(0))

    def test_coincident(self):
        with pytest.raises(CoincidentPoints):
            line_through(P(1, 2), P(1, 2))

    @given(p=points, q=points)
    def test_incidence_roundtrip(self, p, q):
        assume(p != q)
        l = line_through(p, q)
        assert on_line(l, p) and on_line(l, q)

    @given(p=points, q=points)
    def test_canonical_is_order_independent(self, p, q):
        assume(p != q)
        assert line_through(p, q) == line_through(q, p)


class TestPerpendicular:
    def test_altitude_from_worked_vertex(self):
        assert perpendicular_through(P(1, 1), SIDE_BC) == Line(E(1), E(1), E(-2))

    def test_point_on_line(self):
        l = L(1, -1, 0)
        perp = perpendicular_through(P(2, 2), l)
        assert on_line(perp, P(2, 2))

    def test_axes(self):
        assert perpendicular_through(P(0, 0), L(0, 1, 0)) == Line(E(1), E(0), E(0))

    @given(p=points, q=points, r=points)
    def test_perpendicular_directions(self, p, q, r):
        assume(q != r)
        l = line_through(q, r)
        perp = perpendicular_through(p, l)
        # direction vectors (b, -a) dot to zero
        dot = l.b * perp.b + l.a * perp.a
        assert dot.value == 0
        assert on_line(perp, p)


class TestFootAndReflection:
    def test_classical_foot(self):
        assert foot_perpendicular(P(0, 0), SIDE_BC) == P("-1/5", "1/5")

    def test_point_on_line_is_fixed(self):
        assert foot_perpendicular(B_PT, SIDE_BC) == B_PT
        assert reflect_in_line(B_PT, SIDE_BC) == B_PT

    def test_vertical_line(self):
        vertical = L(1, 0, "1/5")   # x = -1/5
        assert foot_perpendicular(P(0, 0), vertical) == P("-1/5", 0)
        assert reflect_in_line(P(0, 0), vertical) == P("-2/5", 0)

    def test_reflection_across_diagonal(self):
        assert reflect_in_line(P(0, 0), L(1, -1, 0)) == P(0, 0)

    @given(p=points, q=points, r=points)
    def test_involution_and_midpoint(self, p, q, r):
        assume(q != r)
        l = line_through(q, r)
        image = reflect_in_line(p, l)
        assert reflect_in_line(image, l) == p
        assert foot_perpendicular(p, l) == midpoint(p, image)
        assert on_line(l, foot_perpendicular(p, l))


class TestCircles:
    def test_hagge_circle_through3(self):
        c = circle_through3(P(0, 2), P("8/25", "24/25"), P("6/25", "12/25"))
        assert c == C3("14/5", -2, 0)

    def test_image_circumcircle(self):
        c = circle_through3(P(0, 1), P("-1/5", "3/5"), P("-1/5", "2/5"))
        assert c == C3(-1, -1, 0)
        assert on_circle(c, P(0, 0)) and on_circle(c, P(1, 1))

    def test_unit_circle(self):
        assert circle_through3(P(1, 0), P(-1, 0), P(0, 1)) == C3(0, 0, -1)

    def test_collinear_rejected(self):
        with pytest.raises(CollinearPoints):
            circle_through3(P(0, 0), P(1, 1), P(2, 2))
        with pytest.raises(CollinearPoints):
            circle_through3(P(0, 0), P(0, 0), P(2, 3))

    def test_center_through(self):
        assert circle_center_through(P(0, 1), P(0, 0)) == C3(0, -2, 0)
        assert circle_center_through(P(1, 0), P(0, 0)) == C3(-2, 0, 0)
        assert circle_center_through(P(0, 0), P(1, 0)) == C3(0, 0, -1)

    def test_zero_radius(self):
        with pytest.raises(ZeroRadius):
            circle_center_through(P(2, 3), P(2, 3))

    @given(p=points, q=points, r=points)
    def test_three_point_incidence(self, p, q, r):
        assume(not collinear3(p, q, r))
        c = circle_through3(p, q, r)
        assert on_circle(c, p) and on_circle(c, q) and on_circle(c, r)

    @given(center=points, p=points)
    def test_center_through_roundtrip(self, center, p):
        assume(center != p)
        c = circle_center_through(center, p)
        assert c.center() == center
        assert on_circle(c, p)
        assert c.radius_sq() == dist_sq(center, p)


class TestRadicalLine:
    def test_worked_instance(self):
        assert radical_line(CIRCLE_CB, CIRCLE_CC) == Line(E(0), E(1), E(0))

    def test_concentric(self):
        with pytest.raises(NoRadicalLine):
            radical_line(C3(0, 0, -1), C3(0, 0, -4))

    def test_identical(self):
        with pytest.raises(IdenticalCircles):
            radical_line(C3(0, 0, -1), C3(0, 0, -1))

    @given(p=points, q=points, r=points, s=points)
    def test_through_common_point_and_perpendicular(self, p, q, r, s):
        assume(not collinear3(p, q, r))
        assume(not collinear3(p, q, s))
        c1 = circle_through3(p, q, r)
        c2 = circle_through3(p, q, s)
        assume(c1 != c2)
        rad = radical_line(c1, c2)
        assert on_line(rad, p) and on_line(rad, q)
        centers = line_through(c1.center(), c2.center())
        dot = rad.b * centers.b + rad.a * centers.a
        assert dot.value == 0


class TestSecondIntersections:
    def test_altitude_meets_vertex_circle(self):
        other, tangent = second_line_circle(L(1, 1, -2), CIRCLE_CA, P(1, 1))
        assert other == P(0, 2) and not tangent

    def test_tangency_at_known(self):
        sigma = C3(-2, 0, 0)
        other, tangent = second_line_circle(L(0, 1, -1), sigma, P(1, 1))
        assert other == P(1, 1) and tangent

    def test_diameter(self):
        sigma = C3(-2, 0, 0)
        other, tangent = second_line_circle(L(0, 1, 0), sigma, P(0, 0))
        assert other == P(2, 0) and not tangent

    def test_known_not_incident(self):
        with pytest.raises(KnownPointNotIncident):
            second_line_circle(L(0, 1, -5), C3(-2, 0, 0), P(0, 5))
        with pytest.raises(KnownPointNotIncident):
            second_line_circle(L(1, 0, 0), C3(-2, 0, 0), P(0, 5))

    @pytest.mark.parametrize("c1,c2,expected", [
        (CIRCLE_CB, CIRCLE_CC, P("-2/5", 0)),
        (CIRCLE_CC, CIRCLE_CA, P("-3/5", "1/5")),
        (CIRCLE_CA, CIRCLE_CB, P("-4/5", "2/5")),
    ])
    def test_circle_circle_worked(self, c1, c2, expected):
        other, tangent = second_circle_circle(c1, c2, P(0, 0))
        assert other == expected and not tangent

    @given(p=points, q=points, r=points)
    @settings(max_examples=60)
    def test_second_point_roundtrip(self, p, q, r):
        assume(not collinear3(p, q, r))
        circle = circle_through3(p, q, r)
        chord = line_through(p, q)
        other, tangent = second_line_circle(chord, circle, p)
        assert on_line(chord, other) and on_circle(circle, other)
        assert not tangent and other == q
        back, _ = second_line_circle(chord, circle, other)
        assert back == p

    @given(p=points, q=points, r=points, s=points)
    @settings(max_examples=60)
    def test_circle_circle_incidence(self, p, q, r, s):
        assume(not collinear3(p, q, r))
        assume(not collinear3(p, q, s))
        c1 = circle_through3(p, q, r)
        c2 = circle_through3(p, q, s)
        assume(c1 != c2)
        other, _ = second_circle_circle(c1, c2, p)
        assert on_circle(c1, other) and on_circle(c2, other)
        assert other == q


class TestPredicates:
    def test_collinear_worked(self):
        assert collinear3(P("-2/5", 0), P("-3/5", "1/5"), P("-4/5", "2/5"))

    def test_not_collinear(self):
        assert not collinear3(P(0, 0), P(1, 0), P(0, 1))

    def test_repeated_point_is_collinear(self):
        assert collinear3(P(1, 2), P(1, 2), P(5, -3))

    def test_concyclic_worked(self):
        x, y, z = P(0, 2), P("8/25", "24/25"), P("6/25", "12/25")
        assert concyclic4(x, y, z, P("-2/5", "12/5"))
        assert concyclic4(x, y, z, P(0, 0))

    def test_square_is_cyclic(self):
        assert concyclic4(P(0, 0), P(1, 0), P(0, 1), P(1, 1))

    def test_not_concyclic(self):
        assert not concyclic4(P(0, 0), P(1, 0), P(0, 1), P(3, 3))

    @given(p=points, q=points, r=points, data=st.data())
    def test_collinear_permutation_invariant(self, p, q, r, data):
        base = collinear3(p, q, r)
        import itertools
        for perm in itertools.permutations((p, q, r)):
            assert collinear3(*perm) == base

    @given(p=points, q=points, r=points, s=points)
    @settings(max_examples=40)
    def test_concyclic_permutation_invariant(self, p, q, r, s):
        base = concyclic4(p, q, r, s)
        import itertools
        for perm in itertools.permutations((p, q, r, s)):
            assert concyclic4(*perm) == base


class TestDirectedTan:
    def test_worked_angle(self):
        assert directed_tan(L(0, 1, 0), SIDE_BC) == DirectedTan.of(E(1))

    def test_same_line(self):
        assert directed_tan(SIDE_BC, SIDE_BC) == DirectedTan.of(E(0))

    def test_perpendicular_is_infinite(self):
        assert directed_tan(L(1, 0, 0), L(0, 1, 0)) == DirectedTan.infinity()
        assert directed_tan(L(1, 0, 0), L(0, 1, 0)).infinite

    @given(p=points, q=points, r=points, s=points,
           k=rationals.filter(bool), m=rationals.filter(bool))
    @settings(max_examples=60)
    def test_rescaling_invariance(self, p, q, r, s, k, m):
        assume(p != q and r != s)
        l1 = line_through(p, q)
        l2 = line_through(r, s)
        scaled1 = Line(l1.a * E(k), l1.b * E(k), l1.c * E(k))
        scaled2 = Line(l2.a * E(m), l2.b * E(m), l2.c * E(m))
        assert directed_tan(scaled1, scaled2) == directed_tan(l1, l2)


class TestOrthocenter:
    def test_worked_triangle(self):
        h = orthocenter3(P(1, 1), B_PT, C_PT)
        assert h == P("-2/5", "12/5")
        assert on_line(L(2, 1, "-8/5"), h)

    def test_right_triangle(self):
        assert orthocenter3(P(0, 0), P(1, 0), P(0, 1)) == P(0, 0)

    def test_image_triangle(self):
        h = orthocenter3(P(0, 1), P("-1/5", "3/5"), P("-1/5", "2/5"))
        assert h == P("-7/5", 1)

    def test_collinear_rejected(self):
        with pytest.raises(CollinearPoints):
            orthocenter3(P(0, 0), P(1, 1), P(2, 2))

    @given(p=points, q=points, r=points)
    @settings(max_examples=60)
    def test_altitude_incidence_and_permutation(self, p, q, r):
        assume(not collinear3(p, q, r))
        h = orthocenter3(p, q, r)
        for apex, base in ((p, (q, r)), (q, (r, p)), (r, (p, q))):
            alt = perpendicular_through(apex, line_through(*base))
            assert on_line(alt, h)
        assert orthocenter3(q, r, p) == h
        assert orthocenter3(r, q, p) == h


class TestIntersectLines:
    def test_meet(self):
        assert intersect_lines(L(1, 1, -2), L(2, 1, "-8/5")) == P("-2/5", "12/5")

    def test_parallel(self):
        from oblique_simson.errors import ParallelLines
        with pytest.raises(ParallelLines):
            intersect_lines(L(1, 1, 0), L(1, 1, -5))


class TestCanonicalization:
    def test_content_and_sign(self):
        assert make_line(E("-1/5"), E("-1/5"), E("-2/25")) == Line(E(5), E(5), E(2))
        assert make_line(E(0), E("-2/5"), E(0)) == Line(E(0), E(1), E(0))

    def test_idempotent(self):
        l = make_line(E(10), E(-4), E(6))
        again = make_line(l.a, l.b, l.c)
        assert l == again == Line(E(5), E(-2), E(3))

    def test_float_unit_normal(self):
        from oblique_simson import FloatBackend
        fb = FloatBackend()
        l = make_line(fb.scalar(3.0), fb.scalar(4.0), fb.scalar(10.0))
        assert abs(float(l.a) - 0.6) < 1e-12
        assert abs(float(l.b) - 0.8) < 1e-12
        assert abs(float(l.c) - 2.0) < 1e-12

    @given(p=points, q=points, k=rationals.filter(bool))
    def test_scaling_collapses(self, p, q, k):
        assume(p != q)
        l = line_through(p, q)
        rescaled = make_line(l.a * E(k), l.b * E(k), l.c * E(k))
        assert lines_equal(l, rescaled)


def _as_float(obj):
    """The same point, line or circle on a float backend."""
    fb = FloatBackend()
    return type(obj)(**{f.name: fb.scalar(float(getattr(obj, f.name)))
                        for f in dataclasses.fields(obj)})


_A, _B, _C, _D = P(0, 0), P(2, 0), P(0, 2), P(2, 2)
_AB, _AC, _AD = L(0, 1, 0), L(1, 0, 0), L(1, -1, 0)
_ABC = C3(-2, -2, 0)         # through A, B, C, D
_CENTER_A = C3(0, 0, -4)     # centered at A, through B and C

# every geom primitive taking two or more objects, on valid exact arguments
_MULTI_ARG = [
    (line_through, (_A, _B)),
    (points_equal, (_A, _B)),
    (midpoint, (_A, _B)),
    (dist_sq, (_A, _B)),
    (on_line, (_AB, _A)),
    (on_circle, (_ABC, _A)),
    (collinear3, (_A, _B, _C)),
    (concyclic4, (_A, _B, _C, _D)),
    (intersect_lines, (_AB, _AC)),
    (foot_perpendicular, (_D, _AB)),
    (circle_through3, (_A, _B, _C)),
    (circle_center_through, (_A, _B)),
    (radical_line, (_ABC, _CENTER_A)),
    (second_line_circle, (_AB, _ABC, _A)),
    (directed_tan, (_AB, _AD)),
]


class TestBackendMismatch:
    @pytest.mark.parametrize("fn, args", _MULTI_ARG,
                             ids=[fn.__name__ for fn, _ in _MULTI_ARG])
    def test_mixed_exact_and_float_rejected(self, fn, args):
        fn(*args)  # valid on one backend
        for i in range(len(args)):
            mixed = args[:i] + (_as_float(args[i]),) + args[i + 1:]
            with pytest.raises(BackendMismatch):
                fn(*mixed)

    @pytest.mark.parametrize("obj", [_D, _AD, _ABC], ids=["Point", "Line", "Circle"])
    def test_mixed_coordinates_rejected(self, obj):
        """A Point, Line or Circle refuses coordinates from two backends,
        whichever coordinate is the odd one, on either majority backend."""
        exact = list(vars(obj).values())
        floats = list(vars(_as_float(obj)).values())
        for i in range(len(exact)):
            for most, odd in ((exact, floats), (floats, exact)):
                with pytest.raises(BackendMismatch):
                    type(obj)(*most[:i], odd[i], *most[i + 1:])
        # equal float backends combine; a float backend with another eps does not
        assert type(obj)(*(FloatBackend().scalar(float(v)) for v in exact)) == _as_float(obj)
        with pytest.raises(BackendMismatch):
            type(obj)(*floats[:-1], FloatBackend(1e-6).scalar(float(exact[-1])))

    def test_mixed_point_never_reaches_the_kernel(self):
        with pytest.raises(BackendMismatch):
            points_equal(Point(E(1), FloatBackend().scalar(2)), P(5, 7))


class TestRepr:
    """Each repr writes its values through numeric.format_scalar."""

    @pytest.mark.parametrize("obj, text", [
        (P("-7/5", 1), "Point(-7/5, 1)"),
        (Line(E(5), E(5), E(2)), "Line(5, 5, 2)"),
        (C3("2/5", "-6/5", 0), "Circle(2/5, -6/5, 0)"),
        (DirectedTan.of(E("-1/3")), "DirectedTan(-1/3)"),
        (DirectedTan.infinity(), "DirectedTan(inf)"),
        (Point(FloatBackend().scalar(0.5), FloatBackend().scalar(-1.25)), "Point(0.5, -1.25)"),
    ], ids=["point", "line", "circle", "tangent", "infinite-tangent", "float-point"])
    def test_text(self, obj, text):
        assert repr(obj) == text

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    @pytest.mark.parametrize("make", [
        lambda huge: P(1, huge),
        lambda huge: Line(E(1), E(huge), E(0)),
        lambda huge: C3(0, 0, huge),
        lambda huge: DirectedTan.of(E(Fraction(1, huge))),
    ], ids=["point", "line", "circle", "tangent"])
    def test_value_beyond_text_limit_raises_output_error(self, make):
        with pytest.raises(OutputError):
            repr(make(7 * 10 ** INT_TEXT_LIMIT))

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_scene_point_beyond_text_limit(self):
        # a parses, but the vertex coordinates have about twice its digits
        a = int("7" * (INT_TEXT_LIMIT // 2 + 100))
        scene = build_scene(Params.make(a, 2, 3, Fraction(1, 2)))
        with pytest.raises(OutputError):
            repr(scene.points["A"])

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_coincident_points_message_beyond_text_limit(self):
        p = P(7 * 10 ** INT_TEXT_LIMIT, 0)
        with pytest.raises(OutputError):
            line_through(p, p)
