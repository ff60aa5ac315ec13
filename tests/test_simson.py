from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import E, P
from oblique_simson import FuzzConfig, Line, Params, build_scene, normalize_frame
from oblique_simson.errors import (
    AllCoincident,
    BackendMismatch,
    CollinearPoints,
    DegenerateTriangle,
    JEqualsH,
    NotCollinear,
    NotOnCircumcircle,
)
from oblique_simson.simson import (
    altitude_line,
    apply_similarity,
    circumcircle_sigma,
    double_simson_line,
    gws_line,
    hagge_circle,
    image_vertex,
    lmn_point,
    orthocenter_h,
    perspector_k,
    q_point,
    vertex_circle,
    vertex_point,
    xyz_point,
)
from oblique_simson.geom import (
    Point,
    collinear3,
    directed_tan,
    dist_sq,
    line_through,
    on_circle,
    on_line,
    points_equal,
)
from oblique_simson.numeric import EXACT, FloatBackend, Scalar
from oblique_simson.simson import CIRCLE_NAMES, LINE_NAMES, POINT_NAMES
from oblique_simson.verify import audit_printed_formulas, fuzz_instances

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def params_strategy():
    def build(a, b, c, t):
        assume(a != b and a != c and b != c)
        return Params.make(a, b, c, t)
    return st.builds(build, rationals, rationals, rationals, rationals)


J = P(0, 0)


class TestVertexPoint:
    @pytest.mark.parametrize("p,expected", [
        (1, P(1, 1)),
        (0, P(2, 0)),
        (2, P("2/5", "4/5")),
        (3, P("1/5", "3/5")),
    ])
    def test_values(self, p, expected):
        assert vertex_point(E(p)) == expected

    @given(p=rationals)
    def test_on_circumcircle_and_recoverable(self, p):
        v = vertex_point(E(p))
        assert on_circle(circumcircle_sigma(EXACT), v)
        assert (v.y / v.x).value == p


class TestSimilarity:
    def test_worked_image(self):
        assert apply_similarity(E("1/2"), P(1, 1)) == P(0, 1)

    def test_fixes_origin(self):
        for t in (0, 1, Fraction(-3, 7)):
            assert apply_similarity(E(t), J) == J

    def test_maps_H_to_Q(self):
        assert apply_similarity(E("1/2"), P("-2/5", "12/5")) == P("-7/5", 1)

    def test_maps_center_to_half_one_t(self):
        t = E("5/3")
        assert apply_similarity(t, P(1, 0)) == P("1/2", "5/3")

    @given(t=rationals, x=rationals, y=rationals)
    def test_squared_scaling(self, t, x, y):
        p = P(x, y)
        image = apply_similarity(E(t), p)
        lhs = dist_sq(J, image)
        assert lhs.value == (1 + 4 * t * t) / 4 * dist_sq(J, p).value


class TestImageVertex:
    def test_closed_form_oracle(self):
        # ((1 - 2pt)/(1 + p^2), (p + 2t)/(1 + p^2))
        for p, t in [(Fraction(1), Fraction(1, 2)),
                     (Fraction(2), Fraction(1, 2)),
                     (Fraction(-3, 4), Fraction(2, 7))]:
            den = 1 + p * p
            expected = P(Fraction(1 - 2 * p * t, 1) / den, Fraction(p + 2 * t, 1) / den)
            assert image_vertex(E(p), E(t)) == expected

    @pytest.mark.parametrize("p,t,expected", [
        (1, "1/2", P(0, 1)),
        (2, "1/2", P("-1/5", "3/5")),
        (3, "1/2", P("-1/5", "2/5")),
    ])
    def test_worked_values(self, p, t, expected):
        assert image_vertex(E(p), E(t)) == expected

    @given(p=rationals)
    def test_t_zero_is_half_vertex(self, p):
        v = vertex_point(E(p))
        img = image_vertex(E(p), E(0))
        assert img == P(v.x.value / 2, v.y.value / 2)


class TestPerspector:
    @pytest.mark.parametrize("t,expected", [
        (0, P(0, 0)),
        ("1/2", P(1, 1)),
        (1, P("8/5", "4/5")),
    ])
    def test_values(self, t, expected):
        assert perspector_k(E(t)) == expected

    @given(t=rationals)
    def test_on_circumcircle(self, t):
        assert on_circle(circumcircle_sigma(EXACT), perspector_k(E(t)))


class TestOrthocenter:
    def test_worked_value(self):
        h = orthocenter_h(Params.make(1, 2, 3, 0))
        assert h == P("-2/5", "12/5")
        assert on_line(Line(E(10), E(5), E(-8)), h)  # altitude from B

    @given(params=params_strategy())
    @settings(max_examples=50)
    def test_vector_identity(self, params):
        # H = A + B + C - 2*O with O = (1, 0)
        h = orthocenter_h(params)
        vs = [vertex_point(s) for s in (params.a, params.b, params.c)]
        sx = vs[0].x.value + vs[1].x.value + vs[2].x.value - 2
        sy = vs[0].y.value + vs[1].y.value + vs[2].y.value
        assert h == P(sx, sy)

    def test_near_equilateral_float_orthocentre_is_near_centroid(self):
        import math
        from oblique_simson import FloatBackend
        fb = FloatBackend(1e-9)
        phi = 0.3
        ps = [math.tan((phi + k * 2 * math.pi / 3) / 2) for k in range(3)]
        params = Params.make(*ps, 0, backend=fb)
        h = orthocenter_h(params)
        vs = [vertex_point(s) for s in (params.a, params.b, params.c)]
        centroid = Point(fb.scalar((vs[0].x.value + vs[1].x.value + vs[2].x.value) / 3),
                         fb.scalar((vs[0].y.value + vs[1].y.value + vs[2].y.value) / 3))
        assert points_equal(h, centroid)


class TestQPoint:
    def test_worked(self):
        assert q_point(P("-2/5", "12/5"), E("1/2")) == P("-7/5", 1)

    def test_t_zero_is_midpoint(self):
        assert q_point(P("-2/5", "12/5"), E(0)) == P("-1/5", "6/5")

    @given(h=st.tuples(rationals, rationals), t=rationals)
    def test_general_midpoint_form(self, h, t):
        hx, hy = h
        assume(hx != 0 or hy != 0)
        q = q_point(P(hx, hy), E(t))
        assert q == P(hx / 2 - hy * t, hy / 2 + hx * t)
        # always on the perpendicular bisector of JH
        assert dist_sq(q, J).value == dist_sq(q, P(hx, hy)).value

    def test_j_equals_h_rejected(self):
        with pytest.raises(JEqualsH):
            q_point(J, E("1/2"))


class TestVertexCircle:
    def test_worked_values(self):
        from oblique_simson import Circle
        assert vertex_circle(E(1), E("1/2")) == Circle(E(0), E(-2), E(0))
        assert vertex_circle(E(2), E("1/2")) == Circle(E("2/5"), E("-6/5"), E(0))

    @given(p=rationals, t=rationals)
    def test_contains_J_and_vertex_centered_at_image(self, p, t):
        c = vertex_circle(E(p), E(t))
        assert c.f.value == 0               # passes through the origin
        assert on_circle(c, vertex_point(E(p)))
        assert c.center() == image_vertex(E(p), E(t))


class TestAltitude:
    @pytest.mark.parametrize("vertex,expected", [
        ("A", Line(E(1), E(1), E(-2))),
        ("B", Line(E(10), E(5), E(-8))),
        ("C", Line(E(15), E(5), E(-6))),
    ])
    def test_worked_values(self, vertex, expected):
        assert altitude_line(vertex, Params.make(1, 2, 3, 0)) == expected

    @given(params=params_strategy())
    @settings(max_examples=40)
    def test_normal_direction(self, params):
        # normal of the altitude from A is proportional to (b+c, -(1-bc))
        alt = altitude_line("A", params)
        b, c = params.b.value, params.c.value
        nx, ny = b + c, -(1 - b * c)
        cross = alt.a.value * ny - alt.b.value * nx
        assert cross == 0


class TestXYZ:
    @pytest.mark.parametrize("vertex,expected", [
        ("A", P(0, 2)),
        ("B", P("8/25", "24/25")),
        ("C", P("6/25", "12/25")),
    ])
    def test_worked_values(self, vertex, expected):
        pt, tangent = xyz_point(vertex, Params.make(1, 2, 3, Fraction(1, 2)))
        assert pt == expected and not tangent

    @given(params=params_strategy())
    @settings(max_examples=30)
    def test_incidences(self, params):
        s = hagge_circle(params)
        for vertex in "ABC":
            pt, _ = xyz_point(vertex, params)
            assert on_line(altitude_line(vertex, params), pt)
            assert on_circle(vertex_circle(getattr(params, vertex.lower()), params.t), pt)
            assert on_circle(s, pt)


class TestHaggeCircle:
    def test_worked_value(self):
        from oblique_simson import Circle
        c = hagge_circle(Params.make(1, 2, 3, Fraction(1, 2)))
        assert c == Circle(E("14/5"), E(-2), E(0))
        assert c.center() == P("-7/5", 1)
        assert c.radius_sq().value == Fraction(74, 25)

    @given(params=params_strategy())
    @settings(max_examples=30)
    def test_no_constant_term_and_members(self, params):
        c = hagge_circle(params)
        assert c.f.value == 0           # passes through J
        h = orthocenter_h(params)
        assert on_circle(c, h)
        assert c.center() == q_point(h, params.t)

    def test_t_zero_centered_at_midpoint(self):
        params = Params.make(1, 2, 3, 0)
        c = hagge_circle(params)
        h = orthocenter_h(params)
        assert c.center() == P(h.x.value / 2, h.y.value / 2)
        assert on_circle(c, h) and on_circle(c, J)


class TestLMN:
    @pytest.mark.parametrize("which,expected,side", [
        ("L", P("-2/5", 0), Line(E(5), E(-5), E(2))),
        ("M", P("-3/5", "1/5"), Line(E(1), E(-2), E(1))),
        ("N", P("-4/5", "2/5"), Line(E(1), E(-3), E(2))),
    ])
    def test_worked_values(self, which, expected, side):
        pt, tangent = lmn_point(which, Params.make(1, 2, 3, Fraction(1, 2)))
        assert pt == expected and not tangent
        assert on_line(side, pt)


class TestGwsLine:
    def test_worked_value(self):
        line = gws_line(P("-2/5", 0), P("-3/5", "1/5"), P("-4/5", "2/5"))
        assert line == Line(E(5), E(5), E(2))
        assert on_line(line, P("-7/5", 1))

    def test_not_collinear_rejected(self):
        with pytest.raises(NotCollinear):
            gws_line(P(0, 0), P(1, 0), P(0, 1))

    def test_all_coincident_rejected(self):
        with pytest.raises(AllCoincident):
            gws_line(P(1, 1), P(1, 1), P(1, 1))

    def test_two_coincident_ok(self):
        line = gws_line(P(0, 0), P(0, 0), P(1, 1))
        assert line == Line(E(1), E(-1), E(0))


class TestDoubleSimson:
    def test_equals_gws_on_image_triangle(self):
        line = double_simson_line(J, P(0, 1), P("-1/5", "3/5"), P("-1/5", "2/5"))
        assert line == Line(E(5), E(5), E(2))
        assert on_line(line, P("-7/5", 1))

    def test_original_triangle_line_contains_H(self):
        line = double_simson_line(J, P(1, 1), P("2/5", "4/5"), P("1/5", "3/5"))
        assert on_line(line, P("-2/5", "12/5"))

    def test_not_on_circumcircle_rejected(self):
        with pytest.raises(NotOnCircumcircle):
            double_simson_line(P(5, 5), P(1, 1), P("2/5", "4/5"), P("1/5", "3/5"))

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(CollinearPoints):
            double_simson_line(J, P(1, 1), P(2, 2), P(3, 3))


class TestBuildScene:
    def test_degenerate_params_rejected(self):
        with pytest.raises(DegenerateTriangle, match="a = c"):
            Params.make(1, 2, 1, 0)
        with pytest.raises(DegenerateTriangle, match="a = b"):
            build_scene(Params.make("1/2", "2/4", 3, 1))

    @pytest.mark.parametrize("abc, name", [((10**10, 2, 3), "A"), ((1, -2 * 10**10, 3), "B")])
    def test_float_vertex_within_tolerance_of_j_rejected(self, abc, name):
        """A vertex parameter so large that its vertex lies within the float
        tolerance of J is a degenerate triangle, named before any line is
        drawn through that vertex, by the build and by the audit alike."""
        params = Params.make(*abc, Fraction(1, 2), backend=FloatBackend(1e-9))
        message = f"^degenerate triangle: vertex {name} coincides with J$"
        with pytest.raises(DegenerateTriangle, match=message):
            build_scene(params)
        with pytest.raises(DegenerateTriangle, match=message):
            audit_printed_formulas(params)

    def test_scene_is_fully_named(self, golden_scene):
        assert tuple(golden_scene.points) == POINT_NAMES
        assert tuple(golden_scene.lines) == LINE_NAMES
        assert tuple(golden_scene.circles) == CIRCLE_NAMES

    def test_golden_tangency_flag(self, golden_scene):
        assert golden_scene.flags == ("tangent:AA0",)

    def test_classical_scene(self, classical_scene):
        pts = classical_scene.points
        assert pts["Q"] == P("-1/5", "6/5")
        assert pts["K"] == J                      # t = 0: perspector degenerates to J
        assert pts["L"] == P("-1/5", "1/5")
        # this instance has JA parallel to BC, so the altitude from A touches
        # the circle on diameter JA at A itself: X collapses onto A
        assert pts["X"] == pts["A"]
        assert classical_scene.flags == ("tangent:X",)

    @given(params=params_strategy())
    @settings(max_examples=20, deadline=None)
    def test_random_scenes_verify(self, params):
        from oblique_simson import run_checks
        report = run_checks(build_scene(params))
        assert report.all_pass, [r.name for r in report.failures]


def _scene_scalars(scene):
    """Every stored coordinate of the scene, plus the oblique-angle tangents."""
    objects = [scene.params, *scene.points.values(), *scene.lines.values(),
               *scene.circles.values(), *(c.center() for c in scene.circles.values())]
    scalars = [getattr(obj, f) for obj in objects for f in vars(obj)]
    scalars += [c.radius_sq() for c in scene.circles.values()]
    j = scene.points["J"]
    for name, side in (("L", "sideBC"), ("M", "sideCA"), ("N", "sideAB")):
        if not points_equal(scene.points[name], j):
            tan = directed_tan(line_through(j, scene.points[name]), scene.lines[side])
            if not tan.infinite:
                scalars.append(tan.value)
    return scalars


class TestSceneValueTypes:
    def test_coordinates_are_backend_scalars_of_native_values(self):
        raws = [(p.a.value, p.b.value, p.c.value, p.t.value)
                for _, p, _ in fuzz_instances(
                    FuzzConfig(seed=11, count=12, include_t_zero=True))[0]]
        raws.append((1, 2, 3, Fraction(1, 2)))  # sets tangent:AA0
        flags, t_zero = set(), 0
        for backend, native in ((EXACT, Fraction), (FloatBackend(1e-9), float)):
            for raw in raws:
                scene = build_scene(Params.make(*raw, backend=backend))
                flags.update(f for f in scene.flags if f.startswith("tangent:"))
                t_zero += raw[3] == 0
                for s in _scene_scalars(scene):
                    assert isinstance(s, Scalar) and s.backend == backend
                    assert type(s.value) is native, (raw, s)
        assert flags and t_zero == 2


class TestNormalizeFrame:
    def test_canonical_roundtrip(self):
        a_pt, b_pt, c_pt = (vertex_point(E(p)) for p in (1, 2, 3))
        nf = normalize_frame(a_pt, b_pt, c_pt, J)
        assert (nf.a.value, nf.b.value, nf.c.value) == (1, 2, 3)
        assert nf.transform.identity

    def test_similarity_invariance(self):
        # rotate by the rational direction (3, 4)/5, scale by 5, translate
        def transform(p):
            x, y = p.x.value, p.y.value
            return P(3 * x - 4 * y + 7, 4 * x + 3 * y - 2)
        a_pt, b_pt, c_pt = (vertex_point(E(p)) for p in (1, 2, 3))
        nf = normalize_frame(transform(a_pt), transform(b_pt), transform(c_pt),
                             transform(J))
        assert (nf.a.value, nf.b.value, nf.c.value) == (1, 2, 3)
        assert not nf.transform.identity
        # the recorded inverse maps canonical points back to the input frame
        back = nf.transform.from_canonical(a_pt)
        assert back == transform(a_pt)
        fwd = nf.transform.to_canonical(transform(b_pt))
        assert fwd == b_pt

    def test_scene_from_normalized_frame(self):
        def transform(p):
            x, y = p.x.value, p.y.value
            return P(3 * x - 4 * y + 7, 4 * x + 3 * y - 2)
        a_pt, b_pt, c_pt = (vertex_point(E(p)) for p in (1, 2, 3))
        nf = normalize_frame(transform(a_pt), transform(b_pt), transform(c_pt),
                             transform(J))
        scene = build_scene(nf.params(Fraction(1, 2)))
        assert scene.points["Q"] == P("-7/5", 1)
        # mapped back, Q lands on the original frame's copy of the line LMN
        q_orig = nf.transform.from_canonical(scene.points["Q"])
        l_orig = nf.transform.from_canonical(scene.points["L"])
        n_orig = nf.transform.from_canonical(scene.points["N"])
        assert collinear3(q_orig, l_orig, n_orig)

    def test_j_at_vertex_rejected(self):
        a_pt, b_pt, c_pt = (vertex_point(E(p)) for p in (1, 2, 3))
        with pytest.raises(DegenerateTriangle):
            normalize_frame(a_pt, b_pt, c_pt, a_pt)

    def test_j_off_circle_rejected(self):
        a_pt, b_pt, c_pt = (vertex_point(E(p)) for p in (1, 2, 3))
        with pytest.raises(NotOnCircumcircle):
            normalize_frame(a_pt, b_pt, c_pt, P(5, 5))

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateTriangle):
            normalize_frame(P(0, 0), P(1, 1), P(2, 2), P(0, 0))

    def test_transform_rejects_a_point_of_another_backend(self):
        a_pt, b_pt, c_pt = (vertex_point(E(p)) for p in (1, 2, 3))
        transform = normalize_frame(a_pt, b_pt, c_pt, J).transform
        fb = FloatBackend(1e-9)
        other = Point(fb.scalar(1.0), fb.scalar(0.0))
        with pytest.raises(BackendMismatch):
            transform.to_canonical(other)
        with pytest.raises(BackendMismatch):
            transform.from_canonical(other)


class TestNormalizeFrameFloatScale:
    """The circumcircle test of normalize_frame scales its tolerance with the
    squared distances it compares, so large float coordinates are accepted."""

    @staticmethod
    def _frame(off, j_stretch=1):
        # the 3-4-5 triangle with J on its circumcircle (centre 0, radius 5),
        # rotated by (3, 4)/5, scaled by 10^6/7 and shifted by (off, -off);
        # j_stretch moves J radially off the circle
        fb = FloatBackend(1e-9)
        scale = Fraction(10 ** 6, 7)

        def pt(x, y, stretch=1):
            x, y = Fraction(x) * stretch, Fraction(y) * stretch
            u, v = (3 * x - 4 * y) / 5, (4 * x + 3 * y) / 5
            return Point(fb.scalar(u * scale + off), fb.scalar(v * scale - off))

        return (pt(3, 4), pt(5, 0), pt(-4, 3), pt(0, -5, j_stretch))

    @pytest.mark.parametrize("off", [0, Fraction(1, 10), Fraction(123457, 1000)])
    def test_large_coordinates_normalize(self, off):
        nf = normalize_frame(*self._frame(off))
        for got, want in ((nf.a, -1 / 3), (nf.b, -1.0), (nf.c, 0.5)):
            assert abs(got.value - want) <= 1e-9

    @pytest.mark.parametrize("off", [0, Fraction(123457, 1000)])
    def test_j_off_circle_still_rejected(self, off):
        with pytest.raises(NotOnCircumcircle):
            normalize_frame(*self._frame(off, j_stretch=Fraction(1001, 1000)))

    @pytest.mark.xfail(raises=DegenerateTriangle, strict=True,
                       reason="the float collinearity test's tolerance calls a small "
                              "triangle collinear at eps 1e-6")
    def test_small_triangle_normalizes_as_on_exact(self):
        # the canonical triangle (a, b, c) moved by w -> (1 + t + 2i) w + (a + ci),
        # with J at the image of the origin, as the report sweep places it
        a, b, c, t = Fraction(5, 832), Fraction(-1, 165), Fraction(-3, 562), Fraction(-3, 655)
        for be in (EXACT, FloatBackend(1e-6)):
            def place(x, y):
                return Point(be.scalar((1 + t) * x - 2 * y + a),
                             be.scalar((1 + t) * y + 2 * x + c))

            verts = [place(2 / (1 + p * p), 2 * p / (1 + p * p)) for p in (a, b, c)]
            nf = normalize_frame(*verts, place(0, 0))
            for got, want in ((nf.a, a), (nf.b, b), (nf.c, c)):
                assert abs(got.value - want) <= 1e-9
