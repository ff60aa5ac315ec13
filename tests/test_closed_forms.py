"""The exact construction's closed forms against the meets they replaced.

On the exact backend ``construct_core`` writes X, Y and Z, and
``build_scene`` writes L, M and N, from closed forms in the pairs (n, d) of
a, b, c and t, and reads the tangency flags of the joins AA0, BB0, CC0 from
``geom._tangency_h`` alone.  The reference below is the route they replaced:
the second meet of each altitude with its vertex circle, of each pair of
vertex circles along their radical line, and of each join with Sigma.  The
two must give the same canonical tuples and the same flags at magnitudes 10
and 10^200, on the tangency instances and over Z[t]; the build must call no
meet; and a form with one coefficient off by one must stop at its
certificate with a ``ConstructionError``.
"""

import collections
from fractions import Fraction

import pytest

from oblique_simson import geom, simson, verify
from oblique_simson.errors import ConstructionError
from oblique_simson.numeric import EXACT, FloatBackend
from oblique_simson.simson import VERTEX_ORDER, Params
from test_zt_ring import TRIANGLES, zt_params

WIDE = 10 ** 200

# (0, 1, -1, 0) sets tangent:Y and tangent:Z; then the three tangency instances
# of test_check_tuples, and the golden (tangent:AA0) and classical (tangent:X) ones
TANGENT = [(0, 1, -1, 0), (Fraction(-3, 2), Fraction(-4, 3), -1, Fraction(-1, 3)),
           (-3, Fraction(-4, 3), Fraction(1, 2), Fraction(1, 2)),
           (-4, -3, Fraction(1, 3), 2), (1, 2, 3, Fraction(1, 2)), (1, 2, 3, 0)]


def seeded(seed, count, mag=10, t_zero=False):
    config = verify.FuzzConfig(seed=seed, count=count, max_numerator=mag,
                               max_denominator=mag, include_t_zero=t_zero)
    return [p for _, p in verify._instances(config)]


def meet_route(params):
    """(X, Y, Z, L, M, N by name, flags) from the second meets, on the
    stage's vertices, altitudes, joins and vertex circles."""
    be = params.backend
    stage, _ = simson.construct_core(params)
    sigma, j = geom._circle_h(be, -2, 0, 0), stage["J"]
    points, flags, xyz_flags, lmn_flags = {}, [], [], []
    for v, n in zip(VERTEX_ORDER, ("X", "Y", "Z")):
        if geom._second_line_circle_h(be, stage[v + v + "0"], sigma, stage[v])[1]:
            flags.append(f"tangent:{v}{v}0")
        points[n], tangent = geom._second_line_circle_h(be, stage["alt" + v], stage["c" + v],
                                                        stage[v])
        if tangent:
            xyz_flags.append(f"tangent:{n}")
    for n, (c1, c2) in (("L", ("cB", "cC")), ("M", ("cC", "cA")), ("N", ("cA", "cB"))):
        radical = geom._radical_h(be, stage[c1], stage[c2])
        points[n], tangent = geom._second_line_circle_h(be, radical, stage[c1], j)
        if tangent:
            lmn_flags.append(f"tangent:{n}")
    return points, tuple(flags + xyz_flags + lmn_flags)


def assert_forms_match_meets(params):
    points, flags = meet_route(params)
    stage, xyz_flags = simson.construct_core(params)
    scene = simson.build_scene(params)
    for n, h in points.items():
        assert scene.points[n]._h == h, n
    assert [stage[n] for n in "XYZ"] == [points[n] for n in "XYZ"]
    assert scene.flags == flags
    assert xyz_flags == [f for f in flags if f[-1] in "XYZ"]
    return flags


def test_forms_match_meets_at_magnitude_10():
    instances = seeded(3, 300, t_zero=True)
    assert instances[0].t.value == 0
    for params in instances:
        assert_forms_match_meets(params)


@pytest.mark.parametrize("seed", [3, 31])
def test_forms_match_meets_at_magnitude_10_to_the_200(seed):
    for params in seeded(seed, 20, WIDE):
        assert_forms_match_meets(params)


def test_forms_match_meets_on_the_tangency_instances():
    flags = set()
    for raw in TANGENT:
        flags.update(assert_forms_match_meets(Params.make(*raw)))
    assert flags == {"tangent:AA0", "tangent:X", "tangent:Y", "tangent:Z"}
    assert simson.build_scene(Params.make(0, 1, -1, 0)).flags == ("tangent:Y", "tangent:Z")


@pytest.mark.parametrize("abc", TRIANGLES[:6])
def test_forms_match_meets_over_zt(abc):
    assert assert_forms_match_meets(zt_params(*abc)) == ()


def count_meets(monkeypatch):
    calls = collections.Counter()
    for fn in ("_second_line_circle_h", "_radical_h"):
        def counted(*args, _f=getattr(geom, fn), _fn=fn):
            calls[_fn] += 1
            return _f(*args)

        monkeypatch.setattr(geom, fn, counted)
    return calls


def test_exact_build_takes_no_meet(monkeypatch):
    instances = [Params.make(*raw) for raw in TANGENT] + seeded(3, 3, WIDE)
    calls = count_meets(monkeypatch)
    for params in instances:
        simson.construct_core(params)
        simson.build_scene(params)
    assert calls == {}


def test_float_build_keeps_its_meets(monkeypatch):
    params = Params.make(1, 2, 3, Fraction(1, 2), backend=FloatBackend(1e-9))
    calls = count_meets(monkeypatch)
    simson.build_scene(params)
    assert calls == {"_second_line_circle_h": 9, "_radical_h": 3}


# the forms with one coefficient off by one: G1's 2t (2 -> 3), F's -p (-1 -> -2)
# and L's -2 (-2 -> -3)

def g_off(q, r, t):
    (qn, qd), (rn, rd), (tn, td) = q, r, t
    cross = qn * rd + rn * qd
    return (2 * qn * rn * tn - td * cross - 3 * tn * qd * rd,
            td * (qn * rn - qd * rd) + 2 * tn * cross)


def xyz_off(be, p, q, r, t):
    (pn, pd), (qn, qd), (rn, rd), (_, td) = p, q, r, t
    g1, g2 = simson._g_h(q, r, t)
    f = 2 * pd * (pn * (qn * rn - 2 * qd * rd) + pd * (qn * rd + rn * qd))
    w = (pn * pn + pd * pd) * (qn * qn + qd * qd) * (rn * rn + rd * rd)
    return geom._point_h(be, -f * g1, f * g2, td * w)


def lmn_off(be, q, r, t):
    (qn, qd), (rn, rd), (_, td) = q, r, t
    g1, g2 = simson._g_h(q, r, t)
    k = -3 * qd * rd
    return geom._point_h(be, k * g2, k * g1, td * (qn * qn + qd * qd) * (rn * rn + rd * rd))


@pytest.mark.parametrize("name, form, raw, message", [
    ("_g_h", g_off, (1, 2, 3, Fraction(1, 2)), "X is off altA"),
    ("_xyz_form_h", xyz_off, (1, 2, 3, 0), "X is off altA"),  # where X is A, flagged
    ("_lmn_form_h", lmn_off, (1, 2, 3, Fraction(1, 2)), "L is off cB"),
    ("_lmn_form_h", lmn_off, (Fraction(-3, 7), 0, Fraction(5, 2), 0), "L is off cB"),
])
def test_form_off_by_one_fails_its_certificate(monkeypatch, name, form, raw, message):
    monkeypatch.setattr(simson, name, form)
    with pytest.raises(ConstructionError, match=f"^closed-form certificate failed: {message}$"):
        simson.build_scene(Params.make(*raw))


def test_vertex_in_place_of_x_needs_a_tangent_altitude(golden_scene):
    """On the golden scene altA does not touch cA at A, so A is no closed
    form of X."""
    stage, _ = simson.construct_core(golden_scene.params)
    with pytest.raises(ConstructionError, match="X is A, but altA does not touch cA there"):
        simson._certified_xyz_h(EXACT, "X", "A", stage["A"], stage)


def test_j_in_place_of_l_fails_its_certificate(golden_scene):
    """J is never L: cB and cC touch at J only if J, B0 and C0 are collinear,
    and the similarity would make J, B and C, three distinct points of
    Sigma, collinear too.  So J in place of L fails the certificate, and no
    two image vertices are collinear with J on the tangency instances, on
    seeded ones and over Z[t]."""
    stage, _ = simson.construct_core(golden_scene.params)
    with pytest.raises(ConstructionError, match="^closed-form certificate failed: L is J$"):
        simson._certified_lmn_h(EXACT, "L", stage["J"], stage)
    instances = ([Params.make(*raw) for raw in TANGENT] + seeded(3, 50)
                 + [zt_params(*abc) for abc in TRIANGLES[:6]])
    for params in instances:
        stage, _ = simson.construct_core(params)
        for p, q in (("B0", "C0"), ("C0", "A0"), ("A0", "B0")):
            assert not geom._collinear3_h(params.backend, stage["J"], stage[p], stage[q])
