import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import count_fractions
from oblique_simson import (
    EXACT,
    BackendMismatch,
    DivisionByZero,
    FloatBackend,
    FuzzConfig,
    Params,
    ParseError,
    Point,
    Scalar,
    audit_printed_formulas,
    build_scene,
    fuzz,
    normalize_frame,
    render_svg,
    run_checks,
    scene_from_json,
    scene_to_json,
)
from oblique_simson.errors import OutputError
from oblique_simson.numeric import format_pair, format_scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)

# the interpreter's integer-to-text digit limit (0: none)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("1/2", Fraction(1, 2)),
        ("-3", Fraction(-3)),
        ("0.25", Fraction(1, 4)),
        ("7", Fraction(7)),
        ("-7/5", Fraction(-7, 5)),
    ])
    def test_exact(self, text, expected):
        s = EXACT.parse(text)
        assert s.value == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "1//2", "2 3"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            EXACT.parse(text)

    def test_float_backend(self):
        s = FloatBackend().parse("1/2")
        assert s.value == 0.5

    @pytest.mark.parametrize("text", [
        # the JSON writer's form, read without Fraction's string parser
        "3/4", "-3/4", "5", "-0", "-0/7", "007/010", "2/4",
        # everything else goes to parse_rational unchanged
        "1/0", "0/0", "1/-2", "+1/2", " 1/2 ", "1_000",
        "\u0661/\u0662", "1.5", "1e3",
        "", "-", "/", "1/", "/2", "--1", "1//2",
        pytest.param("7" * 5000, marks=pytest.mark.skipif(
            not INT_TEXT_LIMIT, reason="no integer-to-text limit")),
        pytest.param("-" + "7" * 5000 + "/3", marks=pytest.mark.skipif(
            not INT_TEXT_LIMIT, reason="no integer-to-text limit")),
    ])
    def test_exact_agrees_with_fraction(self, text):
        try:
            want = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError):
                EXACT.parse(text)
        else:
            got = EXACT.parse(text).value
            assert type(got) is Fraction and got == want

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    @pytest.mark.parametrize("backend", [EXACT, FloatBackend()], ids=["exact", "float"])
    @pytest.mark.parametrize("text", [
        f"1e{INT_TEXT_LIMIT + 1}", f"-2.5e-{INT_TEXT_LIMIT + 1}", f" 3E+{INT_TEXT_LIMIT + 1} ",
        "1e" + "9" * (INT_TEXT_LIMIT + 1),
    ])
    def test_exponent_past_text_limit_rejected(self, backend, text):
        """Checked before Fraction parses, which would build 10**exponent."""
        with pytest.raises(ParseError, match="decimal exponent"):
            backend.parse(text)
        with pytest.raises(ParseError, match="decimal exponent"):
            backend.scalar(text)

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text limit")
    def test_exponent_at_text_limit_parses(self):
        assert EXACT.parse(f"1e-{INT_TEXT_LIMIT}").value == Fraction(1, 10 ** INT_TEXT_LIMIT)
        # past the exponent bound's check, the float backend rejects the underflow
        with pytest.raises(ParseError, match="below the float range"):
            FloatBackend().parse(f"-2.5e-{INT_TEXT_LIMIT}")

    def test_no_exponent_bound_without_text_limit(self):
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            pytest.skip("no integer-to-text limit")
        set_limit(0)
        try:
            assert EXACT.parse("1e5000").value == 10 ** 5000
        finally:
            set_limit(INT_TEXT_LIMIT)

    def test_plain_rational_builds_no_fraction(self, monkeypatch):
        """The text "p" or "p/q" reads as an integer pair: its Fraction is
        built only when the value is read, and it is the value of the text."""
        texts = ("3/4", "-0/7", "5", "007/010", "2/4")
        built = count_fractions(monkeypatch)
        scalars = [EXACT.parse(text) for text in texts]
        monkeypatch.undo()
        assert built == []
        assert [s.value for s in scalars] == [Fraction(text) for text in texts]
        assert [format_scalar(s) for s in scalars] == ["3/4", "0", "5", "7/10", "1/2"]


    @pytest.mark.parametrize("text", ["2/4", "-3", " 7 ", "+3", "1e-3", "0.25", "-0.0", "5e-324"])
    def test_scalar_of_a_string_is_parse(self, text):
        """A string has one route on each backend: scalar(s) is parse(s), the
        same pair on exact (so the same value, repr and hash), the same bits
        on float."""
        got, want = EXACT.scalar(text), EXACT.parse(text)
        assert got._ratio() == want._ratio()
        assert (got.value, repr(got), hash(got)) == (want.value, repr(want), hash(want))
        fb = FloatBackend()
        assert fb.scalar(text)._ratio()[0].hex() == fb.parse(text)._ratio()[0].hex()
        assert Params.make(text, 11, 12, 0).a._ratio() == want._ratio()

    @pytest.mark.parametrize("backend", [EXACT, FloatBackend()], ids=["exact", "float"])
    @pytest.mark.parametrize("text", [
        "abc", "1/0", "1e400",
        pytest.param("1e100000000", marks=pytest.mark.skipif(
            not INT_TEXT_LIMIT, reason="no integer-to-text limit")),
    ])
    def test_string_errors_agree(self, backend, text):
        """A bad string raises the same error through scalar and parse."""
        outcomes = []
        for route in (backend.scalar, backend.parse):
            try:
                outcomes.append(("=", route(text)._ratio()))
            except Exception as exc:  # compared by type and message
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == ("=" if backend.exact and text == "1e400" else ParseError)


class TestArithmetic:
    def test_add(self):
        assert (EXACT.scalar(Fraction(1, 2)) + EXACT.scalar(Fraction(1, 3))).value \
            == Fraction(5, 6)

    def test_absorbing_zero(self):
        prod = EXACT.scalar(Fraction(1, 2)) * EXACT.scalar(0)
        assert (prod.value.numerator, prod.value.denominator) == (0, 1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            EXACT.scalar(1) / EXACT.scalar(0)

    def test_float_division_by_near_zero(self):
        fb = FloatBackend(1e-9)
        with pytest.raises(DivisionByZero):
            fb.scalar(1.0) / fb.scalar(1e-12)

    def test_int_operands_raise_type_error(self):
        # Scalars combine only with Scalars: no int, Fraction or float coercion
        ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq)
        for s, raw in ((EXACT.scalar(Fraction(1, 2)), 2),
                       (EXACT.scalar(Fraction(1, 2)), Fraction(2)),
                       (FloatBackend().scalar(0.5), 2),
                       (FloatBackend().scalar(0.5), 2.0)):
            for op in ops:
                with pytest.raises(TypeError):
                    op(s, raw)
                with pytest.raises(TypeError):
                    op(raw, s)

    def test_backend_mixing_rejected(self):
        a = EXACT.scalar(1)
        b = FloatBackend().scalar(1.0)
        with pytest.raises(BackendMismatch):
            a + b
        with pytest.raises(BackendMismatch):
            a == b

    def test_distinct_float_tolerances_do_not_mix(self):
        with pytest.raises(BackendMismatch):
            FloatBackend(1e-9).scalar(1.0) + FloatBackend(1e-6).scalar(1.0)

    def test_float_into_exact_rejected(self):
        with pytest.raises(TypeError):
            EXACT.scalar(0.5)

    def test_lossy_roundtrip_not_required(self):
        # exact 1/3 -> float -> back is lossy by design
        third = EXACT.scalar(Fraction(1, 3))
        f = float(third)
        assert Fraction(f) != Fraction(1, 3)

    @given(a=rationals, b=rationals, c=rationals)
    def test_field_axioms(self, a, b, c):
        sa, sb, sc = (EXACT.scalar(v) for v in (a, b, c))
        assert ((sa + sb) + sc).value == (sa + (sb + sc)).value
        assert (sa * (sb + sc)).value == (sa * sb + sa * sc).value
        if b != 0:
            assert ((sa / sb) * sb).value == a


class TestFloatDomain:
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError):
            FloatBackend(eps)

    @pytest.mark.parametrize("value", [Fraction(10 ** 400), -10 ** 400,
                                       float("inf"), float("nan")],
                             ids=["fraction-1e400", "int-minus-1e400", "inf", "nan"])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ParseError):
            FloatBackend().scalar(value)

    def test_overflowing_params_rejected(self):
        with pytest.raises(ParseError):
            Params.make(Fraction(10 ** 400), 2, 3, 1, backend=FloatBackend())

    @pytest.mark.parametrize("value", ["1e-400", "-1e-400", Fraction(1, 10 ** 400)],
                             ids=["text", "negative-text", "fraction"])
    def test_underflowing_values_rejected(self, value):
        """A nonzero value that rounds to 0.0 would silently become zero
        (t = 0 is the classical case)."""
        with pytest.raises(ParseError, match="below the float range"):
            Params.make(1, 2, 3, value, backend=FloatBackend())

    def test_subnormal_and_zero_accepted(self):
        assert FloatBackend().scalar("5e-324").value == 5e-324
        assert Params.make(1, 2, 3, "5e-324", backend=FloatBackend()).t.value == 5e-324
        assert FloatBackend().scalar(0).value == 0.0
        assert FloatBackend().scalar("-0.0").value == 0.0

    def test_exact_keeps_tiny_values(self):
        assert Params.make(1, 2, 3, "1e-400").t.value == Fraction(1, 10 ** 400)


class TestZeroTest:
    def test_exact_is_literal(self):
        from oblique_simson.numeric import is_zero
        assert is_zero(EXACT.scalar(0))
        assert not is_zero(EXACT.scalar(Fraction(1, 10 ** 30)))

    def test_float_threshold(self):
        from oblique_simson.numeric import is_zero
        fb = FloatBackend(1e-9)
        assert is_zero(fb.scalar(5e-10))
        assert not is_zero(fb.scalar(5e-9))

    @given(x=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           eps_small=st.floats(min_value=1e-12, max_value=1e-6),
           eps_big=st.floats(min_value=1e-6, max_value=1e-1))
    def test_monotone_in_eps(self, x, eps_small, eps_big):
        from oblique_simson.numeric import is_zero
        small, big = FloatBackend(eps_small), FloatBackend(eps_big)
        if is_zero(small.scalar(x)):
            assert is_zero(big.scalar(x))

    def test_scaled_tolerance(self):
        from oblique_simson.numeric import is_zero
        fb = FloatBackend(1e-9)
        v = fb.scalar(5e-8)
        assert not is_zero(v)
        assert is_zero(v, entries=(fb.scalar(100.0),))


class TestFormat:
    def test_format_rational_text(self):
        assert format_scalar(EXACT.scalar(Fraction(-7, 5))) == "-7/5"
        assert format_scalar(EXACT.scalar(1)) == "1"
        assert format_scalar(EXACT.scalar(0)) == "0"

    def test_float_repr(self):
        assert format_scalar(FloatBackend().scalar(0.5)) == "0.5"

    def test_pair_text_is_the_fractions(self):
        """Negative, unreduced and 10^200-sized pairs: the text of Fraction(n, d)."""
        rng = random.Random(29)
        for mag in (10, 10 ** 6, 10 ** 200):
            for _ in range(200):
                k = rng.randint(1, mag)
                n, d = rng.randint(-mag, mag) * k, rng.choice((-1, 1)) * rng.randint(1, mag) * k
                assert format_pair(EXACT, n, d) == str(Fraction(n, d)), (n, d)

    def test_pair_over_zero_is_division_by_zero(self):
        for be, zero in ((EXACT, 0), (FloatBackend(), 0.0)):
            with pytest.raises(DivisionByZero):
                format_pair(be, 1, zero)

    @pytest.mark.skipif(not INT_TEXT_LIMIT, reason="no integer-to-text digit limit")
    def test_pair_past_the_digit_limit_is_an_output_error(self):
        with pytest.raises(OutputError):
            format_pair(EXACT, 10 ** INT_TEXT_LIMIT, 3)

    def test_float_pair_is_the_quotients_repr(self):
        fb = FloatBackend()
        for n, d in ((1.0, 3.0), (-2.5, 1.0), (1e300, 1e-5), (-0.0, 1.0), (7.0, -2.0)):
            assert format_pair(fb, n, d) == str(n / d)

    def test_scalar_immutable(self):
        s = EXACT.scalar(1)
        with pytest.raises(AttributeError):
            s.value = Fraction(2)

    def test_value_reads_out_the_pair(self):
        """An exact Scalar reads out an equal Fraction, also one made from
        an int or from a pair not in lowest terms; a float one its float."""
        for s in (Scalar(EXACT, 3), EXACT.scalar(3), EXACT.parse("6/2")):
            assert type(s.value) is Fraction and s.value == 3
            assert s._ratio()[1] > 0
        assert Scalar(EXACT, Fraction(-3, 4))._ratio() == (-3, 4)
        half = Scalar(FloatBackend(), 0.5)
        assert half.value == 0.5 and half._ratio() == (0.5, 1.0)


class TestNoScalarArithmetic:
    """The package computes on bare Fraction/float values: with every Scalar
    operator made to raise, the whole pipeline still runs on both backends."""

    def test_pipeline_runs_without_scalar_operators(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("Scalar arithmetic inside the package")

        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"):
            monkeypatch.setattr(Scalar, name, forbidden)
        for backend in (EXACT, FloatBackend(1e-9)):
            params = Params.make(1, 2, 3, Fraction(1, 2), backend=backend)
            scene = build_scene(params)
            assert run_checks(scene).all_pass
            assert run_checks(build_scene(Params.make(-3, 5, 9, 0, backend=backend))).all_pass
            assert len(audit_printed_formulas(params).results) == 8
            scene_from_json(scene_to_json(scene))
            render_svg(scene)

            def pt(x, y):  # the canonical frame moved by w -> (3 + 4i) w + 7 - 2i
                return Point(backend.scalar(3 * x - 4 * y + 7),
                             backend.scalar(4 * x + 3 * y - 2))

            verts = [pt(2 / (1 + p * p), 2 * p / (1 + p * p)) for p in map(Fraction, (1, 2, 3))]
            nf = normalize_frame(*verts, pt(0, 0))
            assert [float(s) for s in (nf.a, nf.b, nf.c)] == pytest.approx([1, 2, 3])
            nf.transform.from_canonical(verts[0])
            assert not nf.transform.identity
        assert fuzz(FuzzConfig(seed=3, count=20)).all_pass
