from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oblique_simson import (
    EXACT,
    BackendMismatch,
    DivisionByZero,
    FloatBackend,
    Params,
    ParseError,
)
from oblique_simson.numeric import format_scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


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

    def test_int_operands_coerce(self):
        s = EXACT.scalar(Fraction(1, 2))
        assert (2 * s).value == 1
        assert (s + 1).value == Fraction(3, 2)
        assert (1 - s).value == Fraction(1, 2)
        assert (1 / s).value == 2

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

    def test_scalar_immutable(self):
        s = EXACT.scalar(1)
        with pytest.raises(AttributeError):
            s.value = Fraction(2)
