"""Scalar arithmetic behind all geometry, with two interchangeable backends.

The exact backend works on :class:`fractions.Fraction` (arbitrary-precision,
always canonical: positive denominator, gcd-reduced, zero as 0/1), so every
identity the geometry asserts can be checked as a literal equality.  The
approximate backend works on finite binary floats together with an absolute
tolerance ``eps_abs`` (finite and positive); its zero test is
``|x| <= eps_abs``, optionally scaled by the magnitude of the quantities that
produced ``x``.

This module owns the two policies every layer shares, stated on raw values:
:meth:`Backend.is_zero` (the zero test) and :meth:`Backend.div` (division
that raises :class:`~oblique_simson.errors.DivisionByZero` when the divisor
is zero by that test).  The geometry computes on bare ``Fraction``/``float``
values through these two methods.

:class:`Scalar` is the stored value type: an immutable value bound to its
backend, as held in points, lines, circles and parameters.  The package
computes on ``.value``, never on Scalars.  A Scalar combines only with a
Scalar of the same backend (``+ - * /`` and ``==``); a Scalar of another
backend raises :class:`~oblique_simson.errors.BackendMismatch`, and any
other operand raises ``TypeError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import BackendMismatch, DivisionByZero, OutputError, ParseError


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal into an exact rational.

    Decimal literals are exact: "0.25" -> 1/4, "1e-3" -> 1/1000.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


class Backend:
    """Arithmetic context.  Use the EXACT singleton or a FloatBackend."""

    name: str
    exact: bool

    def coerce(self, value):
        raise NotImplementedError

    def is_zero(self, value, entries: Iterable = ()) -> bool:
        """Zero test on a raw value of this backend; *entries* are the raw
        values that fed it (see :func:`is_zero`)."""
        raise NotImplementedError

    def div(self, n, d):
        """n / d on raw values; raises DivisionByZero when d is zero by
        :meth:`is_zero`."""
        if self.is_zero(d):
            raise DivisionByZero("division by zero scalar")
        return n / d

    def scalar(self, value) -> "Scalar":
        """Wrap a value (int, Fraction, str, or same-backend Scalar) as a Scalar."""
        if isinstance(value, Scalar):
            if value.backend != self:
                raise BackendMismatch(
                    f"cannot adopt a {value.backend.name} scalar into the {self.name} backend"
                )
            return value
        return Scalar(self, self.coerce(value))

    def parse(self, text: str) -> "Scalar":
        """Parse "p/q", "p" or a decimal literal on this backend."""
        return Scalar(self, self.coerce(parse_rational(text)))


class ExactBackend(Backend):
    name = "exact"
    exact = True

    def coerce(self, value) -> Fraction:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
            raise TypeError(
                f"exact backend cannot represent {type(value).__name__} losslessly"
            )
        if isinstance(value, str):
            return parse_rational(value)
        return Fraction(value)

    def is_zero(self, value, entries: Iterable = ()) -> bool:
        return value == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactBackend)

    def __hash__(self) -> int:
        return hash(ExactBackend)

    def __repr__(self) -> str:
        return "EXACT"


class FloatBackend(Backend):
    """Finite binary floats with an absolute tolerance (coordinate units)."""

    name = "float"
    exact = False

    def __init__(self, eps_abs: float = 1e-9):
        if not (math.isfinite(eps_abs) and eps_abs > 0):
            raise ValueError(f"eps_abs must be finite and positive, got {eps_abs!r}")
        self.eps_abs = float(eps_abs)

    def coerce(self, value) -> float:
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, str):
            value = parse_rational(value)
        if not isinstance(value, (int, float, Fraction)):
            raise TypeError(f"float backend cannot represent {type(value).__name__}")
        try:
            result = float(value)
        except OverflowError as exc:
            raise ParseError("value exceeds the float range") from exc
        if not math.isfinite(result):
            raise ParseError(f"not a finite float: {value!r}")
        return result

    def is_zero(self, value, entries: Iterable = ()) -> bool:
        scale = 1.0
        for e in entries:
            m = abs(e)
            if m > scale:
                scale = m
        return abs(value) <= self.eps_abs * scale

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatBackend) and other.eps_abs == self.eps_abs

    def __hash__(self) -> int:
        return hash((FloatBackend, self.eps_abs))

    def __repr__(self) -> str:
        return f"FloatBackend(eps_abs={self.eps_abs!r})"


EXACT = ExactBackend()


class Scalar:
    """An immutable number bound to a backend; it combines only with Scalars
    of the same backend."""

    __slots__ = ("backend", "value")

    def __init__(self, backend: Backend, value):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def _operand(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(
                f"a Scalar combines only with a Scalar, not {type(other).__name__}")
        if other.backend != self.backend:
            raise BackendMismatch(
                f"cannot combine {self.backend.name} and {other.backend.name} scalars"
            )
        return other.value

    def __add__(self, other):
        return Scalar(self.backend, self.value + self._operand(other))

    def __sub__(self, other):
        return Scalar(self.backend, self.value - self._operand(other))

    def __mul__(self, other):
        return Scalar(self.backend, self.value * self._operand(other))

    def __truediv__(self, other):
        return Scalar(self.backend, self.backend.div(self.value, self._operand(other)))

    def __eq__(self, other) -> bool:
        return self.backend.is_zero(self.value - self._operand(other))

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.backend.name}, {format_scalar(self)})"


def is_zero(x: Scalar, entries: Iterable[Scalar] = ()) -> bool:
    """Backend-aware zero test; the rule itself is :meth:`Backend.is_zero`.

    On the exact backend this is literal.  On the float backend the threshold
    is ``eps_abs`` scaled by the largest magnitude among *entries* (the inputs
    that fed the tested quantity, e.g. determinant entries), never below
    ``eps_abs`` itself.
    """
    return x.backend.is_zero(x.value, map(float, entries))


def format_scalar(x: Scalar) -> str:
    """Text form used in all file formats: "p/q" exactly (sign on p, plain "p"
    for integers), repr of the float; OutputError beyond the interpreter's
    integer-to-text digit limit."""
    try:
        return str(x.value)
    except ValueError as exc:
        raise OutputError("a value has too many digits to write as text") from exc
