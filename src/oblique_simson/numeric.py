"""Scalar arithmetic behind all geometry, with two interchangeable backends.

The exact backend works on arbitrary-precision rationals, as integer pairs
and :class:`fractions.Fraction`, so every identity the geometry asserts can
be checked as a literal equality.  The approximate backend works on finite
binary floats together with an absolute tolerance ``eps_abs``
(0 < eps_abs < 1); its zero test is ``|x| <= eps_abs``, optionally scaled
by the magnitude of the quantities that produced ``x``.

This module owns the two policies every layer shares, stated on raw values:
:meth:`Backend.is_zero` (the zero test) and :meth:`Backend.div` (division
that raises :class:`~oblique_simson.errors.DivisionByZero` when the divisor
is zero by that test).  The exact zero rule is literal ``== 0``, and
:meth:`ExactBackend.div` returns ``Fraction(n, d)``, so both apply alike to
``Fraction`` values and to the homogeneous integers of
:mod:`~oblique_simson.geom`, whose single-formula primitives call them on
either backend.  Everything else computes on integers and floats through
these two methods, and on exact also through ``gcd``.  An exact-kind
backend (``exact = True``, ``one = 1``) supplies elements closed under
``+ - *`` and exact ``//``; ``==``, and ``<`` and ``>`` against 0, each
returning a bool; ``gcd``, the full gcd of its arguments (``math.gcd`` on
:class:`ExactBackend`); and ``div``, which the construction, the checks and
the audit call only for witnesses, and ``normalize_frame`` for parameters.

:class:`Scalar` is the stored value type: an immutable value bound to its
backend, as held in points, lines, circles and parameters.  It stores one
pair (n, d) with value n/d, as :mod:`~oblique_simson.geom`'s formulas carry
numbers: ints with d > 0 on exact (not necessarily in lowest terms), the
float over 1.0 on float.  ``_ratio()`` returns the pair, and the package
computes on pairs, never on Scalars; ``.value`` is a read-out that builds a
``Fraction`` on exact.  A Scalar combines only with a Scalar of the same
backend (``+ - * /`` and ``==``); a Scalar of another backend raises
:class:`~oblique_simson.errors.BackendMismatch`, and any other operand raises
``TypeError``.  An exact Scalar hashes by its value; a float Scalar, equal
to others within a tolerance, is unhashable.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import BackendMismatch, DivisionByZero, OutputError, ParseError


# "p" or "p/q" in ASCII digits, p optionally negative: the form the JSON
# writer emits, read by ExactBackend.parse without Fraction's string parser
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
# the exponent of a decimal literal, in the digits Fraction's parser accepts
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z").search


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal into an exact rational.

    Decimal literals are exact: "0.25" -> 1/4, "1e-3" -> 1/1000.  An exponent
    larger in magnitude than ``sys.get_int_max_str_digits()`` (unless that is
    0) is a ParseError, checked before Fraction would build 10**exponent.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exponent = _EXPONENT(text) if limit else None
    try:
        too_large = exponent is not None and abs(int(exponent[1])) > limit
    except ValueError:  # the exponent's own digits pass the limit
        too_large = True
    if too_large:
        raise ParseError(f"decimal exponent past the integer-to-text limit {limit}: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


class Backend:
    """Arithmetic context.  Use the EXACT singleton or a FloatBackend."""

    name: str
    exact: bool
    one: object  # the d of an integer's pair (n, d): 1 on exact, 1.0 on float

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
    one = 1
    gcd = staticmethod(math.gcd)

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

    def div(self, n, d) -> Fraction:
        if d == 0:
            raise DivisionByZero("division by zero scalar")
        return Fraction(n, d)

    def parse(self, text: str) -> "Scalar":
        """As :meth:`Backend.parse`; "p" and "p/q" in ASCII digits with
        q != 0 are read as the integer pair (p, q), which builds no
        ``Fraction``; anything else goes through parse_rational."""
        m = _PLAIN_RATIONAL(text)
        if m is not None:
            p, q = m.groups()
            try:
                den = 1 if q is None else int(q)
                if den:
                    return _pair(self, int(p), den)
            except ValueError:  # past the integer-to-text limit
                pass
        return Scalar(self, parse_rational(text))

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
    one = 1.0

    def __init__(self, eps_abs: float = 1e-9):
        # at eps_abs >= 1, is_zero(1.0) holds and every division raises
        if not 0 < eps_abs < 1:
            raise ValueError(f"eps_abs must satisfy 0 < eps_abs < 1, got {eps_abs!r}")
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
        if result == 0 and value != 0:
            raise ParseError("nonzero value is below the float range (rounds to 0.0)")
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
    """An immutable number bound to a backend, stored as the pair (n, d);
    it combines only with Scalars of the same backend."""

    __slots__ = ("backend", "_n", "_d")

    def __init__(self, backend: Backend, value):
        _set_backend(self, backend)
        if backend.exact:
            _set_n(self, value.numerator)
            _set_d(self, value.denominator)
        else:
            _set_n(self, value)
            _set_d(self, 1.0)

    @property
    def value(self):
        """The number: a Fraction on exact, the float on float."""
        return Fraction(self._n, self._d) if self.backend.exact else self._n

    def __setattr__(self, name, _value):
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return Scalar, (self.backend, self.value)

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

    def __hash__(self) -> int:
        if not self.backend.exact:
            raise TypeError("float scalars compare within a tolerance, so they are unhashable")
        # tagged, so a Scalar and an equal int or Fraction do not collide
        return hash((Scalar, self.value))

    def _ratio(self) -> Tuple:
        """(n, d) with n/d this Scalar's value: ints with d > 0, or float over 1.0."""
        return self._n, self._d

    def __float__(self) -> float:
        return self._n / self._d  # correctly rounded for ints, as float() of a Fraction

    def __repr__(self) -> str:
        return f"Scalar({self.backend.name}, {format_scalar(self)})"


_new = object.__new__
_set_backend = Scalar.backend.__set__
_set_n = Scalar._n.__set__
_set_d = Scalar._d.__set__


def _pair(backend: Backend, n, d) -> Scalar:
    """The Scalar holding the pair (n, d) as it stands: ints with d > 0 on
    exact, d = 1.0 on float.  Builds no Fraction."""
    scalar = _new(Scalar)
    _set_backend(scalar, backend)
    _set_n(scalar, n)
    _set_d(scalar, d)
    return scalar


def is_zero(x: Scalar, entries: Iterable[Scalar] = ()) -> bool:
    """Backend-aware zero test; the rule itself is :meth:`Backend.is_zero`.

    On the exact backend this is literal.  On the float backend the threshold
    is ``eps_abs`` scaled by the largest magnitude among *entries* (the inputs
    that fed the tested quantity, e.g. determinant entries), never below
    ``eps_abs`` itself.
    """
    return x.backend.is_zero(x._n, map(float, entries))


def format_scalar(x: Scalar) -> str:
    """Text form used in all file formats: "p/q" exactly (sign on p, plain "p"
    for integers), repr of the float; OutputError beyond the interpreter's
    integer-to-text digit limit.  Written from the pair; builds no Fraction."""
    n, d = x._ratio()
    try:
        if not x.backend.exact:
            return str(n)
        g = x.backend.gcd(n, d)
        return str(n // g) if d == g else f"{n // g}/{d // g}"
    except ValueError as exc:
        raise OutputError("a value has too many digits to write as text") from exc
