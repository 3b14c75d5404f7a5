"""Exact arithmetic in the quarter-exponent Laurent ring and its fractions.

The braiding is built and verified over Laurent polynomials in t = q^{1/4}
with rational coefficients, and over reduced fractions of such polynomials.
Its entries are then read out as integer Laurent polynomials in q by
:func:`to_integer_laurent`; the tangle fold runs on those alone and the skein
oracle on ``int`` coefficients, so :class:`RatFunc` serves only the braiding
construction and its verification.
A :class:`QuarterLaurent` stores a finite map ``exponent -> coefficient``
where the integer exponent ``e`` encodes the monomial t^e = q^{e/4}; a plain
power q^k therefore sits at exponent 4k.  Working on the quarter-exponent
lattice keeps the diagonal Cartan factors, whose q-exponents have
denominator four, in exact integer bookkeeping.  A coefficient is an
``int`` whenever it is integral, and a ``Fraction`` only where a division
leaves a non-integer (a few hundred of the tens of thousands that building
and verifying the braiding creates); every division goes through
``Fraction``, never ``/`` on two ints; equality and hashing are by
value, since ``Fraction(2) == 2`` hashes as ``2``.

A :class:`RatFunc` is a fraction of two QuarterLaurent values held in
canonical form: numerator and denominator coprime (polynomial gcd over the
rationals via content/primitive-part splitting), denominator with valuation
zero, content one and positive leading coefficient, and denominator exactly
one whenever the value is polynomial.  Equality is therefore structural.

Values that are integer Laurent polynomials in q render canonically with
ascending exponents::

    -2*q^-1 + 3 + q^2

Term grammar (:func:`format_laurent`, the one polynomial printer: also for
the skein oracle's a, z and, with the name t, for the ``repr`` of
QuarterLaurent and RatFunc): an optional coefficient (omitted when the
magnitude is 1 and some exponent is nonzero), then each variable of nonzero
exponent with ``^k`` unless k = 1, all joined by ``*``; interior negative
terms use `` - ``.  All values are immutable and all operations pure; hashes
are computed on demand, never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Dict, Mapping, Sequence

# Quantum-integer step sizes for the seven root indices at the fixed
# parameter value: (n)_i = (q^{n*c_i} - 1)/(q^{c_i} - 1) when c_i != 0.
BRACKET_EXPONENTS = (2, 0, 0, -4, 0, 0, 2)


class NotLaurentInQ(ValueError):
    """Raised when a value fails to be an integer Laurent polynomial in q.

    Carries the offending exponent/denominator so convention bugs upstream
    surface with context.
    """

    def __init__(self, reason: str, offender=None):
        msg = reason if offender is None else f"{reason}: {offender!r}"
        super().__init__(msg)
        self.reason = reason
        self.offender = offender


def _coefficient(value):
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _ratio(num, den):
    """Exact ``num / den`` of two coefficients, never a ``float``."""
    if type(num) is int and type(den) is int:
        quo, rem = divmod(num, den)
        if not rem:
            return quo
    return _coefficient(Fraction(num, den))


def _settled(terms: Dict[int, object]) -> Dict[int, object]:
    """``terms`` with each integral ``Fraction`` turned into an ``int``, in
    place: a sum or product of fractions can be integral."""
    for exp, coeff in terms.items():
        if type(coeff) is not int and coeff.denominator == 1:
            terms[exp] = coeff.numerator
    return terms


class QuarterLaurent:
    """Laurent polynomial in t = q^{1/4} with rational (mostly int)
    coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, object] | None = None):
        clean: Dict[int, object] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _coefficient(coeff)
                if coeff:
                    clean[int(exp)] = coeff
        self.terms = clean

    @classmethod
    def t_power(cls, exp: int, coeff=1) -> "QuarterLaurent":
        return cls({exp: coeff})

    @classmethod
    def q_power(cls, exp: int, coeff=1) -> "QuarterLaurent":
        return cls({4 * exp: coeff})

    @classmethod
    def constant(cls, coeff) -> "QuarterLaurent":
        return cls({0: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuarterLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "QuarterLaurent") -> "QuarterLaurent":
        merged = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = merged.get(exp)
            if acc is None:
                merged[exp] = coeff
            else:
                acc = acc + coeff
                if acc:
                    merged[exp] = acc
                else:
                    del merged[exp]
        result = QuarterLaurent.__new__(QuarterLaurent)
        result.terms = _settled(merged)
        return result

    def __neg__(self) -> "QuarterLaurent":
        result = QuarterLaurent.__new__(QuarterLaurent)
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other: "QuarterLaurent") -> "QuarterLaurent":
        return self + (-other)

    def __mul__(self, other: "QuarterLaurent") -> "QuarterLaurent":
        if not self.terms or not other.terms:
            return ZERO
        out: Dict[int, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                acc = out.get(e)
                if acc is None:
                    out[e] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        result = QuarterLaurent.__new__(QuarterLaurent)
        result.terms = _settled(out)
        return result

    def shifted(self, exp: int) -> "QuarterLaurent":
        return QuarterLaurent({e + exp: c for e, c in self.terms.items()})

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def leading_coefficient(self):
        return self.terms[self.degree()]

    def content(self):
        """Positive rational c with self/c primitive (integer, coprime); an
        ``int`` when every coefficient is one."""
        if not self.terms:
            raise ValueError("zero polynomial has no content")
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = _int_gcd(num, abs(coeff.numerator))
            den = den * coeff.denominator // _int_gcd(den, coeff.denominator)
        return num if den == 1 else Fraction(num, den)

    def evaluate_at_one(self):
        """Specialize t = 1 (the classical limit q = 1)."""
        return sum(self.terms.values())

    def __repr__(self):
        return format_laurent({(e,): c for e, c in self.terms.items()}, ("t",))


ZERO = QuarterLaurent()
ONE = QuarterLaurent({0: 1})
Q = QuarterLaurent({4: 1})
QINV = QuarterLaurent({-4: 1})
LAMBDA = Q - QINV


def _poly_divmod(a: QuarterLaurent, b: QuarterLaurent):
    """Long division in Q[t]; both arguments must have valuation >= 0."""
    rem = dict(a.terms)
    quo: Dict[int, object] = {}
    deg_b = b.degree()
    lead_b = b.terms[deg_b]
    while rem:
        deg_r = max(rem)
        if deg_r < deg_b:
            break
        factor = _ratio(rem[deg_r], lead_b)
        shift = deg_r - deg_b
        quo[shift] = factor
        for exp, coeff in b.terms.items():
            e = exp + shift
            acc = rem.get(e, 0) - coeff * factor
            if acc:
                rem[e] = acc
            else:
                rem.pop(e, None)
    return QuarterLaurent(quo), QuarterLaurent(rem)


def _divided(p: QuarterLaurent, scale) -> QuarterLaurent:
    """p / scale for a nonzero coefficient ``scale``."""
    return QuarterLaurent({e: _ratio(c, scale) for e, c in p.terms.items()})


def _unit_scale(p: QuarterLaurent):
    """The content of p, with the sign of its leading coefficient."""
    scale = p.content()
    return -scale if p.leading_coefficient() < 0 else scale


def _unit_normalize(p: QuarterLaurent) -> QuarterLaurent:
    """Scale/shift p to valuation 0, content 1, positive leading coefficient."""
    p = p.shifted(-p.valuation())
    scale = _unit_scale(p)
    return p if scale == 1 else _divided(p, scale)


def poly_gcd(a: QuarterLaurent, b: QuarterLaurent) -> QuarterLaurent:
    """Gcd of two nonzero Laurent polynomials, in unit-normalized form."""
    a = _unit_normalize(a)
    b = _unit_normalize(b)
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a = b
        b = _unit_normalize(r) if not r.is_zero() else r
    return a


def exact_div(a: QuarterLaurent, b: QuarterLaurent) -> QuarterLaurent:
    """Quotient a/b when b divides a exactly (Laurent division)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    va, vb = a.valuation(), b.valuation()
    quo, rem = _poly_divmod(a.shifted(-va), b.shifted(-vb))
    if not rem.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return quo.shifted(va - vb)


class RatFunc:
    """Reduced fraction of two QuarterLaurent polynomials (canonical form)."""

    __slots__ = ("num", "den")

    def __init__(self, num: QuarterLaurent, den: QuarterLaurent = ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        # a unit denominator is always the shared ONE, so that ``den is ONE``
        # tells a polynomial without comparing terms
        if num.is_zero():
            num, den = ZERO, ONE
        elif den == ONE:
            den = ONE
        else:
            g = poly_gcd(num, den)
            if g != ONE:
                num = exact_div(num, g)
                den = exact_div(den, g)
            shift = -den.valuation()
            if shift:
                num = num.shifted(shift)
                den = den.shifted(shift)
            scale = _unit_scale(den)
            if scale != 1:
                num = _divided(num, scale)
                den = _divided(den, scale)
            if den == ONE:
                den = ONE
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: QuarterLaurent, den: QuarterLaurent) -> "RatFunc":
        """Internal: wrap values already known to be canonical (a unit
        ``den`` must be the shared ``ONE``)."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def from_poly(cls, p: QuarterLaurent) -> "RatFunc":
        return cls._raw(p, ONE)

    @classmethod
    def q_power(cls, exp: int, coeff=1) -> "RatFunc":
        return cls(QuarterLaurent.q_power(exp, coeff))

    @classmethod
    def constant(cls, coeff) -> "RatFunc":
        return cls(QuarterLaurent.constant(coeff))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = RatFunc.constant(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if self.den is ONE and other.den is ONE:
            return RatFunc._raw(self.num + other.num, ONE)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        if self.den is ONE and other.den is ONE:
            return RatFunc._raw(self.num * other.num, ONE)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        acc = RF_ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def evaluate_at_one(self):
        den = self.den.evaluate_at_one()
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at q = 1")
        return _ratio(self.num.evaluate_at_one(), den)

    def __repr__(self):
        if self.den is ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _coerce(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction)):
        return RatFunc.constant(value)
    if isinstance(value, QuarterLaurent):
        return RatFunc(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RatFunc")


RF_ZERO = RatFunc.from_poly(ZERO)
RF_ONE = RatFunc.from_poly(ONE)
RF_Q = RatFunc.from_poly(Q)
RF_LAMBDA = RatFunc.from_poly(LAMBDA)


def q_integer(n: int, i: int) -> RatFunc:
    """The quantum integer (n)_i = 1 + q^{c_i} + ... + q^{(n-1)c_i}."""
    if not 1 <= i <= 7:
        raise ValueError("root index out of range 1..7")
    c = BRACKET_EXPONENTS[i - 1]
    if c == 0:
        return RF_ONE
    if n == 0:
        return RF_ZERO
    return RatFunc(QuarterLaurent({4 * c * m: 1 for m in range(n)}))


def q_factorial(n: int, i: int) -> RatFunc:
    """(n)_i! = (n)_i (n-1)_i ... (1)_i, with the empty product equal to 1."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    acc = RF_ONE
    for k in range(1, n + 1):
        acc = acc * q_integer(k, i)
    return acc


def to_integer_laurent(value: RatFunc) -> Dict[int, int]:
    """Reinterpret a RatFunc as an integer Laurent polynomial in q.

    Succeeds iff the denominator is one, every t-exponent is divisible by
    four and every coefficient is an integer; returns ``{q_exponent: coeff}``.
    """
    if value.den is not ONE:
        raise NotLaurentInQ("denominator is not 1", value.den)
    out: Dict[int, int] = {}
    for exp, coeff in value.num.terms.items():
        if exp % 4:
            raise NotLaurentInQ("t-exponent not divisible by 4", exp)
        if coeff.denominator != 1:
            raise NotLaurentInQ("coefficient is not an integer", coeff)
        out[exp // 4] = coeff.numerator
    return out


def format_laurent(terms: Mapping[tuple, int], names: Sequence[str]) -> str:
    """Canonical ascending rendering of ``{exponent tuple: int}``, one
    exponent per name, e.g. ``-a^-1*z^-1 + 1 + a*z^-1`` for names a, z."""
    pieces = []
    for exps in sorted(terms):
        coeff = terms[exps]
        if coeff == 0:
            continue
        factors = [name if exp == 1 else f"{name}^{exp}"
                   for name, exp in zip(names, exps) if exp]
        mag = abs(coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces) if pieces else "0"


def laurent_product(left: Mapping[int, int],
                    right: Mapping[int, int]) -> Dict[int, int]:
    """Product of two integer Laurent polynomials ``{q_exponent: coeff}``."""
    out: Dict[int, int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {exp: coeff for exp, coeff in out.items() if coeff}


def format_q_laurent(terms: Mapping[int, int]) -> str:
    """Canonical ascending-exponent rendering, e.g. ``-2*q^-1 + 3 + q^2``."""
    return format_laurent({(exp,): coeff for exp, coeff in terms.items()}, ("q",))


def q_string(value: RatFunc) -> str:
    """Canonical q-polynomial string of an integer-Laurent RatFunc."""
    return format_q_laurent(to_integer_laurent(value))
