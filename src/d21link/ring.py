"""Exact arithmetic in the quarter-exponent Laurent ring and its fractions.

The braiding is built and verified over Laurent polynomials in t = q^{1/4}
with integer coefficients, and over reduced fractions of such polynomials.
Its entries are then read out as integer Laurent polynomials in q by
:func:`to_integer_laurent`; the tangle fold runs on those alone and the skein
oracle on ``int`` coefficients, so :class:`RatFunc` serves only the braiding
construction and its verification.
A :class:`QuarterLaurent` stores a finite map ``exponent -> coefficient``
where the integer exponent ``e`` encodes the monomial t^e = q^{e/4}; a plain
power q^k therefore sits at exponent 4k.  Working on the quarter-exponent
lattice keeps the diagonal Cartan factors, whose q-exponents have
denominator four, in exact integer bookkeeping.  Every coefficient is an
``int`` (anything else raises ``TypeError``), so a rational number such as
1/2 lives in a :class:`RatFunc` denominator.

A :class:`RatFunc` is a fraction of two QuarterLaurent values held in lowest
terms over Z[t, t^-1]: numerator and denominator divided by their gcd (a
primitive pseudo-remainder sequence over the integers, times the gcd of the
contents), denominator with valuation zero and positive leading coefficient,
and denominator exactly one whenever the value is polynomial.  The units of
Z[t, t^-1] are the +-t^k, so this form is unique and equality is structural.

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

from math import gcd as _int_gcd
from typing import Dict, Mapping, Sequence


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


class QuarterLaurent:
    """Laurent polynomial in t = q^{1/4} with ``int`` coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: Dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if type(coeff) is not int:
                    raise TypeError(f"coefficient {coeff!r} is not an int")
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
        result.terms = merged
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
        out: Dict[int, int] = {}
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
        result.terms = out
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

    def content(self) -> int:
        """The gcd of the coefficients (0 for the zero polynomial)."""
        return _int_gcd(*self.terms.values())

    def __repr__(self):
        return format_laurent({(e,): c for e, c in self.terms.items()}, ("t",))


ZERO = QuarterLaurent()
ONE = QuarterLaurent({0: 1})
Q = QuarterLaurent({4: 1})
QINV = QuarterLaurent({-4: 1})
LAMBDA = Q - QINV


def _subtract_multiple(rem: Dict[int, int], factor: int, shift: int,
                       b: QuarterLaurent) -> None:
    """rem -= factor * t^shift * b, in place."""
    for exp, coeff in b.terms.items():
        e = exp + shift
        acc = rem.get(e, 0) - factor * coeff
        if acc:
            rem[e] = acc
        else:
            rem.pop(e, None)


def _primitive(p: QuarterLaurent) -> QuarterLaurent:
    """p shifted to valuation 0 and divided by its content, with a positive
    leading coefficient."""
    shift = -p.valuation()
    scale = p.content() if p.leading_coefficient() > 0 else -p.content()
    return QuarterLaurent({e + shift: c // scale for e, c in p.terms.items()})


def poly_gcd(a: QuarterLaurent, b: QuarterLaurent) -> QuarterLaurent:
    """Gcd of two nonzero Laurent polynomials over Z: valuation 0, positive
    leading coefficient, content the gcd of the two contents.

    A primitive pseudo-remainder sequence on the primitive parts (Knuth,
    TAOCP vol. 2, 4.6.1): every step stays in integers, and each remainder
    is cut back to its primitive part before the next.
    """
    content = _int_gcd(a.content(), b.content())
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        rem = dict(a.terms)
        deg_b, lead_b = b.degree(), b.leading_coefficient()
        while rem and max(rem) >= deg_b:
            deg_r = max(rem)
            factor = rem[deg_r]
            if lead_b != 1:
                rem = {e: c * lead_b for e, c in rem.items()}
            _subtract_multiple(rem, factor, deg_r - deg_b, b)
        a, b = b, _primitive(QuarterLaurent(rem)) if rem else ZERO
    return a if content == 1 else a * QuarterLaurent.constant(content)


def exact_div(a: QuarterLaurent, b: QuarterLaurent) -> QuarterLaurent:
    """Quotient a/b in Z[t, t^-1]; ``ArithmeticError`` unless b divides a."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    va, vb = a.valuation(), b.valuation()
    rem = {e - va: c for e, c in a.terms.items()}
    quo: Dict[int, int] = {}
    b = b.shifted(-vb)
    deg_b, lead_b = b.degree(), b.leading_coefficient()
    while rem:
        deg_r = max(rem)
        factor, left = divmod(rem[deg_r], lead_b)
        if deg_r < deg_b or left:
            raise ArithmeticError("inexact polynomial division")
        quo[deg_r - deg_b + va - vb] = factor
        _subtract_multiple(rem, factor, deg_r - deg_b, b)
    return QuarterLaurent(quo)


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
                num, den = exact_div(num, g), exact_div(den, g)
            # the unit +-t^k that takes den to valuation 0, positive lead
            unit = QuarterLaurent(
                {-den.valuation(): 1 if den.leading_coefficient() > 0 else -1})
            if unit != ONE:
                num, den = num * unit, den * unit
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

    def is_at_one(self, value: int) -> bool:
        """Whether the classical limit q = 1 exists and equals ``value``."""
        den = sum(self.den.terms.values())
        return den != 0 and sum(self.num.terms.values()) == value * den

    def __repr__(self):
        if self.den is ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _coerce(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, int):
        return RatFunc.constant(value)
    if isinstance(value, QuarterLaurent):
        return RatFunc(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RatFunc")


RF_ZERO = RatFunc.from_poly(ZERO)
RF_ONE = RatFunc.from_poly(ONE)
RF_Q = RatFunc.from_poly(Q)
RF_LAMBDA = RatFunc.from_poly(LAMBDA)


def q_integer(n: int, c: int) -> RatFunc:
    """The quantum integer (n)_c = 1 + q^c + ... + q^{(n-1)c} of step c,
    which is (q^{nc} - 1)/(q^c - 1); a zero step gives 1."""
    if c == 0:
        return RF_ONE
    if n == 0:
        return RF_ZERO
    return RatFunc(QuarterLaurent({4 * c * m: 1 for m in range(n)}))


def q_factorial(n: int, c: int) -> RatFunc:
    """(n)_c! = (n)_c (n-1)_c ... (1)_c, with the empty product equal to 1."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    acc = RF_ONE
    for k in range(1, n + 1):
        acc = acc * q_integer(k, c)
    return acc


def to_integer_laurent(value: RatFunc) -> Dict[int, int]:
    """Reinterpret a RatFunc as an integer Laurent polynomial in q.

    Succeeds iff the denominator is one and every t-exponent is divisible
    by four; returns ``{q_exponent: coeff}``.
    """
    if value.den is not ONE:
        raise NotLaurentInQ("denominator is not 1", value.den)
    out: Dict[int, int] = {}
    for exp, coeff in value.num.terms.items():
        if exp % 4:
            raise NotLaurentInQ("t-exponent not divisible by 4", exp)
        out[exp // 4] = coeff
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


def excerpt(value: str | int, limit: int = 32) -> str:
    """``repr`` of a user's text or number for an error message; past
    ``limit`` characters it shows the first ``limit``, ``...`` and the
    length, so that no message echoes a long input whole."""
    text = str(value)
    if len(text) <= limit:
        return repr(value)
    head = text[:limit] + "..."
    if isinstance(value, str):
        head = repr(head)
    return f"{head} ({len(text)} characters)"
