"""Parity-graded free modules and graded linear maps.

A :class:`SuperSpace` is an ordered list of parities, one per basis vector;
the order is significant because it fixes all matrix conventions.  A
:class:`SuperMap` is a homogeneous linear map stored sparsely as
``{(row, col): coefficient}`` with the column convention: ``entry[r][c]`` is
the coefficient of codomain basis vector ``r`` in the image of domain basis
vector ``c``.  Every map carries its parity (0 even, 1 odd) and
``SuperMap(...)`` checks that nonzero entries sit only in the parity blocks
the declared parity allows; the maps that :func:`compose`,
:func:`tensor_map`, :func:`invert`, ``+`` and ``scale`` build from checked
maps are correct by construction and skip the check.  The braiding/tangle
pipeline uses even maps exclusively.

Koszul signs are concentrated in a single audited code path,
:func:`tensor_map`, which implements (f (x) g)(v (x) w) =
(-1)^{|g||v|} f(v) (x) g(w) on lexicographically ordered tensor bases.

Entries are :class:`RatFunc` values, but the arithmetic runs on their
integer Laurent polynomials wherever it can.  :func:`compose` sums the
products of polynomial entries on their coefficient dicts, and those with
denominators per denominator, and reduces each output entry once;
:func:`tensor_map` takes an entry met by a unit +-1, as in the identity
factors of :func:`embed_at`, as it is instead of multiplying.

Exact linear algebra runs one division-free elimination over Z[t, 1/t],
a fraction-free Gaussian elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22 (1968),
divides each new row exactly by the previous pivot; this sweep divides it
by the integer content of its coefficients instead).  A row holding
fractions is first scaled by its denominators.  :func:`_eliminate` then
clears each pivot column from the other rows by
``row <- p*row - a*pivot_row``.  Scaling a row by a nonzero polynomial and
these combinations keep the rank, which :func:`rank_over_fractions` counts
as pivots, and they keep the inverse when they act on whole rows of
[f | id]: :func:`invert` also clears each pivot column from the pivot rows
above it, and its final divisions by the pivots are the only divisions,
and the only fractions, of the computation.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Mapping, Tuple

from .ring import ONE, RF_ONE, RF_ZERO, QuarterLaurent, RatFunc, exact_div

Entry = Tuple[int, int]
Terms = Dict[int, int]      # a Laurent polynomial's {exponent: coefficient}
Row = Dict[int, Terms]      # {column: nonzero polynomial} of one matrix row


class ShapeMismatchError(ValueError):
    """Operands have incompatible domains/codomains."""


class SuperSpace:
    __slots__ = ("parities",)

    def __init__(self, parities):
        parities = tuple(int(p) & 1 for p in parities)
        self.parities = parities

    @property
    def dim(self) -> int:
        return len(self.parities)

    def parity(self, index: int) -> int:
        return self.parities[index]

    def tensor(self, other: "SuperSpace") -> "SuperSpace":
        return SuperSpace(tuple(p ^ r for p in self.parities for r in other.parities))

    def tensor_power(self, count: int) -> "SuperSpace":
        acc = TRIVIAL
        for _ in range(count):
            acc = acc.tensor(self)
        return acc

    def __eq__(self, other):
        if not isinstance(other, SuperSpace):
            return NotImplemented
        return self.parities == other.parities

    def __hash__(self):
        return hash(self.parities)

    def __repr__(self):
        return f"SuperSpace{self.parities}"


TRIVIAL = SuperSpace((0,))


class SuperMap:
    __slots__ = ("domain", "codomain", "entries", "parity")

    def __init__(self, domain: SuperSpace, codomain: SuperSpace,
                 entries: Mapping[Entry, RatFunc], parity: int = 0):
        parity &= 1
        clean: Dict[Entry, RatFunc] = {}
        for (row, col), value in entries.items():
            if value.is_zero():
                continue
            if (codomain.parity(row) ^ domain.parity(col)) != parity:
                raise ValueError(
                    f"entry ({row},{col}) violates the parity-block invariant "
                    f"for a parity-{parity} map")
            clean[(row, col)] = value
        self.domain = domain
        self.codomain = codomain
        self.entries = clean
        self.parity = parity

    @classmethod
    def _derived(cls, domain: SuperSpace, codomain: SuperSpace,
                 entries: Dict[Entry, RatFunc], parity: int) -> "SuperMap":
        """Internal: wrap the entries of a map built from checked maps,
        already nonzero and in the blocks of ``parity``, without a check."""
        out = cls.__new__(cls)
        out.domain = domain
        out.codomain = codomain
        out.entries = entries
        out.parity = parity
        return out

    @classmethod
    def identity(cls, space: SuperSpace) -> "SuperMap":
        return cls(space, space, {(i, i): RF_ONE for i in range(space.dim)})

    @classmethod
    def zero(cls, domain: SuperSpace, codomain: SuperSpace, parity: int = 0) -> "SuperMap":
        return cls(domain, codomain, {}, parity)

    def entry(self, row: int, col: int) -> RatFunc:
        return self.entries.get((row, col), RF_ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SuperMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.entries == other.entries)

    def __add__(self, other: "SuperMap") -> "SuperMap":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeMismatchError("sum of maps with different shapes")
        if self.entries and other.entries and self.parity != other.parity:
            raise ValueError("sum of maps of different parity")
        merged = dict(self.entries)
        for key, value in other.entries.items():
            acc = merged.get(key)
            total = value if acc is None else acc + value
            if total.is_zero():
                merged.pop(key, None)
            else:
                merged[key] = total
        parity = self.parity if self.entries else other.parity
        return SuperMap._derived(self.domain, self.codomain, merged, parity)

    def __neg__(self) -> "SuperMap":
        return SuperMap._derived(self.domain, self.codomain,
                                 {k: -v for k, v in self.entries.items()},
                                 self.parity)

    def __sub__(self, other: "SuperMap") -> "SuperMap":
        return self + (-other)

    def scale(self, scalar: RatFunc) -> "SuperMap":
        if scalar.is_zero():
            return SuperMap.zero(self.domain, self.codomain, self.parity)
        return SuperMap._derived(self.domain, self.codomain,
                                 {k: v * scalar for k, v in self.entries.items()},
                                 self.parity)

    def __repr__(self):
        return (f"SuperMap({self.codomain.dim}x{self.domain.dim}, "
                f"{len(self.entries)} entries, parity {self.parity})")


def _add_product(acc: Terms, left: Terms, right: Terms) -> None:
    """acc += left * right on coefficient dicts, in place; a coefficient
    may be left at 0."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def _poly(terms: Terms) -> QuarterLaurent:
    """The polynomial of the int coefficients ``terms``, zeros dropped; it
    takes over the dict."""
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    out = QuarterLaurent.__new__(QuarterLaurent)
    out.terms = terms
    return out


def compose(f: SuperMap, g: SuperMap) -> SuperMap:
    """Matrix product f o g (g acts first).

    Each output entry is a sum of entry products: those of two polynomials
    are summed on their coefficient dicts, the others per denominator, and
    the sum is reduced once."""
    if g.codomain != f.domain:
        raise ShapeMismatchError("compose: codomain of g != domain of f")
    by_col: Dict[int, List[Tuple[int, RatFunc]]] = {}
    for (row, col), value in f.entries.items():
        by_col.setdefault(col, []).append((row, value))
    polys: Dict[Entry, Terms] = {}
    fractions: Dict[Entry, Dict[QuarterLaurent, Terms]] = {}
    for (mid, col), gval in g.entries.items():
        gden = gval.den
        gterms = gval.num.terms
        for row, fval in by_col.get(mid, ()):
            key = (row, col)
            if gden is ONE and fval.den is ONE:
                acc = polys.get(key)
                if acc is None:
                    acc = polys[key] = {}
            else:
                acc = fractions.setdefault(key, {}).setdefault(
                    fval.den * gden, {})
            _add_product(acc, fval.num.terms, gterms)
    out: Dict[Entry, RatFunc] = {}
    for key, terms in polys.items():
        if key not in fractions:
            num = _poly(terms)
            if num.terms:
                out[key] = RatFunc.from_poly(num)
    for key, parts in fractions.items():
        num, den = _poly(polys.get(key, {})), ONE
        for part_den, part_num in parts.items():
            part = _poly(part_num)
            if part.terms:
                num, den = num * part_den + part * den, den * part_den
        if num.terms:
            out[key] = RatFunc(num, den)
    return SuperMap._derived(g.domain, f.codomain, out,
                             (f.parity + g.parity) & 1)


def _unit(value: RatFunc) -> int:
    """+-1 when ``value`` is the constant +-1, else 0."""
    terms = value.num.terms
    if value.den is ONE and len(terms) == 1:
        coeff = terms.get(0)
        if coeff == 1 or coeff == -1:
            return coeff
    return 0


def tensor_map(f: SuperMap, g: SuperMap) -> SuperMap:
    """Graded tensor product of maps on lexicographic tensor bases.

    The Koszul rule (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w) is
    applied per column; |v| is the parity of the first-factor domain basis
    vector, so odd operators in the second slot pick up signs against odd
    first-slot inputs.  An entry met by a +-1 of the other factor is taken
    as it is, or negated, without a multiplication.
    """
    dom = f.domain.tensor(g.domain)
    cod = f.codomain.tensor(g.codomain)
    gdim_dom = g.domain.dim
    gdim_cod = g.codomain.dim
    g_items = [(rg, cg, gval, _unit(gval))
               for (rg, cg), gval in g.entries.items()]
    out: Dict[Entry, RatFunc] = {}
    for (rf, cf), fval in f.entries.items():
        sign = -1 if (g.parity and f.domain.parity(cf)) else 1
        f_unit = _unit(fval)
        row0 = rf * gdim_cod
        col0 = cf * gdim_dom
        for rg, cg, gval, g_unit in g_items:
            if g_unit:
                value = fval if g_unit == sign else -fval
            elif f_unit:
                value = gval if f_unit == sign else -gval
            else:
                value = fval * gval
                if sign < 0:
                    value = -value
            out[(row0 + rg, col0 + cg)] = value
    return SuperMap._derived(dom, cod, out, (f.parity + g.parity) & 1)


def volte(m: SuperSpace, n: SuperSpace) -> SuperMap:
    """The graded flip tau: m (x) n -> n (x) m, v (x) w -> (-1)^{|v||w|} w (x) v."""
    entries: Dict[Entry, RatFunc] = {}
    for i in range(m.dim):
        for j in range(n.dim):
            col = i * n.dim + j
            row = j * m.dim + i
            negative = m.parity(i) and n.parity(j)
            entries[(row, col)] = -RF_ONE if negative else RF_ONE
    return SuperMap(m.tensor(n), n.tensor(m), entries)


def embed_at(f: SuperMap, left: int, right: int, strand: SuperSpace) -> SuperMap:
    """id^{(x) left} (x) f (x) id^{(x) right} on powers of ``strand``."""
    out = f
    if left:
        out = tensor_map(SuperMap.identity(strand.tensor_power(left)), out)
    if right:
        out = tensor_map(out, SuperMap.identity(strand.tensor_power(right)))
    return out


def _integer_rows(f: SuperMap, augment: bool) -> List[Row]:
    """The rows of f, or of [f | id] when ``augment``, over Z[t, 1/t]: a
    row holding fractions is scaled by the product of its distinct
    denominators, its identity entry included."""
    n = f.domain.dim
    rows: List[Dict[int, RatFunc]] = [{} for _ in range(f.codomain.dim)]
    for (row, col), value in f.entries.items():
        rows[row][col] = value
    out: List[Row] = []
    for r, row in enumerate(rows):
        dens: List[QuarterLaurent] = []
        for value in row.values():
            if value.den is not ONE and value.den not in dens:
                dens.append(value.den)
        scale = ONE
        for den in dens:
            scale = scale * den
        if dens:
            poly = {c: (v.num * exact_div(scale, v.den)).terms
                    for c, v in row.items()}
        else:
            poly = {c: v.num.terms for c, v in row.items()}
        if augment:
            poly[n + r] = scale.terms
        if poly:
            out.append(poly)
    return out


def _combine(p: Terms, row: Row, a: Terms, pivot_row: Row, col: int) -> Row:
    """p*row - a*pivot_row, where p and a are the two rows' entries in
    column ``col``, divided by the integer content of its coefficients.
    The arguments are left unchanged."""
    minus_a = {e: -c for e, c in a.items()}
    sums: Row = {}
    for c, terms in row.items():
        if c != col:
            _add_product(sums.setdefault(c, {}), p, terms)
    for c, terms in pivot_row.items():
        if c != col:
            _add_product(sums.setdefault(c, {}), minus_a, terms)
    out: Row = {}
    for c, terms in sums.items():
        terms = {e: v for e, v in terms.items() if v}
        if terms:
            out[c] = terms
    content = gcd(*(v for terms in out.values() for v in terms.values()))
    if content > 1:
        out = {c: {e: v // content for e, v in terms.items()}
               for c, terms in out.items()}
    return out


def _eliminate(rows: List[Row], columns: int) -> List[Tuple[int, Row]]:
    """The forward sweep over the first ``columns`` columns, left to right:
    of the remaining rows with an entry in the column, the first with the
    fewest terms there is the pivot row, and :func:`_combine` clears the
    column from the others.  Returns the (column, pivot row) pairs."""
    pivots: List[Tuple[int, Row]] = []
    for col in range(columns):
        best = -1
        for index, row in enumerate(rows):
            entry = row.get(col)
            if entry is not None and (best < 0
                                      or len(entry) < len(rows[best][col])):
                best = index
        if best < 0:
            continue
        pivot_row = rows.pop(best)
        p = pivot_row[col]
        reduced: List[Row] = []
        for row in rows:
            a = row.get(col)
            if a is not None:
                row = _combine(p, row, a, pivot_row, col)
            if row:
                reduced.append(row)
        rows = reduced
        pivots.append((col, pivot_row))
    return pivots


def rank_over_fractions(f: SuperMap) -> int:
    """Exact rank: the number of pivots of the forward sweep."""
    return len(_eliminate(_integer_rows(f, False), f.domain.dim))


def _quotient(num: QuarterLaurent, den: QuarterLaurent) -> RatFunc:
    """num / den in lowest terms, without a gcd when den divides num."""
    try:
        return RatFunc.from_poly(exact_div(num, den))
    except ArithmeticError:
        return RatFunc(num, den)


def invert(f: SuperMap) -> SuperMap:
    """Exact inverse of a square map: the forward sweep on [f | id], each
    pivot column cleared from the pivot rows above it, last column first,
    and the division of each row by its pivot."""
    if f.domain.dim != f.codomain.dim:
        raise ShapeMismatchError("inverse of a non-square map")
    n = f.domain.dim
    # column n + r of row r holds the identity block
    pivots = _eliminate(_integer_rows(f, True), n)
    if len(pivots) < n:
        raise ArithmeticError("singular matrix")
    rows = [row for _, row in pivots]   # row k has its pivot in column k
    for k in range(n - 1, 0, -1):
        for j in range(k):
            a = rows[j].get(k)
            if a is not None:
                rows[j] = _combine(rows[k][k], rows[j], a, rows[k], k)
    entries: Dict[Entry, RatFunc] = {}
    for k, row in enumerate(rows):
        pivot = QuarterLaurent(row[k])
        for c, terms in row.items():
            if c >= n:
                entries[(k, c - n)] = _quotient(QuarterLaurent(terms), pivot)
    return SuperMap._derived(f.codomain, f.domain, entries, f.parity)
