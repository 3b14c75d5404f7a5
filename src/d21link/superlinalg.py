"""Parity-graded free modules and graded linear maps.

A :class:`SuperSpace` is an ordered list of parities, one per basis vector;
the order is significant because it fixes all matrix conventions.  A
:class:`SuperMap` is a homogeneous linear map stored sparsely as
``{(row, col): coefficient}`` with the column convention: ``entry[r][c]`` is
the coefficient of codomain basis vector ``r`` in the image of domain basis
vector ``c``.  Every map carries its parity (0 even, 1 odd) and
``SuperMap(...)`` checks that nonzero entries sit only in the parity blocks
the declared parity allows; identities and the maps that :func:`compose`,
:func:`tensor_map`, :func:`embed_at`, :func:`invert`, ``+`` and ``scale``
build from checked maps are correct by construction and skip the check.
The braiding/tangle pipeline uses even maps exclusively.

Koszul signs are concentrated in :func:`tensor_map`, which implements
(f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w) on lexicographically
ordered tensor bases; :func:`embed_at` applies the same rule with identity
factors.

Every entry is a :class:`QuarterLaurent`, an integer Laurent polynomial
in t = q^{1/4}, and ``SuperMap(...)`` raises ``TypeError`` on any other
type.  Fractions occur only in scalars: ``scale`` by a :class:`RatFunc`
multiplies each entry by its numerator and divides it exactly by its
denominator, and raises :class:`NotLaurentInQ` where that division is
inexact.  :func:`compose` sums the entry products on their coefficient
dicts and builds each output entry once; :func:`tensor_map` takes an entry
met by a unit +-1, as in the identity factors of the coproduct, as it is
instead of multiplying.

Exact linear algebra runs one division-free elimination over Z[t, 1/t],
a fraction-free Gaussian elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22 (1968),
divides each new row exactly by the previous pivot; this sweep divides it
by the integer content of its coefficients instead).  :func:`_eliminate`
clears each pivot column from the other rows by
``row <- p*row - a*pivot_row``.  These combinations keep the rank, which
:func:`rank_over_fractions` counts as pivots, and they keep the inverse
when they act on whole rows of [f | id]: :func:`invert` also clears each
pivot column from the pivot rows above it, and divides each row by its
pivot exactly, the only divisions of the computation; it raises
``ArithmeticError`` when the inverse is not Laurent.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Mapping, Tuple

from .ring import ONE, ZERO, NotLaurentInQ, QuarterLaurent, RatFunc, exact_div

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
        out = SuperSpace.__new__(SuperSpace)     # the parities are 0/1 already
        out.parities = tuple(p ^ r for p in self.parities
                             for r in other.parities)
        return out

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
                 entries: Mapping[Entry, QuarterLaurent], parity: int = 0):
        parity &= 1
        clean: Dict[Entry, QuarterLaurent] = {}
        for (row, col), value in entries.items():
            if type(value) is not QuarterLaurent:
                raise TypeError(f"entry ({row},{col}) is a "
                                f"{type(value).__name__}, not a QuarterLaurent")
            if not value.terms:
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
                 entries: Dict[Entry, QuarterLaurent],
                 parity: int) -> "SuperMap":
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
        return cls._derived(space, space,
                            {(i, i): ONE for i in range(space.dim)}, 0)

    @classmethod
    def zero(cls, domain: SuperSpace, codomain: SuperSpace, parity: int = 0) -> "SuperMap":
        return cls(domain, codomain, {}, parity)

    def entry(self, row: int, col: int) -> QuarterLaurent:
        return self.entries.get((row, col), ZERO)

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
            if not total.terms:
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
        """Each entry times the scalar's numerator, divided exactly by its
        denominator; ``NotLaurentInQ`` when a division is inexact."""
        if scalar.is_zero():
            return SuperMap.zero(self.domain, self.codomain, self.parity)
        num, den = scalar.num, scalar.den
        entries = {k: v * num for k, v in self.entries.items()}
        if den is not ONE:
            try:
                entries = {k: exact_div(v, den) for k, v in entries.items()}
            except ArithmeticError:
                raise NotLaurentInQ("map entry not divisible by the scalar's "
                                    "denominator", den) from None
        return SuperMap._derived(self.domain, self.codomain, entries,
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
    """Matrix product f o g (g acts first): each output entry's products
    are summed on their coefficient dicts."""
    if g.codomain != f.domain:
        raise ShapeMismatchError("compose: codomain of g != domain of f")
    by_col: Dict[int, List[Tuple[int, Terms]]] = {}
    for (row, col), value in f.entries.items():
        by_col.setdefault(col, []).append((row, value.terms))
    sums: Dict[Entry, Terms] = {}
    for (mid, col), gval in g.entries.items():
        gterms = gval.terms
        for row, fterms in by_col.get(mid, ()):
            key = (row, col)
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = {}
            _add_product(acc, fterms, gterms)
    out: Dict[Entry, QuarterLaurent] = {}
    for key, terms in sums.items():
        value = _poly(terms)
        if value.terms:
            out[key] = value
    return SuperMap._derived(g.domain, f.codomain, out,
                             (f.parity + g.parity) & 1)


def _unit(value: QuarterLaurent) -> int:
    """+-1 when ``value`` is the constant +-1, else 0."""
    terms = value.terms
    if len(terms) == 1:
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
    out: Dict[Entry, QuarterLaurent] = {}
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
    entries: Dict[Entry, QuarterLaurent] = {}
    for i in range(m.dim):
        for j in range(n.dim):
            col = i * n.dim + j
            row = j * m.dim + i
            negative = m.parity(i) and n.parity(j)
            entries[(row, col)] = -ONE if negative else ONE
    return SuperMap(m.tensor(n), n.tensor(m), entries)


def embed_at(f: SuperMap, left: int, right: int, strand: SuperSpace) -> SuperMap:
    """id^{(x) left} (x) f (x) id^{(x) right} on powers of ``strand``, built
    without the identity maps: by the Koszul rule of :func:`tensor_map`,
    each basis vector v of the left power signs f by (-1)^{|f||v|}, and
    the right power signs nothing."""
    outer, inner = strand.tensor_power(left), strand.tensor_power(right)
    width, rows, cols = inner.dim, f.codomain.dim, f.domain.dim
    out: Dict[Entry, QuarterLaurent] = {}
    for a, odd in enumerate(outer.parities):
        for (r, c), value in f.entries.items():
            if odd and f.parity:
                value = -value
            row, col = (a * rows + r) * width, (a * cols + c) * width
            for b in range(width):
                out[(row + b, col + b)] = value
    return SuperMap._derived(outer.tensor(f.domain).tensor(inner),
                             outer.tensor(f.codomain).tensor(inner), out,
                             f.parity)


def _integer_rows(f: SuperMap, augment: bool) -> List[Row]:
    """The nonzero rows of f, or the rows of [f | id] when ``augment``, as
    the coefficient dicts of their entries."""
    n = f.domain.dim
    rows: List[Row] = [{} for _ in range(f.codomain.dim)]
    for (row, col), value in f.entries.items():
        rows[row][col] = value.terms
    if augment:
        for r, row in enumerate(rows):
            row[n + r] = ONE.terms
    return [row for row in rows if row]


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


def invert(f: SuperMap) -> SuperMap:
    """Exact inverse of a square map: the forward sweep on [f | id], each
    pivot column cleared from the pivot rows above it, last column first,
    and the exact division of each row by its pivot; ``ArithmeticError``
    when f is singular or its inverse is not Laurent."""
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
    entries: Dict[Entry, QuarterLaurent] = {}
    for k, row in enumerate(rows):
        pivot = QuarterLaurent(row[k])
        for c, terms in row.items():
            if c >= n:
                entries[(k, c - n)] = exact_div(QuarterLaurent(terms), pivot)
    return SuperMap._derived(f.codomain, f.domain, entries, f.parity)
