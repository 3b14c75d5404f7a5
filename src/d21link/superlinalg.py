"""Parity-graded free modules and graded linear maps.

A graded space is a plain tuple of parities, one per basis vector (0
even, 1 odd); its length is the dimension, and the order fixes all
matrix conventions.  :func:`tensor` lists the parities of the
lexicographic basis of a tensor product, :func:`tensor_power` of a
power, and ``TRIVIAL`` is the ground ring.  A :class:`SuperMap` is a
homogeneous linear map stored sparsely as
``{(row, col): coefficient}`` with the column convention: ``entry[r][c]`` is
the coefficient of codomain basis vector ``r`` in the image of domain basis
vector ``c``.  Every map carries its parity (0 even, 1 odd) and
``SuperMap(...)`` checks that every entry lies inside its spaces and that
nonzero entries sit only in the parity blocks the declared parity allows;
identities and the maps that :func:`compose`, :func:`tensor_map`,
:func:`embed_at`, :func:`invert`, ``+`` and ``scale`` build from checked
maps are correct by construction and skip the check.
The braiding/tangle pipeline uses even maps exclusively.

Koszul signs are concentrated in :func:`tensor_map`, which implements
(f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w) on lexicographically
ordered tensor bases; :func:`embed_at` is f tensored with identities on
both sides.

Every entry is a :class:`Laurent`, an integer Laurent polynomial in
q, and ``SuperMap(...)`` raises ``TypeError`` on any other type.
``scale(num, den)`` takes two Laurent scalars: it
multiplies each entry by ``num`` and divides it exactly by ``den`` (1 by
default), and raises :class:`NotLaurentInQ` where that division is
inexact.  So a fraction, such as the inverse 1/phi_i of a pairing
constant, scales a map by its numerator and denominator, and no entry is
ever a fraction.  :func:`compose` sums the entry products on
their coefficient dicts with :func:`d21link.ring.add_product` and builds
each output entry once; :func:`tensor_map` takes an entry met by a unit
+-1, as in the identity factors of the coproduct and of :func:`embed_at`,
as it is instead of multiplying.

Exact linear algebra runs one division-free elimination over Z[q, 1/q],
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

from collections.abc import Mapping
from functools import lru_cache
from math import gcd

from .ring import (ONE, ZERO, NotLaurentInQ, Laurent, add_product,
                   exact_div, nonzero_terms)

Entry = tuple[int, int]
Terms = dict[int, int]      # a Laurent polynomial's {exponent: coefficient}
Row = dict[int, Terms]      # {column: nonzero polynomial} of one matrix row
Space = tuple[int, ...]     # the parity, 0 or 1, of each basis vector


class ShapeMismatchError(ValueError):
    """Operands have incompatible domains/codomains."""


TRIVIAL = (0,)      # the ground ring: one even basis vector


@lru_cache(maxsize=16)
def tensor(a: Space, b: Space) -> Space:
    """The parities of the lexicographic basis of a (x) b, kept for the 16
    pairs asked for last: tensor_map and embed_at ask for the same few."""
    return tuple(p ^ r for p in a for r in b)


def tensor_power(space: Space, count: int) -> Space:
    acc = TRIVIAL
    for _ in range(count):
        acc = tensor(acc, space)
    return acc


class SuperMap:
    __slots__ = ("domain", "codomain", "entries", "parity")

    def __init__(self, domain: Space, codomain: Space,
                 entries: Mapping[Entry, Laurent], parity: int = 0):
        parity &= 1
        clean: dict[Entry, Laurent] = {}
        for (row, col), value in entries.items():
            if type(value) is not Laurent:
                raise TypeError(f"entry ({row},{col}) is a "
                                f"{type(value).__name__}, not a Laurent")
            if not (0 <= row < len(codomain) and 0 <= col < len(domain)):
                raise ValueError(f"entry ({row},{col}) lies outside a "
                                 f"{len(codomain)}x{len(domain)} map")
            if not value.terms:
                continue
            if (codomain[row] ^ domain[col]) != parity:
                raise ValueError(
                    f"entry ({row},{col}) violates the parity-block invariant "
                    f"for a parity-{parity} map")
            clean[(row, col)] = value
        self.domain = domain
        self.codomain = codomain
        self.entries = clean
        self.parity = parity

    @classmethod
    def _derived(cls, domain: Space, codomain: Space,
                 entries: dict[Entry, Laurent],
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
    def identity(cls, space: Space) -> "SuperMap":
        return cls._derived(space, space,
                            {(i, i): ONE for i in range(len(space))}, 0)

    @classmethod
    def zero(cls, domain: Space, codomain: Space, parity: int = 0) -> "SuperMap":
        return cls(domain, codomain, {}, parity)

    def entry(self, row: int, col: int) -> Laurent:
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

    def scale(self, num: Laurent,
              den: Laurent = ONE) -> "SuperMap":
        """Each entry times ``num``, divided exactly by ``den``;
        ``NotLaurentInQ`` when a division is inexact."""
        if num.is_zero():
            return SuperMap.zero(self.domain, self.codomain, self.parity)
        entries = {k: v * num for k, v in self.entries.items()}
        if den is not ONE:
            try:
                entries = {k: exact_div(v, den) for k, v in entries.items()}
            except ArithmeticError:
                raise NotLaurentInQ("map entry not divisible by the "
                                    "denominator", den) from None
        return SuperMap._derived(self.domain, self.codomain, entries,
                                 self.parity)

    def __repr__(self):
        return (f"SuperMap({len(self.codomain)}x{len(self.domain)}, "
                f"{len(self.entries)} entries, parity {self.parity})")


def compose(f: SuperMap, g: SuperMap) -> SuperMap:
    """Matrix product f o g (g acts first): each output entry's products
    are summed on their coefficient dicts."""
    if g.codomain != f.domain:
        raise ShapeMismatchError("compose: codomain of g != domain of f")
    by_col: dict[int, list[tuple[int, Terms]]] = {}
    for (row, col), value in f.entries.items():
        by_col.setdefault(col, []).append((row, value.terms))
    sums: dict[Entry, Terms] = {}
    for (mid, col), gval in g.entries.items():
        gterms = gval.terms
        for row, fterms in by_col.get(mid, ()):
            key = (row, col)
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = {}
            add_product(acc, fterms, gterms)
    out: dict[Entry, Laurent] = {}
    for key, terms in nonzero_terms(sums).items():
        value = out[key] = Laurent.__new__(Laurent)
        value.terms = terms     # int coefficients, none zero
    return SuperMap._derived(g.domain, f.codomain, out,
                             (f.parity + g.parity) & 1)


def _unit(value: Laurent) -> int:
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
    dom = tensor(f.domain, g.domain)
    cod = tensor(f.codomain, g.codomain)
    gdim_dom = len(g.domain)
    gdim_cod = len(g.codomain)
    g_items = [(rg, cg, gval, _unit(gval))
               for (rg, cg), gval in g.entries.items()]
    out: dict[Entry, Laurent] = {}
    for (rf, cf), fval in f.entries.items():
        sign = -1 if (g.parity and f.domain[cf]) else 1
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


def volte(m: Space, n: Space) -> SuperMap:
    """The graded flip tau: m (x) n -> n (x) m, v (x) w -> (-1)^{|v||w|} w (x) v."""
    entries: dict[Entry, Laurent] = {}
    for i, p in enumerate(m):
        for j, r in enumerate(n):
            row, col = j * len(m) + i, i * len(n) + j
            entries[(row, col)] = -ONE if p and r else ONE
    return SuperMap(tensor(m, n), tensor(n, m), entries)


def embed_at(f: SuperMap, left: int, right: int, strand: Space) -> SuperMap:
    """id^{(x) left} (x) f (x) id^{(x) right} on powers of ``strand``."""
    return tensor_map(
        tensor_map(SuperMap.identity(tensor_power(strand, left)), f),
        SuperMap.identity(tensor_power(strand, right)))


def _integer_rows(f: SuperMap, augment: bool) -> list[Row]:
    """The nonzero rows of f, or the rows of [f | id] when ``augment``, as
    the coefficient dicts of their entries."""
    n = len(f.domain)
    rows: list[Row] = [{} for _ in range(len(f.codomain))]
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
            add_product(sums.setdefault(c, {}), p, terms)
    for c, terms in pivot_row.items():
        if c != col:
            add_product(sums.setdefault(c, {}), minus_a, terms)
    out = nonzero_terms(sums)
    content = gcd(*(v for terms in out.values() for v in terms.values()))
    if content > 1:
        out = {c: {e: v // content for e, v in terms.items()}
               for c, terms in out.items()}
    return out


def _eliminate(rows: list[Row], columns: int) -> list[tuple[int, Row]]:
    """The forward sweep over the first ``columns`` columns, left to right:
    of the remaining rows with an entry in the column, the first with the
    fewest terms there is the pivot row, and :func:`_combine` clears the
    column from the others.  Returns the (column, pivot row) pairs."""
    pivots: list[tuple[int, Row]] = []
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
        reduced: list[Row] = []
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
    return len(_eliminate(_integer_rows(f, False), len(f.domain)))


def invert(f: SuperMap) -> SuperMap:
    """Exact inverse of a square map: the forward sweep on [f | id], each
    pivot column cleared from the pivot rows above it, last column first,
    and the exact division of each row by its pivot; ``ArithmeticError``
    when f is singular or its inverse is not Laurent."""
    n = len(f.domain)
    if n != len(f.codomain):
        raise ShapeMismatchError("inverse of a non-square map")
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
    entries: dict[Entry, Laurent] = {}
    for k, row in enumerate(rows):
        pivot = Laurent(row[k])
        for c, terms in row.items():
            if c >= n:
                entries[(k, c - n)] = exact_div(Laurent(terms), pivot)
    return SuperMap._derived(f.codomain, f.domain, entries, f.parity)
