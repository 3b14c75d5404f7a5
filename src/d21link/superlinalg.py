"""Parity-graded free modules and graded linear maps.

A :class:`SuperSpace` is an ordered list of parities, one per basis vector;
the order is significant because it fixes all matrix conventions.  A
:class:`SuperMap` is a homogeneous linear map stored sparsely as
``{(row, col): coefficient}`` with the column convention: ``entry[r][c]`` is
the coefficient of codomain basis vector ``r`` in the image of domain basis
vector ``c``.  Every map carries its parity (0 even, 1 odd) and construction
checks that nonzero entries sit only in the parity blocks the declared
parity allows; the braiding/tangle pipeline uses even maps exclusively.

Koszul signs are concentrated in a single audited code path,
:func:`tensor_map`, which implements (f (x) g)(v (x) w) =
(-1)^{|g||v|} f(v) (x) g(w) on lexicographically ordered tensor bases.

Exact linear algebra runs one Gaussian elimination, the forward sweep of
:func:`_forward_sweep`: :func:`rank_over_fractions` counts its pivots and
:func:`invert` adds back substitution on the identity-augmented rows.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .ring import RF_ONE, RF_ZERO, RatFunc

Entry = Tuple[int, int]


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
        return SuperMap(self.domain, self.codomain, merged, parity)

    def __neg__(self) -> "SuperMap":
        return SuperMap(self.domain, self.codomain,
                        {k: -v for k, v in self.entries.items()}, self.parity)

    def __sub__(self, other: "SuperMap") -> "SuperMap":
        return self + (-other)

    def scale(self, scalar: RatFunc) -> "SuperMap":
        if scalar.is_zero():
            return SuperMap.zero(self.domain, self.codomain, self.parity)
        return SuperMap(self.domain, self.codomain,
                        {k: v * scalar for k, v in self.entries.items()},
                        self.parity)

    def __repr__(self):
        return (f"SuperMap({self.codomain.dim}x{self.domain.dim}, "
                f"{len(self.entries)} entries, parity {self.parity})")


def compose(f: SuperMap, g: SuperMap) -> SuperMap:
    """Matrix product f o g (g acts first)."""
    if g.codomain != f.domain:
        raise ShapeMismatchError("compose: codomain of g != domain of f")
    by_col: Dict[int, List[Tuple[int, RatFunc]]] = {}
    for (row, col), value in f.entries.items():
        by_col.setdefault(col, []).append((row, value))
    out: Dict[Entry, RatFunc] = {}
    for (mid, col), gval in g.entries.items():
        for row, fval in by_col.get(mid, ()):
            key = (row, col)
            term = fval * gval
            acc = out.get(key)
            total = term if acc is None else acc + term
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return SuperMap(g.domain, f.codomain, out, (f.parity + g.parity) & 1)


def tensor_map(f: SuperMap, g: SuperMap) -> SuperMap:
    """Graded tensor product of maps on lexicographic tensor bases.

    The Koszul rule (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w) is
    applied per column; |v| is the parity of the first-factor domain basis
    vector, so odd operators in the second slot pick up signs against odd
    first-slot inputs.
    """
    dom = f.domain.tensor(g.domain)
    cod = f.codomain.tensor(g.codomain)
    gdim_dom = g.domain.dim
    gdim_cod = g.codomain.dim
    out: Dict[Entry, RatFunc] = {}
    for (rf, cf), fval in f.entries.items():
        sign = -1 if (g.parity and f.domain.parity(cf)) else 1
        for (rg, cg), gval in g.entries.items():
            value = fval * gval
            if sign < 0:
                value = -value
            out[(rf * gdim_cod + rg, cf * gdim_dom + cg)] = value
    return SuperMap(dom, cod, out, (f.parity + g.parity) & 1)


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


def _subtract(row: Dict[int, RatFunc], factor: RatFunc,
              other: Dict[int, RatFunc]) -> None:
    """row -= factor * other on sparse rows, in place."""
    for c, v in other.items():
        acc = row.get(c, RF_ZERO) - factor * v
        if acc.is_zero():
            row.pop(c, None)
        else:
            row[c] = acc


def _forward_sweep(rows: List[Dict[int, RatFunc]],
                   columns: int) -> List[Tuple[int, Dict[int, RatFunc]]]:
    """Gaussian forward elimination of sparse ``rows`` over the first
    ``columns`` columns, left to right: the first remaining row with an entry
    in the column is the pivot row, and ``coeff / pivot`` times it clears the
    entry from the rest.  Returns the (column, pivot row) pairs."""
    pivots = []
    for col in range(columns):
        for index, row in enumerate(rows):
            if col in row:
                break
        else:
            continue
        pivot_row = rows.pop(index)
        pivot_value = pivot_row[col]
        pivots.append((col, pivot_row))
        reduced: List[Dict[int, RatFunc]] = []
        for row in rows:
            coeff = row.get(col)
            if coeff is not None:
                _subtract(row, coeff / pivot_value, pivot_row)
            if row:
                reduced.append(row)
        rows = reduced
    return pivots


def rank_over_fractions(f: SuperMap) -> int:
    """Exact rank: the number of pivots of the forward sweep."""
    rows: List[Dict[int, RatFunc]] = [{} for _ in range(f.codomain.dim)]
    for (row, col), value in f.entries.items():
        rows[row][col] = value
    return len(_forward_sweep(rows, f.domain.dim))


def invert(f: SuperMap) -> SuperMap:
    """Exact inverse of a square map: the forward sweep on [f | id], then
    back substitution and the scaling of each row by 1/pivot."""
    if f.domain.dim != f.codomain.dim:
        raise ShapeMismatchError("inverse of a non-square map")
    n = f.domain.dim
    # column n + r of row r holds the identity block
    rows: List[Dict[int, RatFunc]] = [{n + r: RF_ONE} for r in range(n)]
    for (row, col), value in f.entries.items():
        rows[row][col] = value
    pivots = _forward_sweep(rows, n)
    if len(pivots) < n:
        raise ArithmeticError("singular matrix")
    solved: Dict[int, Dict[int, RatFunc]] = {}
    for col, row in reversed(pivots):
        acc = {c - n: v for c, v in row.items() if c >= n}
        for c, coeff in row.items():
            if col < c < n:
                _subtract(acc, coeff, solved[c])
        inv_pivot = row[col].inverse()
        solved[col] = {k: v * inv_pivot for k, v in acc.items()}
    entries = {(r, c): v for r in range(n) for c, v in solved[r].items()}
    return SuperMap(f.codomain, f.domain, entries, f.parity)
