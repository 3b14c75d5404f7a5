"""Shared randomized-value generators for the test suite (seeded, exact),
and the plain references that the package's evaluations are compared with."""

import argparse
import random
from functools import lru_cache
from itertools import product
from math import comb

from d21link import cli, tangle
from d21link.dubrovnik import DELTA, LinkGraph, TwoVarPoly
from d21link.ring import ZERO, NotLaurentInQ, QuarterLaurent, RatFunc
from d21link.ring import format_q_laurent, laurent_product
from d21link.representation import DIM
from d21link.superlinalg import Space, SuperMap


def column(op: SuperMap, col: int) -> dict:
    """``{row: entry}`` of the nonzero entries of one column of ``op``."""
    return {r: v for (r, c), v in op.entries.items() if c == col}


def random_quarter_laurent(rng: random.Random, max_terms: int = 4,
                           exponent_span: int = 8) -> QuarterLaurent:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponent = rng.randint(-exponent_span, exponent_span)
        terms[exponent] = rng.randint(-5, 5) * rng.randint(1, 4)
    return QuarterLaurent(terms)


def random_nonzero_quarter_laurent(rng: random.Random) -> QuarterLaurent:
    while True:
        poly = random_quarter_laurent(rng)
        if not poly.is_zero():
            return poly


def random_ratfunc(rng: random.Random) -> RatFunc:
    return RatFunc(random_quarter_laurent(rng),
                   random_nonzero_quarter_laurent(rng))


def random_even_map(rng: random.Random, space: Space,
                    density: float = 0.4) -> SuperMap:
    entries = {}
    for row in range(len(space)):
        for col in range(len(space)):
            if space[row] != space[col]:
                continue
            if rng.random() < density:
                coeff = rng.randint(-3, 3)
                if coeff:
                    entries[(row, col)] = QuarterLaurent.constant(coeff)
    return SuperMap(space, space, entries)


def random_homogeneous_map(rng: random.Random, space: Space,
                           parity: int, density: float = 0.4) -> SuperMap:
    entries = {}
    for row in range(len(space)):
        for col in range(len(space)):
            if (space[row] ^ space[col]) != parity:
                continue
            if rng.random() < density:
                coeff = rng.randint(-3, 3)
                if coeff:
                    entries[(row, col)] = QuarterLaurent.constant(coeff)
    return SuperMap(space, space, entries, parity)


def fraction_rank(op: SuperMap) -> int:
    """Rank by Gaussian elimination over the fraction field, every entry a
    reduced RatFunc and every step a division by the pivot: the reference
    for the division-free sweep of ``superlinalg``."""
    rows = [{} for _ in range(len(op.codomain))]
    for (row, col), value in op.entries.items():
        rows[row][col] = RatFunc(value)
    rank, zero = 0, RatFunc(ZERO)
    for col in range(len(op.domain)):
        index = next((i for i, row in enumerate(rows) if col in row), None)
        if index is None:
            continue
        pivot_row = rows.pop(index)
        rank += 1
        for row in rows:
            coeff = row.get(col)
            if coeff is None:
                continue
            factor = coeff * pivot_row[col].inverse()
            for c, v in pivot_row.items():
                acc = row.get(c, zero) - factor * v
                if acc.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = acc
    return rank


# non-units of the kinds the braiding's scalars have as denominators:
# integers, q - q^-1, and quantum integers, in t = q^(1/4)
DENOMINATORS = tuple(QuarterLaurent(terms) for terms in (
    {0: 2}, {0: 3}, {4: 1, -4: -1}, {0: 1, 8: 1}, {-8: 1, 0: 1, 8: 1}))


def random_sparse_map(rng: random.Random, domain: Space,
                      codomain: Space, density: float = 0.5) -> SuperMap:
    """An even map with random Laurent entries in the parity blocks; rows
    and columns may be empty."""
    entries = {}
    for row in range(len(codomain)):
        for col in range(len(domain)):
            if codomain[row] != domain[col]:
                continue
            if rng.random() < density:
                entries[(row, col)] = random_quarter_laurent(rng, 3, 4)
    return SuperMap(domain, codomain, entries)


def reference_embed_at(f: SuperMap, left: int, right: int,
                       strand: Space) -> SuperMap:
    """id^{(x) left} (x) f (x) id^{(x) right} written out without identity
    maps: by the Koszul rule each basis vector v of the left power signs f
    by (-1)^{|f||v|}, and the right power signs nothing.  The parity of a
    tensor basis vector is the sum of its factors' parities.  The reference
    that ``superlinalg.embed_at`` must equal."""
    outer, inner = ([sum(factors) & 1 for factors in product(strand, repeat=k)]
                    for k in (left, right))
    width, rows, cols = len(inner), len(f.codomain), len(f.domain)
    out = {}
    for a, odd in enumerate(outer):
        for (r, c), value in f.entries.items():
            if odd and f.parity:
                value = -value
            row, col = (a * rows + r) * width, (a * cols + c) * width
            for b in range(width):
                out[(row + b, col + b)] = value
    domain, codomain = (tuple(a ^ p ^ b for a in outer for p in space
                              for b in inner)
                        for space in (f.domain, f.codomain))
    return SuperMap(domain, codomain, out, f.parity)


def plain_dubrovnik(graph, memo=None) -> TwoVarPoly:
    """The switching recursion with no Reidemeister simplification, memoized
    per evaluation on ``_analyze``'s signature: the reference that
    ``dubrovnik_poly`` must equal."""
    memo = {} if memo is None else memo
    ncomp, first_bad, writhe, signature = reference_analyze(graph)
    if signature in memo:
        return memo[signature]
    if first_bad is None:
        value = TwoVarPoly.monomial(writhe, 0)
        for _ in range(ncomp + graph.free_loops - 1):
            value = value * DELTA
    else:
        switched = plain_dubrovnik(graph.switched(first_bad), memo)
        correction = TwoVarPoly.monomial(0, 1) * (
            plain_dubrovnik(graph.smoothed(first_bad, "vertical"), memo)
            - plain_dubrovnik(graph.smoothed(first_bad, "turnback"), memo))
        value = (switched - correction if graph.over_diag[first_bad] == 1
                 else switched + correction)
    memo[signature] = value
    return value


# The per-diagram front end of the skein oracle as it was written first:
# the references that ``braid_closure_graph``, ``LinkGraph.validate``,
# ``_simplify``, ``_analyze`` and ``specialize`` must match exactly.

_PORT_POS = {0: (-1, -1), 1: (1, -1), 2: (1, 1), 3: (-1, 1)}
_STRAIGHT = ((0, 2), (1, 3))


def reference_sign(over_slot, under_slot):
    """Sign of a crossing whose strands enter at the given slots, from the
    cross product of the two strands' directions in the crossing box."""
    (ox0, oy0), (ox1, oy1) = _PORT_POS[over_slot], _PORT_POS[over_slot ^ 2]
    (ux0, uy0), (ux1, uy1) = _PORT_POS[under_slot], _PORT_POS[under_slot ^ 2]
    return 1 if (ox1 - ox0) * (uy1 - uy0) - (oy1 - oy0) * (ux1 - ux0) > 0 else -1


def reference_validate(graph):
    ports = {4 * cid + slot for cid in graph.over_diag for slot in range(4)}
    if set(graph.partner) != ports:
        raise ValueError("edge matching does not cover the crossing ports")
    for port, other in graph.partner.items():
        if other == port or graph.partner.get(other) != port:
            raise ValueError("edge matching is not a fixed-point-free involution")


def reference_closure_graph(word):
    graph = LinkGraph()
    ends = {s: None for s in range(1, word.strands + 1)}
    first = dict(ends)

    def feed(strand, port):
        if ends[strand] is None:
            first[strand] = port
        else:
            graph.partner[ends[strand]] = port
            graph.partner[port] = ends[strand]

    for cid, letter in enumerate(word.letters):
        k = abs(letter)
        graph.over_diag[cid] = 0 if letter > 0 else 1
        feed(k, 4 * cid + 0)
        feed(k + 1, 4 * cid + 1)
        ends[k] = 4 * cid + 3
        ends[k + 1] = 4 * cid + 2
    for strand in range(1, word.strands + 1):
        if ends[strand] is None:
            graph.free_loops += 1
        else:
            graph.partner[ends[strand]] = first[strand]
            graph.partner[first[strand]] = ends[strand]
    reference_validate(graph)
    return graph


def reference_analyze(graph):
    covered = set()
    first_bad = None
    seen_first = {}
    relabel = {}
    passes = {}
    components = []
    for start in sorted(graph.partner):
        if start in covered:
            continue
        comp_index = len(components)
        steps = []
        current = start
        while True:
            cid, slot = divmod(current, 4)
            exit_port = current ^ 2
            covered.add(current)
            covered.add(exit_port)
            if cid not in relabel:
                relabel[cid] = len(relabel)
            over = (slot & 1) == graph.over_diag[cid]
            if cid not in seen_first:
                seen_first[cid] = over
                if not over and first_bad is None:
                    first_bad = cid
            passes.setdefault(cid, {})[slot & 1] = (slot, comp_index)
            steps.append((relabel[cid], slot))
            nxt = graph.partner[exit_port]
            if nxt == start:
                break
            current = nxt
        components.append(tuple(steps))
    self_writhe = 0
    for cid, by_diag in passes.items():
        over_slot, over_comp = by_diag[graph.over_diag[cid]]
        under_slot, under_comp = by_diag[graph.over_diag[cid] ^ 1]
        if over_comp != under_comp:
            continue
        self_writhe += reference_sign(over_slot, under_slot)
    types = tuple(graph.over_diag[cid]
                  for cid, _ in sorted(relabel.items(), key=lambda kv: kv[1]))
    signature = (tuple(components), types, graph.free_loops)
    return len(components), first_bad, self_writhe, signature


def _remove(graph, cid, pairs):
    del graph.over_diag[cid]
    for s1, s2 in pairs:
        p1, p2 = 4 * cid + s1, 4 * cid + s2
        end1 = graph.partner.pop(p1)
        if end1 == p2:
            graph.partner.pop(p2)
            graph.free_loops += 1
            continue
        end2 = graph.partner.pop(p2)
        graph.partner[end1] = end2
        graph.partner[end2] = end1


def reference_simplify(graph, stats=None):
    partner, over_diag = graph.partner, graph.over_diag
    shift, moved = 0, True
    while moved:
        moved = False
        for cid in list(over_diag):
            diag = over_diag.get(cid)
            if diag is None:
                continue
            base = 4 * cid
            for s in range(4):
                end = partner[base + s]
                other, t = end >> 2, end & 3
                if other == cid:
                    if t != (s + 1) & 3:
                        continue
                    over, under = (s + 2) & 3, t
                    if (over & 1) != diag:
                        over, under = under, over
                    shift += reference_sign(over, under)
                    _remove(graph, cid, _STRAIGHT)
                    if stats is not None:
                        stats["curls_removed"] += 1
                elif (partner[base + ((s - 1) & 3)] == 4 * other + ((t + 1) & 3)
                      and ((s & 1) == diag) == ((t & 1) == over_diag[other])):
                    _remove(graph, cid, _STRAIGHT)
                    _remove(graph, other, _STRAIGHT)
                    if stats is not None:
                        stats["bigons_removed"] += 1
                else:
                    continue
                moved = True
                break
    return shift


def _reference_divide_by_z(terms):
    rest = {exp: coeff for exp, coeff in terms.items() if coeff}
    low, out = min(rest, default=0), {}
    while rest:
        top = max(rest)
        if top - 2 < low:
            raise NotLaurentInQ("z-denominator does not cancel",
                                format_q_laurent(rest))
        out[top - 1] = coeff = rest.pop(top)
        rest[top - 2] = rest.get(top - 2, 0) + coeff
        if not rest[top - 2]:
            del rest[top - 2]
    return out


def reference_specialize(poly):
    shift = max([0] + [-z_exp for _, z_exp in poly.terms])
    total = {}
    for (a_exp, z_exp), coeff in poly.terms.items():
        n = z_exp + shift
        for r in range(n + 1):
            exp = n - 2 * r - a_exp
            sign = -1 if (a_exp + r) % 2 else 1
            total[exp] = total.get(exp, 0) + sign * comb(n, r) * coeff
    for _ in range(shift):
        total = _reference_divide_by_z(total)
    return {exp: coeff for exp, coeff in total.items() if coeff}


def torus_closed_form(k):
    """q^k + (-q)^k + 2 (-q^-1)^k: the eigenvalues q, -q, -q^-1 of the
    braiding with quantum traces 1, 1, 2 (Rosso-Jones, J. Knot Theory
    Ramif. 2 (1993)); for k < 0 it is the mirror of T(2, -k)."""
    terms = {}
    for exp, coeff in ((k, 1), (k, (-1) ** k), (-k, 2 * (-1) ** k)):
        terms[exp] = terms.get(exp, 0) + coeff
    return {e: c for e, c in terms.items() if c}


# -- the quantum trace over all 6^n columns -------------------------------
#
# A Laurent polynomial sum(c_e q^e) is held as the single int
# sum(c_e << bits * (e + shift)), i.e. its value at q = 2**bits after
# multiplying by q**shift, so one big-int multiply does a whole polynomial
# product.  Evaluating at 2**bits is a ring map, so sums and products of
# packed ints are exact; they decode uniquely while every coefficient lies
# within +-(2**(bits - 1) - 1).  ``packing_bits`` proves that bound for a
# whole trace: no state entry, and no sum of them, has an L1 norm above
# the L1 norm of the start amplitudes times, for each letter, the largest
# column L1 sum of its table.


def pack(terms, bits, shift):
    return sum(coeff << bits * (exp + shift) for exp, coeff in terms.items())


def decode(packed, bits, shift, digits):
    """``{q_exponent: coefficient}`` of ``packed`` read as ``digits`` signed
    base-2**bits digits; raises :class:`OverflowError` if they do not pack
    back to ``packed`` (a coefficient or an exponent outside its bound)."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    terms = {}
    rest = packed
    for exp in range(-shift, digits - shift):
        digit = ((rest + half) & mask) - half
        if digit:
            terms[exp] = digit
        rest = (rest - digit) >> bits
    if pack(terms, bits, shift) != packed:
        raise OverflowError(
            f"packed value does not fit {digits} digits of {bits} bits")
    return terms


def l1(terms):
    return sum(abs(coeff) for coeff in terms.values())


def event_table(kind):
    """The full ``(width, table)`` of the event map ``kind``, as
    ``tangle._columns`` gives it, from ``tangle.duality_maps()`` and
    ``tangle.braiding()`` at each call, so that maps patched into
    ``tangle`` reach it."""
    if kind in ("cup", "cap"):
        return tangle._columns(tangle.duality_maps()[1 if kind == "cup" else 2])
    bundle = tangle.braiding()
    return tangle._columns(bundle.c if kind == "pos" else bundle.c_inv)


def pivotal_weights():
    """Per basis vector r, the pivotal weight p(r): cup * cap of the
    strand pair (l, r) closing it, read as :func:`event_table` reads."""
    (_, cups), (_, caps) = event_table("cup"), event_table("cap")
    weights = [None] * DIM
    for (l, r), cup_coeff in cups[()]:
        (((), cap_coeff),) = caps[l, r]
        weights[r] = laurent_product(cup_coeff, cap_coeff)
    return tuple(weights)


@lru_cache(maxsize=None)
def column_l1(kind):
    """Largest L1 sum of one table column (all rows of one window)."""
    _, table = event_table(kind)
    return max(sum(l1(coeff) for _, coeff in rows) for rows in table.values())


def packing_bits(start_l1, kinds):
    bound = start_l1
    for kind in kinds:
        bound *= column_l1(kind)
    return bound.bit_length() + 2


def exponent_range(polys):
    """``(shift, span)`` making every exponent of ``polys`` land in 0..span."""
    exponents = [exp for poly in polys for exp in poly]
    return -min(exponents), max(exponents) - min(exponents)


@lru_cache(maxsize=256)
def letter_rows(kind, bits, unit):
    """``(shift, span, rows)`` of a crossing, each coefficient of its table
    packed at ``bits`` after shifting by ``shift``: ``rows[w]`` lists
    ``((w' - w) * unit, coefficient)`` for the two-strand window ``w = 6 *
    left + right`` going to ``w'``, whose right digit has place value
    ``unit`` in a row."""
    _, table = event_table(kind)
    shift, span = exponent_range(coeff for entries in table.values()
                                 for _, coeff in entries)
    rows = [()] * (DIM * DIM)
    for (a, b), entries in table.items():
        window = a * DIM + b
        rows[window] = tuple(((c * DIM + d - window) * unit,
                              pack(coeff, bits, shift))
                             for (c, d), coeff in entries)
    return shift, span, rows


def apply_letter(state, unit, rows):
    """A crossing applied to every nonzero state ``{row: amplitude}``, a
    row one base-6 digit per strand; it acts on the two digits whose right
    one has place value ``unit``."""
    new_state = {}
    get = new_state.get
    windows = DIM * DIM
    for row, amp in state.items():
        for delta, coeff in rows[row // unit % windows]:
            target = row + delta
            new_state[target] = get(target, 0) + amp * coeff
    return {row: amp for row, amp in new_state.items() if amp}


def reference_trace(word):
    """``{q_exponent: coefficient}`` of the quantum trace sum_v p(v)
    <v|B|v> of ``word`` as written, over all 6 ** n start columns v: each
    is evolved alone from the state ``{v: p(v)}`` through the full crossing
    tables, and its amplitude at v is summed.  The reference for the trace
    in the E_1-cohomology, which keeps only the 2 ** n columns in
    {v4, v5}^n."""
    n = word.strands
    weights = pivotal_weights()
    kinds = ["pos" if letter > 0 else "neg" for letter in word.letters]
    # a start amplitude is the product of the pivotal weights of the
    # column's digits; ``bits`` is proven for any sum of final ones
    bits = packing_bits(sum(l1(weight) for weight in weights) ** n, kinds)
    w_shift, w_span = exponent_range(weights)
    steps, shift, span = [], n * w_shift, n * w_span
    for letter, kind in zip(word.letters, kinds):
        unit = DIM ** (n - abs(letter) - 1)
        kind_shift, kind_span, rows = letter_rows(kind, bits, unit)
        shift, span = shift + kind_shift, span + kind_span
        steps.append((unit, rows))
    packed = [pack(weight, bits, w_shift) for weight in weights]
    starts = [1]
    for _ in range(n):
        starts = [amp * factor for amp in starts for factor in packed]
    total = 0
    for column, amp in enumerate(starts):
        state = {column: amp}
        for step in steps:
            state = apply_letter(state, *step)
        total += state.get(column, 0)
    return decode(total, bits, shift, span + 1)


def reference_parser() -> argparse.ArgumentParser:
    """The command line as an ``argparse`` parser: the reference that
    :func:`d21link.cli.parse_args` is compared against, field for field and
    error message for error message (its help layout and its prefix
    abbreviations aside)."""
    parser = argparse.ArgumentParser(
        prog="d21link",
        description="Exact framed-link invariants from a six-dimensional "
                    "quantum supermodule, with a Dubrovnik skein oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="evaluate the link invariant")
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("--braid", help="braid word, e.g. '2: 1 1 1'")
    group.add_argument("--sliced", help="file of sliced-diagram events")
    p_inv.add_argument("--json", action="store_true", help="machine output")
    p_inv.set_defaults(func=cli._cmd_invariant)

    p_dub = sub.add_parser("dubrovnik", help="run the skein oracle")
    p_dub.add_argument("--braid", required=True, help="braid word")
    p_dub.add_argument("--specialize", action="store_true",
                       help="substitute a=-1/q, z=q-1/q")
    p_dub.add_argument("--json", action="store_true", help="machine output")
    p_dub.set_defaults(func=cli._cmd_dubrovnik)

    p_br = sub.add_parser("braiding", help="dump the braiding matrix")
    p_br.add_argument("--format", choices=("text", "json", "csv"),
                      default="text")
    p_br.add_argument("--split", action="store_true",
                      help="emit the parity blocks c0/c1 instead of the "
                           "full 36x36 matrix")
    p_br.set_defaults(func=cli._cmd_braiding)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all",
                       choices=("relations", "rmatrix", "category", "skein",
                                "all"))
    p_ver.add_argument("--json", action="store_true", help="machine output")
    p_ver.add_argument("-v", "--verbose", action="store_true",
                       help="stream per-check progress")
    p_ver.set_defaults(func=cli._cmd_verify)
    return parser
