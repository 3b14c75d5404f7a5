import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from d21link.dubrovnik import braid_closure_graph, dubrovnik_poly, specialize
from d21link.ring import format_q_laurent, laurent_product
from d21link import tangle
from d21link.tangle import (BraidWord, DiagramError, SlicedDiagram,
                            SlicedEvent, TangleBudgetExceeded, TraceStats,
                            braid_closure_slices, evaluate_sliced, invariant,
                            parse_braid, parse_sliced_text, _cohomology,
                            _cyclically_reduced, _decode, _event_table, _pack,
                            _trace_weights, trace)
from helpers import torus_closed_form


def value_of(text):
    return invariant(parse_braid(text)).value_dict()


def clear_tangle_caches():
    for value in vars(tangle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@contextmanager
def replaced_tables(**tables):
    """``tangle._event_table`` answering ``tables[kind]`` for the kinds
    given and the true table otherwise, with every ``lru_cache`` of the
    module cleared on the way in and out: nothing derived from the true
    tables is reused inside, nor from the replaced ones after."""
    true_table = tangle._event_table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tangle, "_event_table", lambda kind: tables[kind]
                      if kind in tables else true_table(kind))
        clear_tangle_caches()
        try:
            yield
        finally:
            clear_tangle_caches()


def test_parse_braid():
    word = parse_braid("2: 1 1 1")
    assert word == BraidWord(2, (1, 1, 1))
    assert parse_braid("3: 1 -2 1 -2") == BraidWord(3, (1, -2, 1, -2))
    assert parse_braid("1:") == BraidWord(1, ())
    assert str(parse_braid("2: 1 -1")) == "2: 1 -1"


def test_parse_braid_rejects_bad_input():
    with pytest.raises(DiagramError):
        parse_braid("2: 3")
    with pytest.raises(DiagramError):
        parse_braid("2: 0")
    with pytest.raises(DiagramError):
        parse_braid("two: 1")
    with pytest.raises(DiagramError):
        parse_braid("0:")


def test_braid_closure_slices_structure():
    diagram = braid_closure_slices(parse_braid("2: 1 1"))
    kinds = [(e.kind, e.position) for e in diagram.events]
    assert kinds == [("cup", 1), ("cup", 2), ("pos", 3), ("pos", 3),
                     ("cap", 2), ("cap", 1)]
    assert diagram.peak_strands() == 4
    single = braid_closure_slices(parse_braid("1:"))
    assert [(e.kind, e.position) for e in single.events] == [("cup", 1), ("cap", 1)]


def test_sliced_diagram_validation():
    with pytest.raises(DiagramError):
        SlicedDiagram((SlicedEvent("cup", 1),))          # not closed
    with pytest.raises(DiagramError):
        SlicedDiagram((SlicedEvent("cap", 1),))          # cap on nothing
    with pytest.raises(DiagramError):
        SlicedDiagram((SlicedEvent("cup", 3),))          # position too far right
    with pytest.raises(DiagramError):
        SlicedDiagram((SlicedEvent("hug", 1),))          # unknown kind


def test_unknot_value():
    assert value_of("1:") == {0: 2}


def test_curl_values_both_signs():
    assert value_of("2: 1") == {-1: -2}
    assert value_of("2: -1") == {1: -2}


def test_kink_event_patterns():
    # positive kink on the far-left strand: the one-strand curl scalar
    # -q^{-1} times the loop value 2
    diagram = SlicedDiagram((SlicedEvent("cup", 1), SlicedEvent("cup", 2),
                             SlicedEvent("pos", 1), SlicedEvent("cap", 2),
                             SlicedEvent("cap", 1)))
    result = evaluate_sliced(diagram)
    assert result.value_dict() == {-1: -2}
    assert result.canonical() == "-2*q^-1"
    # crossing the two legs of the nested pair instead makes the opposite
    # kink on a circle split from the outer one: 2 * (2 * a^{-1})
    nested = SlicedDiagram((SlicedEvent("cup", 1), SlicedEvent("cup", 2),
                            SlicedEvent("pos", 2), SlicedEvent("cap", 2),
                            SlicedEvent("cap", 1)))
    assert evaluate_sliced(nested).value_dict() == {1: -4}


def test_two_component_unlink():
    assert value_of("2: 1 -1") == {0: 4}
    # zero-crossing two-circle diagram gives the same value
    assert value_of("2:") == {0: 4}


def test_hopf_and_trefoil_values():
    assert value_of("2: 1 1") == {-2: 2, 2: 2}
    assert value_of("2: 1 1 1") == {-3: -2}
    assert value_of("2: -1 -1 -1") == {3: -2}
    assert value_of("2: 1 1 1 1 1") == {-5: -2}
    assert value_of("3: 1 -2 1 -2") == {0: 2}


def test_mirror_symmetry():
    for text in ("2: 1 1", "2: 1 1 1", "3: 1 -2 1 -2", "2: 1", "3: 1 2"):
        word = parse_braid(text)
        mirrored = invariant(word.mirror()).value_dict()
        flipped = {-k: v for k, v in invariant(word).value_dict().items()}
        assert mirrored == flipped


def test_presentation_independence_extensive():
    groups = (
        ("2: 1 1", "2: 1 1 -1 1", "2: -1 1 1 1", "2: 1 1 1 -1"),
        ("2: 1 1 1", "2: 1 -1 1 1 1", "2: 1 1 1 1 -1"),
        ("3: 1 2 1 2", "3: 2 1 2 2", "3: 1 1 2 1"),
        ("4: 1 3", "4: 3 1"),
    )
    for group in groups:
        values = {invariant(parse_braid(t)).canonical() for t in group}
        assert len(values) == 1, (group, values)


def test_split_union_multiplicativity():
    hopf = value_of("2: 1 1")
    double = value_of("4: 1 1 3 3")
    # with loop value 2 the invariant of a crossing-disjoint union is the
    # plain product of the factors
    product = {}
    for e1, c1 in hopf.items():
        for e2, c2 in hopf.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    assert double == {k: v for k, v in product.items() if v}
    # a split extra circle doubles the value
    assert value_of("3: 1 1") == {k: 2 * v for k, v in hopf.items()}


def test_eval_result_stats():
    result = invariant(parse_braid("2: 1 1 1"))
    assert result.slices == 7
    assert result.peak_strands == 4
    assert result.peak_dimension == 6 ** 4
    # the 2 ** 2 columns in the E_1-cohomology, one state each
    assert result.peak_support == 4
    assert result.trace == TraceStats("2: 1 1 1", 2, 36, 4, 1, 4)
    assert result.canonical() == "-2*q^-3"
    assert invariant(parse_braid("3: 1 -2 1 -2")).peak_support == 8
    # (sigma_1 sigma_2 sigma_3)^2 closes to T(2, 4), traced as written
    torus = invariant(parse_braid("4: 1 2 3 1 2 3"))
    assert (torus.trace.braid, torus.slices, torus.peak_support) == \
        ("4: 1 2 3 1 2 3", 14, 16)
    # the reference trace over all 6 ** 4 columns, as written
    assert trace(parse_braid("2: 1 1 1")).peak_support == 88
    assert trace(parse_braid("4: 1 2 3 1 2 3")).peak_support == 12586
    # a word with inverse pairs, also across its ends, reports the stats of
    # its cyclic reduction, on as many strands as the word
    reduced = invariant(parse_braid("4: -1 1 2 3 -3 1 -2"))
    assert (reduced.canonical(), reduced.slices, reduced.peak_strands,
            reduced.peak_dimension, reduced.trace) == (
        "-8*q^-1", 9, 8, 6 ** 8, TraceStats("4: 1", 4, 6 ** 4, 16, 1, 16))


def test_trace_evaluates_one_column_per_swap_orbit():
    for n in range(1, 6):
        stats = trace(BraidWord(n, ())).trace
        # 4 ** n columns free of v4 and v5 are fixed by the swap
        assert (stats.strands, stats.columns, stats.columns_evaluated) == \
            (n, 6 ** n, (6 ** n + 4 ** n) // 2)
    assert trace(parse_braid("5:")).trace.blocks == 42
    assert evaluate_sliced(braid_closure_slices(parse_braid("2: 1"))).trace is None


def test_tangle_budget_is_checked_before_any_work():
    with pytest.raises(TangleBudgetExceeded):
        invariant(parse_braid("7:"))
    with pytest.raises(TangleBudgetExceeded):
        invariant(BraidWord(10 ** 8, ()))
    kink = braid_closure_slices(parse_braid("2: 1"))
    with pytest.raises(TangleBudgetExceeded):
        evaluate_sliced(kink, budget=3)
    assert evaluate_sliced(kink, budget=4).value_dict() == {-1: -2}
    assert invariant(parse_braid("2: 1"), budget=4).value_dict() == {-1: -2}


def test_parse_sliced_text_roundtrip(tmp_path):
    text = """
    # an unknot with a kink
    cup 1
    cup 2
    pos 1
    cap 2
    cap 1
    """
    diagram = parse_sliced_text(text)
    assert evaluate_sliced(diagram).value_dict() == {-1: -2}
    with pytest.raises(DiagramError):
        parse_sliced_text("cup one")
    with pytest.raises(DiagramError):
        parse_sliced_text("hug 1")
    # every position is an optional minus sign and ASCII digits
    for position in ("\u0661", "+1", "1_0", "1" * 5000):
        with pytest.raises(DiagramError, match=r"line 2: bad position"):
            parse_sliced_text(f"cup 1\ncap {position}\n")


def test_values_are_integer_laurent():
    for text in ("2: 1 1", "3: 1 -2 1 -2", "3: 1 2", "4: 1 -2 3"):
        terms = value_of(text)
        assert all(isinstance(v, int) for v in terms.values())
        assert format_q_laurent(terms)


def test_packed_coefficients_round_trip_at_their_bound():
    bits, shift, digits = 9, 4, 8
    top = (1 << (bits - 1)) - 1
    terms = {-4: top, -3: -top, -1: -1, 0: top, 3: -top}
    assert _decode(_pack(terms, bits, shift), bits, shift, digits) == terms
    assert _decode(_pack({-4: -top}, bits, shift), bits, shift, digits) == {-4: -top}
    assert _decode(0, bits, shift, digits) == {}


def test_decode_raises_when_the_digits_do_not_pack_back():
    bits, shift, digits = 9, 4, 8
    packed = _pack({-2: 5, 1: -7}, bits, shift)
    with pytest.raises(OverflowError):
        _decode(packed + (1 << bits * digits), bits, shift, digits)
    with pytest.raises(OverflowError):
        _decode(-packed << bits * digits, bits, shift, digits)


def test_pivotal_weights_need_cup_and_cap_to_pair_alike():
    loop = {}
    for weight in _trace_weights():
        for exp, coeff in weight.items():
            loop[exp] = loop.get(exp, 0) + coeff
    assert {e: c for e, c in loop.items() if c} == {0: 2}   # the unknot
    width, table = _event_table("cap")
    moved = dict(table)
    moved[(0, 2)] = moved.pop((0, 1))      # v1 capped with v3, not v2
    doubled = dict(table)
    doubled[(0, 1)] = doubled[(0, 1)] * 2
    for cap in (moved, doubled):
        with replaced_tables(cap=(width, cap)):
            with pytest.raises(ValueError, match="pair"):
                _trace_weights()


def test_swap_check_needs_symmetric_tables_and_weights():
    width, table = _event_table("pos")
    perturbed = dict(table)
    (row, coeff), *rest = perturbed[(3, 0)]              # v4 (x) v1
    perturbed[(3, 0)] = ((row, {e: 2 * c for e, c in coeff.items()}), *rest)
    with replaced_tables(pos=(width, perturbed)):
        with pytest.raises(ValueError, match="swap"):
            _trace_weights()
    width, caps = _event_table("cap")
    (pair,) = [pair for pair in caps if pair[1] == 3]    # the cap closing v4
    ((empty, coeff),) = caps[pair]
    negated = dict(caps)                                 # p(v4) != p(v5)
    negated[pair] = ((empty, {e: -c for e, c in coeff.items()}),)
    with replaced_tables(cap=(width, negated)):
        with pytest.raises(ValueError, match="swap"):
            _trace_weights()


def test_cohomology_guard_cuts_the_tables_down_to_v4_and_v5():
    basis, weights, tables = _cohomology()
    assert basis == (3, 4)                       # v4 and v5
    assert weights == ((1, 0), (1, 0))           # p(v4) = p(v5) = 1
    v44, v45, v54, v55 = (3, 3), (3, 4), (4, 3), (4, 4)
    # signed monomial permutations: -q^-1 on v4v4, v5v5 and -q across
    assert tables["pos"] == (2, {v44: ((v44, -1, -1),), v45: ((v54, -1, 1),),
                                 v54: ((v45, -1, 1),), v55: ((v55, -1, -1),)})
    # neg is pos at q -> q^-1
    assert tables["neg"] == (2, {v44: ((v44, -1, 1),), v45: ((v54, -1, -1),),
                                 v54: ((v45, -1, -1),), v55: ((v55, -1, 1),)})
    assert tables["cup"] == (0, {(): ((v45, -1, 1), (v54, -1, 1))})
    assert tables["cap"] == (2, {v45: (((), -1, -1),), v54: (((), -1, -1),)})


def scaled(kind, scale, window=None):
    """The table of ``kind`` with every entry, or those of one window,
    multiplied by the Laurent polynomial ``scale``."""
    width, table = _event_table(kind)
    return width, {key: tuple((row, laurent_product(coeff, scale))
                              for row, coeff in rows)
                   if window in (None, key) else rows
                   for key, rows in table.items()}


def test_cohomology_guard_needs_crossings_that_commute_with_delta_e1():
    for kind in ("pos", "neg"):
        with replaced_tables(**{kind: perturbed(kind, "doubled")}):
            with pytest.raises(ValueError, match=f"the {kind} crossing does "
                                                 f"not commute with Delta"):
                _cohomology()
            # both reduced paths stop at the guard
            with pytest.raises(ValueError, match="not commute"):
                invariant(parse_braid("2: 1 1"))
            with pytest.raises(ValueError, match="not commute"):
                evaluate_sliced(braid_closure_slices(parse_braid("2: 1 1")))


def test_cohomology_guard_needs_a_cap_that_kills_delta_e1():
    # <v1 v2| cap doubled alone: Delta(E_1)(v3 v2) reaches v1 v2 and v3 v6
    with replaced_tables(cap=scaled("cap", {0: 2}, window=(0, 1))):
        with pytest.raises(ValueError, match="the cap does not kill"):
            _cohomology()


def test_cohomology_guard_needs_tables_that_keep_the_h1_weight():
    for kind in ("pos", "neg"):
        # v1 v1 (H_1 weight 2) sent to v2 v1 (weight 0)
        with replaced_tables(**{kind: perturbed(kind, "moved")}):
            with pytest.raises(ValueError, match="H_1 weight"):
                _cohomology()
    width, cups = _event_table("cup")
    moved = {(): tuple(((0, 0) if row == (0, 1) else row, coeff)
                       for row, coeff in cups[()])}      # v1 v2 -> v1 v1
    with replaced_tables(cup=(width, moved)):
        with pytest.raises(ValueError, match="H_1 weight"):
            _cohomology()


def test_cohomology_guard_needs_pivotal_weights_of_the_supertrace_form():
    # p -> -p and p -> q p: the cap still kills Delta(E_1), cup and cap
    # still pair alike, and the swap and every crossing keep the weights
    for scale in ({0: -1}, {1: 1}):
        with replaced_tables(cap=scaled("cap", scale)):
            _trace_weights()
            with pytest.raises(ValueError, match="pivotal weight is not"):
                _cohomology()


def test_torus_links_match_the_closed_form():
    for k in range(-40, 41):
        word = BraidWord(2, (1 if k > 0 else -1,) * abs(k))
        assert invariant(word).value_dict() == torus_closed_form(k), k


def test_long_and_wide_words_take_milliseconds():
    # 14.2 s and 9.1 s through the 6 ** n trace; 2 ** n columns in the
    # E_1-cohomology
    for word, value in ((BraidWord(2, (1,) * 200), torus_closed_form(200)),
                        (BraidWord(5, (1, -2, 3, -4) * 3), {0: 2})):
        assert invariant(word).value_dict() == value
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            invariant(word)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, (str(word), best)


def test_five_strand_mixed_word_runs_in_small_memory():
    pytest.importorskip("resource")     # the child reads its own peak RSS
    src = Path(__file__).parents[1] / "src"
    code = (
        "import json, resource\n"
        "from d21link.tangle import trace, parse_braid\n"
        "result = trace(parse_braid('5: 1 -2 3 -4 1 -2'))\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([result.canonical(), result.peak_support,\n"
        "                  result.trace.peak_block_support, rss]))")
    # A process inherits the peak RSS of the one it was spawned from, which
    # would count this test run's; a bare interpreter in between spawns the
    # measured child at about 10 MB instead.
    launcher = ("import subprocess, sys\n"
                "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", launcher, code], env=env,
                          check=True, capture_output=True, encoding="utf-8")
    value, peak_support, block_support, rss = json.loads(done.stdout)
    assert (value, peak_support) == ("2", 245431)
    assert block_support == 11415   # 101,952 with one block per multiplicity
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    megabytes = rss / 2 ** 20 if sys.platform == "darwin" else rss / 2 ** 10
    assert megabytes < 80     # all 7776 columns in one dict took 134 MB


@pytest.mark.parametrize("text", ["3: 1 2 1 2 1 2 1 2", "3: 1 2 1 2 1 2",
                                  "4: 1 -1 -3 -3 3 3", "5:"])
def test_trace_is_twice_the_specialized_skein_value(text):
    word = parse_braid(text)
    skein = specialize(dubrovnik_poly(braid_closure_graph(word)))
    assert invariant(word).value_dict() == {e: 2 * c for e, c in skein.items()}


def test_cyclic_free_reduction():
    assert _cyclically_reduced([1, 2, -2, -1, 3]) == [3]
    assert _cyclically_reduced([1, 2, -1]) == [2]          # across the ends
    assert _cyclically_reduced([-1, 2, 3, 1]) == [2, 3]
    assert _cyclically_reduced([1, 1, 2, 2]) == [1, 1, 2, 2]
    assert _cyclically_reduced([1, -1, 1]) == [1]
    assert _cyclically_reduced([2, -2, -1, 1]) == []


@pytest.mark.parametrize("text, braid, factor", [
    ("3: 1 -2", "1:", {0: 1}),                # -q^-1 times -q
    ("3: 2 1 -2", "1:", {-1: -2}),            # 2 -2 cancel once 1 went
    ("4: 1 1 3", "2: 1 1", {-1: -2}),         # strand 4 after a flip
    ("4: 1 2 1 3", "2: 1 1", {-2: 1}),
    ("4: 1 1 3 3", "2: 1 1", {-2: 2, 2: 2}),  # cut: Hopf / 2, then 2
    ("2: 1 1 1", "2: 1 1 1", {0: 1}),
    ("3: 1 -2 1 -2", "3: 1 -2 1 -2", {0: 1}),
    ("5: 1 -2 3 -4 1 -2 3 -4", "5: 1 -2 3 -4 1 -2 3 -4", {0: 1}),
    ("5: " + " ".join(["1 -2 3 -4"] * 3), "5: " + " ".join(["1 -2 3 -4"] * 3),
     {0: 1}),
    ("6: 1 -2 1 -2 4 -5 4 -5", "3: 1 -2 1 -2", {0: 2}),   # split union, cut
])
def test_invariant_scales_by_the_markov_and_cut_factors(text, braid, factor):
    # a Markov destabilisation, conjugation by the half twist, braid
    # relations and the cut of a connected sum or split union relate the
    # word's value to ``braid``'s by ``factor``; the invariant, which traces
    # the word as reduced, must meet each identity
    word = parse_braid(text)
    assert value_of(text) == laurent_product(factor, value_of(braid))
    if word.strands < 5:            # the 6 ** n reference trace stays small
        assert invariant(word).value == trace(word).value


def perturbed(kind, how):
    """The crossing table of ``kind`` with <v1 v1|c|v1 v1> made twice
    (``doubled``) or with v1 (x) v1 sent to v2 (x) v1 (``moved``)."""
    width, table = _event_table(kind)
    changed = dict(table)
    if how == "doubled":
        changed[(0, 0)] = tuple(
            (row, {e: 2 * c for e, c in coeff.items()} if row == (0, 0) else coeff)
            for row, coeff in table[(0, 0)])
    else:
        changed[(0, 0)] = tuple(((1, 0) if row == (0, 0) else row, coeff)
                                for row, coeff in table[(0, 0)])
    return width, changed


def left_partial_trace(letters):
    """The scalar lambda with sum_x p(x) <x d|A|x b> = lambda [b = d] for
    every pair of basis vectors b, d of the second strand, where A is the
    two-strand braid ``letters`` (each +-1) and p the pivotal weights: the
    factor of closing off A's first strand.  None unless that 6 x 6
    operator is a scalar.  Read through ``tangle._event_table``, so that
    :func:`replaced_tables` reaches it."""
    weights = tangle._trace_weights()
    tables = {1: tangle._event_table("pos")[1],
              -1: tangle._event_table("neg")[1]}
    operator = {}
    for x in range(6):
        for b in range(6):
            column = {(x, b): {0: 1}}
            for letter in letters:
                image = {}
                for window, amp in column.items():
                    for row, coeff in tables[letter].get(window, ()):
                        acc = image.setdefault(row, {})
                        for e, c in laurent_product(amp, coeff).items():
                            acc[e] = acc.get(e, 0) + c
                column = image
            for (y, d), amp in column.items():
                if y == x:
                    acc = operator.setdefault((d, b), {})
                    for e, c in laurent_product(weights[x], amp).items():
                        acc[e] = acc.get(e, 0) + c
    operator = {key: {e: c for e, c in poly.items() if c}
                for key, poly in operator.items()}
    scalar = operator.get((0, 0), {})
    if any(operator.get((d, b), {}) != (scalar if d == b else {})
           for d in range(6) for b in range(6)):
        return None
    return scalar


def test_markov_factors_come_from_the_braiding():
    # the loop value sum_v p(v), and the left partial trace of one crossing
    assert {letters: left_partial_trace(letters)
            for letters in ((), (1,), (-1,))} == \
        {(): {0: 2}, (1,): {-1: -1}, (-1,): {1: -1}}
    # closing a first strand that no crossing or one crossing meets scales
    # the invariant of the rest by that factor
    rng = random.Random(17)
    for strands in (1, 2, 3):
        rest = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(5 if strands > 1 else 0))
        shifted = tuple(k + 1 if k > 0 else k - 1 for k in rest)
        value = invariant(BraidWord(strands, rest)).value_dict()
        for first, factor in (((), {0: 2}), ((1,), {-1: -1}),
                              ((-1,), {1: -1})):
            word = BraidWord(strands + 1, first + shifted)
            assert invariant(word).value_dict() == \
                laurent_product(factor, value), word


def test_destabilisation_needs_a_scalar_left_partial_trace():
    # a table whose partial trace is not a scalar breaks the second Markov
    # move, and the guards refuse it before any word is traced
    word = parse_braid("3: 1 -2")
    for kind, sign in (("pos", 1), ("neg", -1)):
        with replaced_tables(**{kind: perturbed(kind, "doubled")}):
            assert left_partial_trace((sign,)) is None
            with pytest.raises(ValueError, match="does not commute"):
                invariant(word)
        with replaced_tables(**{kind: perturbed(kind, "moved")}):
            with pytest.raises(ValueError, match="cyclic"):
                left_partial_trace((sign,))
            with pytest.raises(ValueError, match="H_1 weight"):
                invariant(word)


@pytest.mark.parametrize("how", ["doubled", "moved"])
def test_cut_needs_a_scalar_left_partial_trace(how):
    # the connected sum of the closures of piece and 2 2 has the value of
    # piece closed off times that of the rest; with a perturbed table the
    # piece is no scalar and the invariant refuses the word
    for kind, sign in (("pos", 1), ("neg", -1)):
        piece = (sign, sign, sign)
        word = BraidWord(3, piece + (2 * sign, 2 * sign))
        with replaced_tables(**{kind: perturbed(kind, how)}):
            if how == "moved":
                # a table that does not keep the weights admits no cut
                with pytest.raises(ValueError, match="cyclic"):
                    left_partial_trace(piece)
                with pytest.raises(ValueError, match="H_1 weight"):
                    invariant(word)
                continue
            assert left_partial_trace(piece) is None
            with pytest.raises(ValueError, match="does not commute"):
                invariant(word)
        assert invariant(word).value_dict() == laurent_product(
            left_partial_trace(piece), value_of(f"2: {sign} {sign}"))
    assert left_partial_trace((1, 1, 1)) == {-3: -1}


def test_cut_pieces_stay_within_a_support_budget_the_whole_trace_exceeds():
    # a split union of two figure-eight closures: each piece is traced on
    # its 2 ** 3 columns, the whole on 2 ** 6, and the 6 ** 6 reference
    # trace holds more than 2000 states in one block
    word = parse_braid("6: 1 -2 1 -2 4 -5 4 -5")
    piece = invariant(parse_braid("3: 1 -2 1 -2"), support_budget=8)
    with pytest.raises(TangleBudgetExceeded):
        invariant(parse_braid("3: 1 -2 1 -2"), support_budget=7)
    result = invariant(word, support_budget=64)
    assert result.canonical() == "4"
    assert result.value_dict() == laurent_product(piece.value_dict(),
                                                  piece.value_dict())
    with pytest.raises(TangleBudgetExceeded):
        invariant(word, support_budget=63)
    with pytest.raises(TangleBudgetExceeded):
        trace(word, support_budget=2000)


# The ids keep the relation-move and search counts that these cases carried
# while invariant destabilised them; the cases now check values only.
@pytest.mark.parametrize("strands, braid, factor", [
    pytest.param(4, "2: 1 1 1 1", {-2: 1}, id="4-2: 1 1 1 1-factor0-2-7"),
    pytest.param(5, "2: 1 1 1 1 1", {-3: -1},
                 id="5-2: 1 1 1 1 1-factor1-4-18"),
    pytest.param(6, "2: 1 1 1 1 1 1", {-4: 1},
                 id="6-2: 1 1 1 1 1 1-factor2-6-45"),
])
def test_torus_braids_trace_at_two_strands(strands, braid, factor):
    # (sigma_1 ... sigma_(n-1))^2 closes to T(2, n): n - 2 positive
    # destabilisations, each for -q^-1, leave sigma_1^n
    text = f"{strands}: " + " ".join(map(str, list(range(1, strands)) * 2))
    word = parse_braid(text)
    expected = {e - (strands - 2): c * (-1) ** strands
                for e, c in torus_closed_form(strands).items()}
    assert invariant(word).value_dict() == expected
    assert expected == laurent_product(factor, value_of(braid))
    if strands == 4:                     # 0.1 s as written; 5 strands 1 s
        assert trace(word).value_dict() == expected


def test_support_budget_refuses_a_block_early():
    word = parse_braid("6: 1 -2 3 -4 5 1 -2 3 -4 5")
    with pytest.raises(TangleBudgetExceeded, match="support budget 5000$"):
        trace(word, support_budget=5000)
    with pytest.raises(TangleBudgetExceeded,
                       match="^64 states in one trace block exceed"):
        trace(parse_braid("3: 1 -2 1 -2"), support_budget=10)
    # as written, on one strand: its 4 fixed columns, then the paired one
    assert trace(parse_braid("1:"), support_budget=4).value_dict() == {0: 2}
    with pytest.raises(TangleBudgetExceeded):
        trace(parse_braid("1:"), support_budget=3)


def test_invariant_refuses_a_support_budget_below_its_2n_columns():
    # 2 ** n columns in the E_1-cohomology, one state each
    word = parse_braid("3: 1 -2 1 -2")
    assert invariant(word, support_budget=8).value_dict() == {0: 2}
    with pytest.raises(TangleBudgetExceeded,
                       match="^8 states in one trace block exceed the "
                             "support budget 7$"):
        invariant(word, support_budget=7)
    # the unknot 3: 1 -2 is traced on its three strands, as written
    assert invariant(parse_braid("3: 1 -2"), support_budget=8).value_dict() == {0: 2}
    with pytest.raises(TangleBudgetExceeded, match="^8 states"):
        invariant(parse_braid("3: 1 -2"), support_budget=7)
    # cyclic reduction keeps the strands: 3: 1 -1 still has 8 columns
    with pytest.raises(TangleBudgetExceeded, match="^8 states"):
        invariant(parse_braid("3: 1 -1"), support_budget=7)
    assert invariant(parse_braid("1:"), support_budget=2).value_dict() == {0: 2}
    with pytest.raises(TangleBudgetExceeded, match="^2 states"):
        invariant(parse_braid("1:"), support_budget=1)


def test_sliced_fold_support_budget_stops_after_the_event():
    diagram = braid_closure_slices(parse_braid("3: 1 -2 1 -2"))
    peak = evaluate_sliced(diagram).peak_support
    assert peak == 2 ** 3          # after the three cups, in the cohomology
    assert evaluate_sliced(diagram, support_budget=peak).peak_support == peak
    with pytest.raises(TangleBudgetExceeded,
                       match=f" of the sliced fold exceed the support budget "
                             f"{peak - 1}$"):
        evaluate_sliced(diagram, support_budget=peak - 1)
    # the three cups make 2, 4 and 8 states in the E_1-cohomology: with
    # room for 3, the second event is refused
    with pytest.raises(TangleBudgetExceeded,
                       match="^4 states after event 2 \\(cup 2\\) "):
        evaluate_sliced(diagram, support_budget=3)


# The signed braid relations sigma_i^a sigma_j^b sigma_i^c =
# sigma_j^a' sigma_i^b' sigma_j^c' (|i - j| = 1), keyed by the signs
# (a, b, c); (+ - +) and (- + -) have no such form.
SIGNED_RELATIONS = {(1, 1, 1): (1, 1, 1), (-1, -1, -1): (-1, -1, -1),
                    (1, 1, -1): (-1, 1, 1), (-1, 1, 1): (1, 1, -1),
                    (1, -1, -1): (-1, -1, 1), (-1, -1, 1): (1, -1, -1)}


def test_relation_table_has_the_six_signed_forms():
    signs = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    assert sorted(SIGNED_RELATIONS) == \
        sorted(set(signs) - {(1, -1, 1), (-1, 1, -1)})
    for key, image in SIGNED_RELATIONS.items():
        assert SIGNED_RELATIONS[image] == key      # each rule read backwards


@pytest.mark.parametrize("signs", sorted(SIGNED_RELATIONS))
def test_each_signed_braid_relation_keeps_the_6n_trace(signs):
    a, b, c = signs
    image = SIGNED_RELATIONS[signs]
    for i, j in ((1, 2), (2, 1)):
        left = (a * i, b * j, c * i)
        right = (image[0] * j, image[1] * i, image[2] * j)
        # after a context, so that the two closures are not conjugate
        # braids for any rule that is not a relation
        for context in ((), (1, 1, -2), (2, -1, -1, -1)):
            assert trace(BraidWord(3, left + context)).value == \
                trace(BraidWord(3, right + context)).value, (left, context)


@pytest.mark.parametrize("seed", range(3))
def test_connected_sum_is_half_the_product_of_its_pieces(seed):
    # a (1,1)-tangle of the simple module acts as a scalar, half the value
    # of its closure: a braid A on strands 1..a followed by B on a..n
    # closes to a connected sum, whose value is half the product of theirs
    rng = random.Random(seed)

    def piece(strands):
        return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(0, 5) if strands > 1 else 0))
    for _ in range(5):
        a, b = rng.randint(1, 4), rng.randint(1, 3)
        first, second = piece(a), piece(b)
        joined = BraidWord(a + b - 1, first + tuple(
            k + a - 1 if k > 0 else k - a + 1 for k in second))
        product = laurent_product(invariant(BraidWord(a, first)).value_dict(),
                                  invariant(BraidWord(b, second)).value_dict())
        assert {e: 2 * c for e, c in invariant(joined).value_dict().items()} \
            == product, joined
