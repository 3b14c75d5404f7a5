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
from d21link.ring import (ONE, Q, Laurent, format_q_laurent,
                          laurent_product)
from d21link import tangle, verify
from d21link.representation import M, M2, duality_maps, generator_action
from d21link.rmatrix import BraidingBundle, TableError, braiding
from d21link.superlinalg import SuperMap
from d21link.diagram import (BraidWord, BudgetExceeded, DiagramError,
                             SlicedDiagram, SlicedEvent, parse_braid,
                             parse_sliced_text)
from d21link.tangle import (DEFAULT_SUPPORT_BUDGET, braid_closure_slices,
                            cohomology_trace, evaluate_sliced, invariant,
                            _cohomology, _cyclically_reduced)
from helpers import (column_l1, decode, event_table, pack, packing_bits,
                     pivotal_weights, reference_trace, torus_closed_form)


def value_of(text):
    return invariant(parse_braid(text)).value_dict()


def clear_tangle_caches():
    for value in vars(tangle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@contextmanager
def replaced_in_tangle(**values):
    """``tangle`` with each name given bound to its value, and every
    ``lru_cache`` of the module cleared on the way in and out: nothing
    derived from the true maps or tables is reused inside, nor from the
    replaced ones after."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(tangle, name, value)
        clear_tangle_caches()
        try:
            yield
        finally:
            clear_tangle_caches()


def perturbed_braiding(kind, how):
    """The braiding with its crossing map of ``kind`` changed:
    <v1 v1|.|v1 v1> made twice (``doubled``), or v1 (x) v1 sent to
    v2 (x) v1 (``moved``)."""
    bundle = braiding()
    field = "c" if kind == "pos" else "c_inv"
    entries = dict(getattr(bundle, field).entries)
    value = entries.pop((0, 0))        # v1 (x) v1 is basis vector 0
    if how == "doubled":
        entries[(0, 0)] = value + value
    else:
        entries[(6, 0)] = value        # and v2 (x) v1 is basis vector 6
    changed = SuperMap(M2, M2, entries)
    return (BraidingBundle(changed, bundle.c_inv) if kind == "pos"
            else BraidingBundle(bundle.c, changed))


def perturbed(kind, how):
    """``tangle`` reading :func:`perturbed_braiding` as its braiding, as
    :func:`replaced_in_tangle`."""
    bundle = perturbed_braiding(kind, how)
    return replaced_in_tangle(braiding=lambda: bundle)


def replaced_duality_map(index, change):
    """``tangle`` reading duality maps whose cup (``index`` 1) or cap (2)
    has its entries replaced by ``change(entries)``, as
    :func:`replaced_in_tangle`."""
    maps = list(duality_maps())
    entries = change(dict(maps[index].entries))
    maps[index] = SuperMap(maps[index].domain, maps[index].codomain, entries)
    return replaced_in_tangle(duality_maps=lambda: tuple(maps))


def doubled_duality_entry(index, entry):
    """:func:`replaced_duality_map` with ``entry`` made twice."""
    def change(entries):
        return {**entries, entry: entries[entry] + entries[entry]}
    return replaced_duality_map(index, change)


def moved_duality_entries(index, moves):
    """:func:`replaced_duality_map` with each entry ``old`` of ``moves``
    moved to ``moves[old]``."""
    return replaced_duality_map(index, lambda entries: {
        moves.get(key, key): value for key, value in entries.items()})


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
    # the 2 ** 2 columns in the E_1-cohomology, one state each
    assert result.peak_support == 4
    assert result.braid == parse_braid("2: 1 1 1")
    assert result.canonical() == "-2*q^-3"
    assert invariant(parse_braid("3: 1 -2 1 -2")).peak_support == 8
    # (sigma_1 sigma_2 sigma_3)^2 closes to T(2, 4), traced as written
    torus = invariant(parse_braid("4: 1 2 3 1 2 3"))
    assert (str(torus.braid), torus.slices, torus.peak_support) == \
        ("4: 1 2 3 1 2 3", 14, 16)
    # a word with inverse pairs, also across its ends, reports the stats of
    # its cyclic reduction, on as many strands as the word
    reduced = invariant(parse_braid("4: -1 1 2 3 -3 1 -2"))
    assert (reduced.canonical(), reduced.slices, reduced.peak_strands,
            reduced.peak_support, str(reduced.braid)) == (
        "-8*q^-1", 9, 8, 16, "4: 1")
    assert evaluate_sliced(braid_closure_slices(parse_braid("2: 1"))).braid is None


def trace_plan_sizes():
    return (tangle._start_amplitudes.cache_info().currsize,
            tangle._letter_step.cache_info().currsize)


def test_support_budget_is_checked_before_any_work():
    # 2 ** n columns against the default budget of 2 ** 12, compared
    # without building 2 ** n
    for word in (parse_braid("13:"), BraidWord(10 ** 8, ())):
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            invariant(word)
        assert time.monotonic() - start < 1.0
    # a refused word builds no start amplitudes and no letter steps
    clear_tangle_caches()
    for word, budget in ((parse_braid("13: 1 -12"), DEFAULT_SUPPORT_BUDGET),
                         (parse_braid("3: 1 2"), 7)):
        with pytest.raises(BudgetExceeded):
            invariant(word, support_budget=budget)
        assert trace_plan_sizes() == (0, 0)
    assert invariant(parse_braid("12:")).value_dict() == {0: 2 ** 12}
    assert trace_plan_sizes() == (1, 0)


def test_trace_plans_are_kept_apart_by_strand_count():
    # the same letters on different strand counts, interleaved in one
    # process: a start amplitude or letter step cached for one strand
    # count and read for another gives a wrong value
    clear_tangle_caches()
    texts = ("2: 1 1 1", "4: 1 1 1", "3: 1 -2", "2: 1 1 1", "5: 1 -2")
    for text in texts:
        word = parse_braid(text)
        assert cohomology_trace(word).value_dict() == reference_trace(word), \
            text
    assert trace_plan_sizes() == (4, 6)
    clear_tangle_caches()
    assert trace_plan_sizes() == (0, 0)


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
    assert decode(pack(terms, bits, shift), bits, shift, digits) == terms
    assert decode(pack({-4: -top}, bits, shift), bits, shift, digits) == {-4: -top}
    assert decode(0, bits, shift, digits) == {}


def test_packed_coefficients_decode_at_the_proven_bound():
    # the bound of ``packing_bits``: the start L1 norm times, per event, the
    # largest column L1 sum; a coefficient of that size decodes exactly
    weights_l1 = sum(sum(map(abs, w.values())) for w in pivotal_weights())
    for strands, kinds in ((1, ()), (2, ("pos",)), (3, ("pos", "neg", "neg")),
                           (6, ("neg",) * 7 + ("pos",) * 9)):
        bound = weights_l1 ** strands
        for kind in kinds:
            bound *= column_l1(kind)
        bits = packing_bits(weights_l1 ** strands, kinds)
        terms = {-2: bound, 0: -bound, 1: 1, 3: bound}
        assert decode(pack(terms, bits, 2), bits, 2, 6) == terms, kinds


def test_decode_raises_when_the_digits_do_not_pack_back():
    bits, shift, digits = 9, 4, 8
    packed = pack({-2: 5, 1: -7}, bits, shift)
    with pytest.raises(OverflowError):
        decode(packed + (1 << bits * digits), bits, shift, digits)
    with pytest.raises(OverflowError):
        decode(-packed << bits * digits, bits, shift, digits)


def test_pivotal_weights_need_cup_and_cap_to_pair_alike():
    loop = {}
    for weight in pivotal_weights():
        for exp, coeff in weight.items():
            loop[exp] = loop.get(exp, 0) + coeff
    assert {e: c for e, c in loop.items() if c} == {0: 2}   # the unknot
    # a cap on v4 v4 and v5 v5 in place of v4 v5 and v5 v4 (basis vectors
    # 3 and 4) keeps the H_1 weight and still kills Delta(E_1)
    v44, v45, v54, v55 = 3 * 6 + 3, 3 * 6 + 4, 4 * 6 + 3, 4 * 6 + 4
    with moved_duality_entries(2, {(0, v45): (0, v44), (0, v54): (0, v55)}):
        with pytest.raises(ValueError, match="^cup and cap do not pair the "
                                             "same basis vectors"):
            _cohomology()


def test_crossings_keep_the_pair_weights():
    # p(a) p(b) = p(c) p(d) on every entry <c d|.|a b>: each crossing keeps
    # the parity and the H_1 weight, and p(v) = -(-1)^|v| q^(2 m1(v))
    weights = pivotal_weights()
    for kind in ("pos", "neg"):
        _, table = event_table(kind)
        assert len(table) == 36
        for (a, b), rows in table.items():
            for (c, d), _ in rows:
                assert laurent_product(weights[a], weights[b]) == \
                    laurent_product(weights[c], weights[d]), (kind, a, b, c, d)
    # v1 (x) v1 sent to v2 (x) v1 would break it: p(v1) p(v1) = q^4 but
    # p(v2) p(v1) = 1; the H_1 weight guard refuses that crossing
    for kind in ("pos", "neg"):
        with perturbed(kind, "moved"):
            with pytest.raises(ValueError, match="^a table does not keep the "
                                                 "H_1 weight"):
                _cohomology()


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


def test_cohomology_guard_needs_an_odd_e1_that_squares_to_0():
    e1 = generator_action("E", 1)
    # E_1 sends v3 to v1; also sending v1 to v4 keeps it odd, but then
    # E_1^2 sends v3 to v4
    squares = SuperMap(M, M, {**e1.entries, (3, 0): ONE}, 1)
    for broken in (squares, SuperMap(M, M, {}, 0)):
        with replaced_in_tangle(generator_action=lambda name, index: broken):
            with pytest.raises(ValueError, match=r"^E_1 is not odd with "
                                                 r"E_1\^2 = 0$"):
                _cohomology()


def test_cohomology_guard_needs_an_e1_that_is_exact_off_its_cohomology():
    # E_1 also sending v5 to v1 stays odd and squares to 0, but leaves only
    # v4 untouched: its rank, 2, is not half of the other five vectors
    e1 = generator_action("E", 1)
    reaching = SuperMap(M, M, {**e1.entries, (0, 4): ONE}, 1)
    with replaced_in_tangle(generator_action=lambda name, index: reaching):
        with pytest.raises(ValueError, match="^E_1 is not exact on the basis "
                                             "vectors it moves or reaches"):
            _cohomology()


def test_cohomology_guard_needs_crossings_that_commute_with_delta_e1():
    for kind in ("pos", "neg"):
        with perturbed(kind, "doubled"):
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
    with doubled_duality_entry(2, (0, 1)):
        with pytest.raises(ValueError, match="the cap does not kill"):
            _cohomology()


def test_cohomology_guard_needs_a_cup_that_delta_e1_kills():
    # |v1 v2> in the cup doubled alone: Delta(E_1) sends v1 v2 to v1 v6,
    # which no longer cancels against the image of the cup's v3 v6 term
    with doubled_duality_entry(1, (1, 0)):
        with pytest.raises(ValueError, match=r"^Delta\(E_1\) does not kill "
                                             r"the cup$"):
            _cohomology()


def test_cohomology_guard_needs_tables_that_keep_the_h1_weight():
    for kind in ("pos", "neg"):
        # v1 v1 (H_1 weight 2) sent to v2 v1 (weight 0)
        with perturbed(kind, "moved"):
            with pytest.raises(ValueError, match="H_1 weight"):
                _cohomology()
    # the cup's entry at v1 v2 (basis vector 1) moved to v1 v1 (0)
    with moved_duality_entries(1, {(1, 0): (0, 0)}):
        with pytest.raises(ValueError, match="H_1 weight"):
            _cohomology()


def test_cohomology_guard_needs_pivotal_weights_of_the_supertrace_form():
    # the cap times -1 or q, so p -> -p or q p: the cap still kills
    # Delta(E_1), and cup and cap still pair alike
    for scale in (-ONE, Q):
        with replaced_duality_map(2, lambda entries: {
                key: value * scale for key, value in entries.items()}):
            with pytest.raises(ValueError, match="pivotal weight is not"):
                _cohomology()


def test_cohomology_guard_needs_signed_powers_of_q():
    # 2c is still a module map that keeps every weight, but cut down to
    # the E_1-cohomology its entries are -2 q^-1 and -2 q
    bundle = braiding()
    doubled = BraidingBundle(bundle.c.scale(Laurent.constant(2)),
                             bundle.c_inv)
    with replaced_in_tangle(braiding=lambda: doubled):
        with pytest.raises(ValueError, match="has an entry that is not a "
                                             "signed power of q$"):
            _cohomology()


def test_cohomology_guard_needs_crossings_that_send_a_window_to_one_window():
    # c + q^-1 id commutes with Delta(E_1) too, but sends v4 v4 to 0 and
    # v4 v5 to -q v5 v4 + q^-1 v4 v5
    bundle = braiding()
    shifted = BraidingBundle(bundle.c + SuperMap.identity(M2).scale(
        Laurent.q_power(-1)), bundle.c_inv)
    with replaced_in_tangle(braiding=lambda: shifted):
        with pytest.raises(ValueError, match="^the pos crossing does not "
                                             "send each window in the "
                                             "E_1-cohomology to one window$"):
            _cohomology()


def test_one_corrupted_crossing_fails_the_guard_and_the_verify_check():
    # both read the commutation of c with Delta(E_1) off the same
    # composition of maps
    bundle = perturbed_braiding("pos", "doubled")
    with replaced_in_tangle(braiding=lambda: bundle), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "braiding", lambda: bundle)
        with pytest.raises(TableError, match=r"^the pos crossing does not "
                                             r"commute with Delta\(E_1\)$"):
            _cohomology()
        failed = [check.check_id for check in verify.category_suite().checks
                  if not check.passed]
    assert "braiding-module-map:E1" in failed


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
    code = (
        "import json, resource\n"
        "from d21link.ring import format_q_laurent\n"
        "from d21link.tangle import parse_braid\n"
        "from helpers import reference_trace\n"
        "value = reference_trace(parse_braid('5: 1 -2 3 -4 1 -2'))\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([format_q_laurent(value), rss]))")
    # A process inherits the peak RSS of the one it was spawned from, which
    # would count this test run's; a bare interpreter in between spawns the
    # measured child at about 10 MB instead.
    launcher = ("import subprocess, sys\n"
                "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(Path(__file__).parents[1] / part) for part in ("src", "tests")))
    done = subprocess.run([sys.executable, "-c", launcher, code], env=env,
                          check=True, capture_output=True, encoding="utf-8")
    value, rss = json.loads(done.stdout)
    assert value == "2"
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
        assert invariant(word).value_dict() == reference_trace(word)


def left_partial_trace(letters):
    """The scalar lambda with sum_x p(x) <x d|A|x b> = lambda [b = d] for
    every pair of basis vectors b, d of the second strand, where A is the
    two-strand braid ``letters`` (each +-1) and p the pivotal weights: the
    factor of closing off A's first strand.  None unless that 6 x 6
    operator is a scalar.  Read through ``helpers.event_table``, so that
    :func:`replaced_in_tangle` reaches it."""
    weights = pivotal_weights()
    tables = {1: event_table("pos")[1], -1: event_table("neg")[1]}
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
        with perturbed(kind, "doubled"):
            assert left_partial_trace((sign,)) is None
            with pytest.raises(ValueError, match="does not commute"):
                invariant(word)
        with perturbed(kind, "moved"):
            assert left_partial_trace((sign,)) is None
            with pytest.raises(ValueError, match="H_1 weight"):
                invariant(word)


@pytest.mark.parametrize("how", ["doubled", "moved"])
def test_cut_needs_a_scalar_left_partial_trace(how):
    # the connected sum of the closures of piece and 2 2 has the value of
    # piece closed off times that of the rest; with a perturbed crossing the
    # piece is no scalar and the invariant refuses the word
    message = {"doubled": "does not commute", "moved": "H_1 weight"}[how]
    for kind, sign in (("pos", 1), ("neg", -1)):
        piece = (sign, sign, sign)
        word = BraidWord(3, piece + (2 * sign, 2 * sign))
        with perturbed(kind, how):
            assert left_partial_trace(piece) is None
            with pytest.raises(ValueError, match=message):
                invariant(word)
        assert invariant(word).value_dict() == laurent_product(
            left_partial_trace(piece), value_of(f"2: {sign} {sign}"))
    assert left_partial_trace((1, 1, 1)) == {-3: -1}


def test_split_union_holds_its_2n_columns():
    # a split union of two figure-eight closures: each piece is traced on
    # its 2 ** 3 columns, the whole on 2 ** 6
    word = parse_braid("6: 1 -2 1 -2 4 -5 4 -5")
    piece = invariant(parse_braid("3: 1 -2 1 -2"), support_budget=8)
    with pytest.raises(BudgetExceeded):
        invariant(parse_braid("3: 1 -2 1 -2"), support_budget=7)
    result = invariant(word, support_budget=64)
    assert result.canonical() == "4"
    assert result.value_dict() == laurent_product(piece.value_dict(),
                                                  piece.value_dict())
    with pytest.raises(BudgetExceeded):
        invariant(word, support_budget=63)


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
    if strands == 4:                     # 0.03 s as written; 5 strands 0.4 s
        assert reference_trace(word) == expected


def test_invariant_refuses_a_support_budget_below_its_2n_columns():
    # 2 ** n columns in the E_1-cohomology, one state each
    word = parse_braid("3: 1 -2 1 -2")
    assert invariant(word, support_budget=8).value_dict() == {0: 2}
    with pytest.raises(BudgetExceeded,
                       match="^8 trace columns exceed the support "
                             "budget 7$"):
        invariant(word, support_budget=7)
    # the unknot 3: 1 -2 is traced on its three strands, as written
    assert invariant(parse_braid("3: 1 -2"), support_budget=8).value_dict() == {0: 2}
    with pytest.raises(BudgetExceeded, match="^8 trace columns"):
        invariant(parse_braid("3: 1 -2"), support_budget=7)
    # cyclic reduction keeps the strands: 3: 1 -1 still has 8 columns
    with pytest.raises(BudgetExceeded, match="^8 trace columns"):
        invariant(parse_braid("3: 1 -1"), support_budget=7)
    assert invariant(parse_braid("1:"), support_budget=2).value_dict() == {0: 2}
    with pytest.raises(BudgetExceeded, match="^2 trace columns"):
        invariant(parse_braid("1:"), support_budget=1)


def test_sliced_fold_support_budget_stops_after_the_event():
    diagram = braid_closure_slices(parse_braid("3: 1 -2 1 -2"))
    peak = evaluate_sliced(diagram).peak_support
    assert peak == 2 ** 3          # after the three cups, in the cohomology
    assert evaluate_sliced(diagram, support_budget=peak).peak_support == peak
    with pytest.raises(BudgetExceeded,
                       match=f" of the sliced fold exceed the support budget "
                             f"{peak - 1}$"):
        evaluate_sliced(diagram, support_budget=peak - 1)
    # the three cups make 2, 4 and 8 states in the E_1-cohomology: with
    # room for 3, the second event is refused
    with pytest.raises(BudgetExceeded,
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
            assert reference_trace(BraidWord(3, left + context)) == \
                reference_trace(BraidWord(3, right + context)), (left, context)


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
