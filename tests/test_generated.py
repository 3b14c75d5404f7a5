"""Differential tests on seeded-random braid words (2-4 strands, at most six
letters): the braid-closure trace against the sliced fold of the same
closure and against the independent skein oracle, and both against the
identities every framed-link value must satisfy; plus generated 3-6 strand
families of connected sums, split unions and words where braid relations
apply, the trace in the E_1-cohomology against the 6^n trace on 1-6
strands, and ``invariant`` against the orientation sum on words of up to 8
strands and 200 letters."""

import itertools
import random
from functools import lru_cache

import pytest

from d21link.dubrovnik import (DELTA, TwoVarPoly, braid_closure_graph,
                               dubrovnik_poly, orientation_sum, specialize)
from d21link.tangle import (DEFAULT_SUPPORT_BUDGET, BraidWord, SlicedDiagram,
                            SlicedEvent, _cohomology_trace,
                            _cyclically_reduced, braid_closure_slices, evaluate_sliced, invariant,
                            parse_braid, trace)
from helpers import plain_dubrovnik


def random_words(seed, count):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        strands = rng.randint(2, 4)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(0, 6)))
        words.append(BraidWord(strands, letters))
    return words


WORDS = random_words(20260, 30)


@lru_cache(maxsize=None)
def value(word):
    return invariant(word).value_dict()


def shifted(poly, coeff, exponent):
    return {e + exponent: c * coeff for e, c in poly.items()}


def multiplied(left, right):
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def skein(word):
    return dubrovnik_poly(braid_closure_graph(word))


TRACE_VS_FOLD = WORDS + [parse_braid(text) for text in (
    "1:", "2:", "3:", "4:", "4: 1 2 3 1 2 3", "4: 1 1 3 3", "4: -1 2 -3 2",
    "5: 1 -2 3 -4")]


def stats(result):
    return (result.slices, result.peak_strands, result.peak_dimension,
            result.peak_support)


def test_trace_vs_fold_covers_every_kind_of_column_block():
    # 4 and 5 strands: blocks of several leading digits, among them heads
    # holding v4 (all columns paired); every word: fixed and paired columns
    traces = [trace(word).trace for word in TRACE_VS_FOLD]
    assert {figures.strands for figures in traces} >= {1, 2, 3, 4, 5}
    assert max(figures.blocks for figures in traces) == 42
    for figures in traces:
        assert (figures.columns < 2 * figures.columns_evaluated
                < 2 * figures.columns)


@pytest.mark.parametrize("word", TRACE_VS_FOLD, ids=str)
def test_trace_matches_the_sliced_fold_of_the_closure(word):
    # the trace of the word as written, over all 6 ** n columns, against
    # the fold of its 2n-strand closure in the E_1-cohomology: the same
    # value, slices, peak strands and nominal dimension
    fold = evaluate_sliced(braid_closure_slices(word))
    plain = trace(word)
    assert (plain.value, stats(plain)[:3]) == (fold.value, stats(fold)[:3])
    # the invariant: the same value, and the stats of the reduced word it
    # traced, both evaluated in the E_1-cohomology: 2 ** n states at the peak
    result = invariant(word)
    traced = evaluate_sliced(braid_closure_slices(parse_braid(result.trace.braid)))
    assert (result.value, stats(result)) == (plain.value, stats(traced))
    assert result.peak_support == 2 ** result.trace.strands


def isotoped(diagram, rng, moves):
    """``diagram`` with ``moves`` planar isotopies inserted at random
    events: a snake (cup p+1, then cap p: a zig-zag in strand p) or a
    cancelling crossing pair (pos p, neg p)."""
    events = list(diagram.events)
    for _ in range(moves):
        at = rng.randrange(1, len(events))
        strands = 0
        for event in events[:at]:
            strands += {"cup": 2, "cap": -2}.get(event.kind, 0)
        if strands < 2:
            continue
        p = rng.randint(1, strands - 1)
        if rng.random() < 0.5:
            inserted = [SlicedEvent("cup", p + 1), SlicedEvent("cap", p)]
        else:
            kind = rng.choice(("pos", "neg"))
            inserted = [SlicedEvent(kind, p),
                        SlicedEvent("neg" if kind == "pos" else "pos", p)]
        events[at:at] = inserted
    return SlicedDiagram(tuple(events))


@pytest.mark.parametrize("word", WORDS, ids=str)
def test_sliced_fold_is_kept_by_snakes_and_cancelling_pairs(word):
    # cups and caps off the nesting of a braid closure, against the 6 ** n
    # trace of the word
    rng = random.Random(str(word))
    diagram = isotoped(braid_closure_slices(word), rng, 4)
    assert evaluate_sliced(diagram).value == trace(word).value


@pytest.mark.parametrize("word", WORDS, ids=str)
def test_fold_is_twice_the_specialized_skein_value(word):
    assert value(word) == shifted(specialize(skein(word)), 2, 0)


def test_conjugation_invariance():
    rng = random.Random(7)
    for word in WORDS:
        if rng.random() < 0.5:      # cyclic rotation, or conjugation by a letter
            letters = word.letters[1:] + word.letters[:1]
        else:
            k = rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
            letters = (k,) + word.letters + (-k,)
        assert value(BraidWord(word.strands, letters)) == value(word), word


def test_mirror_inverts_q():
    for word in WORDS:
        assert value(word.mirror()) == {-e: c for e, c in value(word).items()}


def test_markov_stabilization_scales_by_minus_q_to_the_minus_sign():
    assert value(parse_braid("2: 1 1 1")) == {-3: -2}
    assert value(parse_braid("3: 1 1 1 2")) == {-4: 2}
    assert value(parse_braid("3: 1 1 1 -2")) == {-2: 2}
    rng = random.Random(11)
    for word in WORDS:
        if word.strands > 3:        # keeps the stabilized fold at 4 strands
            continue
        sign = rng.choice((1, -1))
        stabilized = BraidWord(word.strands + 1,
                               word.letters + (sign * word.strands,))
        assert value(stabilized) == shifted(value(word), -1, -sign), word


def test_inserting_a_cancelling_pair_keeps_the_value():
    rng = random.Random(13)
    for word in WORDS:
        k = rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
        at = rng.randint(0, len(word.letters))
        letters = word.letters[:at] + (k, -k) + word.letters[at:]
        assert value(BraidWord(word.strands, letters)) == value(word), word


def union(left, right):
    """The split union: ``right`` drawn beside ``left``, on new strands."""
    return BraidWord(left.strands + right.strands, left.letters + tuple(
        letter + left.strands if letter > 0 else letter - left.strands
        for letter in right.letters))


def test_split_unions_multiply():
    # the skein value gains one loop factor delta, the fold multiplies
    for left, right in zip(WORDS, WORDS[1:]):
        assert skein(union(left, right)) == \
            DELTA * skein(left) * skein(right), (left, right)
        # up to 8 strands: 2 ** 8 columns at most
        assert invariant(union(left, right), budget=16).value_dict() == \
            multiplied(value(left), value(right)), (left, right)


def cut_words(seed):
    """Connected sums (a piece on strands 1..a, the other on a..n) and
    split unions (1..a and a+1..n, from 4 strands) of 3-6 strands.  In a
    piece each generator occurs two or three times with one sign, so the
    word has no inverse pair and neither end strand meets only one
    crossing.  The pieces' letters are merged at random, except that every
    sigma_(a-1) of the first piece comes before every sigma_a of the
    second, and the word is rotated, so that only far commutation and a
    rotation bring it back to the first piece followed by the second."""
    rng = random.Random(seed)

    def piece(low, high):
        letters = [sign * k for k in range(low, high + 1)
                   for sign in [rng.choice((1, -1))] * rng.randint(2, 3)]
        rng.shuffle(letters)
        return letters

    words = []
    for strands, count in ((3, 8), (4, 8), (5, 8), (6, 8)):
        for index in range(count):
            split = index % 2 if strands > 3 else 0
            a = rng.randint(2, strands - 1 - split)
            first, second = piece(1, a - 1), piece(a + split, strands - 1)
            letters = []
            while first or second:
                held = not second or (abs(second[0]) == a
                                      and any(abs(k) == a - 1 for k in first))
                source = first if first and (held or rng.random() < 0.5) else second
                letters.append(source.pop(0))
            turn = rng.randrange(len(letters))
            words.append(BraidWord(strands, tuple(letters[turn:] + letters[:turn])))
    return words


CUT_WORDS = cut_words(1313)


@pytest.mark.parametrize("strands", [3, 4, 5, 6])
def test_connected_sums_and_split_unions_keep_their_value(strands):
    # against the 6 ** n trace up to 4 strands, the skein oracle above
    for word in (word for word in CUT_WORDS if word.strands == strands):
        reference = (trace(word).value_dict() if strands <= 4
                     else shifted(specialize(skein(word)), 2, 0))
        assert invariant(word).value_dict() == reference, word


def test_memo_cache_does_not_change_skein_values():
    for word in WORDS:
        graph = braid_closure_graph(word)
        assert dubrovnik_poly(graph, use_cache=True) == \
            dubrovnik_poly(graph, use_cache=False), word


def all_words(strands, most_letters):
    alphabet = [sign * k for k in range(1, strands) for sign in (1, -1)]
    return [BraidWord(strands, letters) for length in range(most_letters + 1)
            for letters in itertools.product(alphabet, repeat=length)]


def relation_words(seed):
    """3-6 strand words of mostly one sign whose generators walk by one
    step, so that braid relations often apply.  The 5- and 6-strand words
    are few and short: their 6^n trace takes 0.1-1 s each."""
    rng = random.Random(seed)
    words = []
    for strands, count, most in ((3, 60, 10), (4, 16, 10), (5, 4, 8), (6, 2, 6)):
        for _ in range(count):
            sign, gen, letters = rng.choice((1, -1)), rng.randint(1, strands - 1), []
            for _ in range(rng.randint(4, most)):
                letters.append((sign if rng.random() < 0.8 else -sign) * gen)
                gen = min(max(gen + rng.choice((-1, 1)), 1), strands - 1)
            words.append(BraidWord(strands, tuple(letters)))
    return words


RELATION_WORDS = relation_words(2026)


@pytest.mark.parametrize("strands", [3, 4, 5, 6])
def test_relation_search_keeps_the_unsimplified_trace(strands):
    for word in (word for word in RELATION_WORDS if word.strands == strands):
        assert invariant(word).value == trace(word).value, word


SIMPLIFIED_VS_PLAIN = {
    "seeded": WORDS,
    "2-strand-up-to-8": all_words(2, 8),
    "3-strand-up-to-5": all_words(3, 5),
}


def test_invariant_traces_the_cyclically_reduced_word():
    # the seeded words with a cancelling pair inserted, or conjugated by a
    # letter, so that pairs cancel inside the word and across its ends
    rng = random.Random(23)
    for word in WORDS:
        k = rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
        at = rng.randint(0, len(word.letters))
        for letters in (word.letters, (k,) + word.letters + (-k,),
                        word.letters[:at] + (k, -k) + word.letters[at:]):
            reduced = BraidWord(word.strands, tuple(_cyclically_reduced(letters)))
            result = invariant(BraidWord(word.strands, letters))
            assert result.trace.braid == str(reduced), letters
            assert result.value_dict() == value(word), letters


@pytest.mark.parametrize("strands, most_letters", [(2, 8), (3, 4)])
def test_reduced_trace_of_every_short_word_matches_the_full_trace(
        strands, most_letters):
    # every word of up to 8 letters on 2 strands and of up to 4 on 3: the
    # seeded words are compared in test_trace_matches_the_sliced_fold_...
    for word in all_words(strands, most_letters):
        result = invariant(word)
        braid = parse_braid(result.trace.braid)
        assert braid.strands == word.strands
        assert len(braid.letters) <= len(word.letters)
        assert result.value == trace(word).value, word


@pytest.mark.parametrize("family", sorted(SIMPLIFIED_VS_PLAIN))
def test_simplified_skein_matches_the_plain_recursion(family):
    for word in SIMPLIFIED_VS_PLAIN[family]:
        graph = braid_closure_graph(word)
        assert dubrovnik_poly(graph) == plain_dubrovnik(graph), word


def test_skein_markov_stabilization_scales_by_a_to_the_sign():
    rng = random.Random(17)
    for word in WORDS:
        sign = rng.choice((1, -1))
        stabilized = BraidWord(word.strands + 1,
                               word.letters + (sign * word.strands,))
        assert skein(stabilized) == \
            TwoVarPoly.monomial(sign, 0) * skein(word), word


def test_skein_ignores_a_cancelling_pair():
    rng = random.Random(19)
    for word in WORDS:
        k = rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
        at = rng.randint(0, len(word.letters))
        letters = word.letters[:at] + (k, -k) + word.letters[at:]
        assert skein(BraidWord(word.strands, letters)) == skein(word), word


def unsimplified_words(seed):
    """1-6 strand words as written, as long as the 6 ** n trace affords:
    6-strand words of at most three letters take 0.2 s each."""
    rng = random.Random(seed)
    words = []
    for strands, count, most in ((1, 1, 0), (2, 12, 12), (3, 12, 9),
                                 (4, 8, 7), (5, 3, 4), (6, 2, 3)):
        for _ in range(count):
            words.append(BraidWord(strands, tuple(
                rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, most)))))
    return words


@pytest.mark.parametrize("strands", [1, 2, 3, 4, 5, 6])
def test_cohomology_trace_matches_the_full_trace(strands):
    # the 2 ** n columns in the E_1-cohomology against all 6 ** n, on the
    # words as written, not reduced first
    for word in unsimplified_words(1602):
        if word.strands == strands:
            assert _cohomology_trace(word, DEFAULT_SUPPORT_BUDGET).value == \
                trace(word).value, word


def long_words(seed):
    """2-8 strand words of 10-200 letters, beyond the 6 ** n trace and the
    skein recursion: per strand count one of mixed signs and one of mostly
    one sign whose generators walk by one step (relation moves apply)."""
    rng = random.Random(seed)
    words = []
    for strands in range(2, 9):
        length = rng.choice((10, 200, rng.randint(11, 199)))
        words.append(BraidWord(strands, tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(length))))
        sign, gen, letters = rng.choice((1, -1)), 1, []
        for _ in range(200 - length + 10):
            letters.append((sign if rng.random() < 0.8 else -sign) * gen)
            gen = min(max(gen + rng.choice((-1, 1)), 1), strands - 1)
        words.append(BraidWord(strands, tuple(letters)))
    return words


def test_invariant_is_the_orientation_sum_on_long_wide_words():
    # up to 8 strands: a tangle budget of 16 closure strands
    words = long_words(1603)
    assert max(len(word.letters) for word in words) == 200
    for word in words:
        assert invariant(word, budget=16).value_dict() == \
            orientation_sum(braid_closure_graph(word)), word
