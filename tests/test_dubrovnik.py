import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from d21link import dubrovnik
from d21link.cli import main
from d21link.diagram import BraidWord, BudgetExceeded, parse_braid
from d21link.dubrovnik import (DELTA, LinkGraph, TV_ONE, TwoVarPoly, _analyze,
                               _simplify, braid_closure_graph, dubrovnik_poly,
                               orientation_sum, specialize)
from d21link.ring import NotLaurentInQ
from d21link.verify import compare
from helpers import (plain_dubrovnik, reference_analyze,
                     reference_closure_graph, reference_simplify,
                     reference_specialize, reference_validate,
                     torus_closed_form)
from test_generated import WORDS

TV_A = TwoVarPoly.monomial(1, 0)
TV_A_INV = TwoVarPoly.monomial(-1, 0)


def poly_of(text, **kwargs):
    return dubrovnik_poly(braid_closure_graph(parse_braid(text)), **kwargs)


def test_two_var_poly_arithmetic():
    assert TV_A * TV_A_INV == TV_ONE
    assert (DELTA - TV_ONE) * TwoVarPoly.monomial(0, 1) == \
        TwoVarPoly({(1, 0): 1, (-1, 0): -1})
    with pytest.raises(TypeError):
        TwoVarPoly({(0, 0): Fraction(1, 2)})
    assert DELTA.canonical() == "-a^-1*z^-1 + 1 + a*z^-1"
    assert TwoVarPoly().canonical() == "0"


def test_closure_graph_shapes():
    hopf = braid_closure_graph(parse_braid("2: 1 1"))
    assert hopf.crossing_count() == 2
    assert hopf.free_loops == 0
    circle = braid_closure_graph(parse_braid("1:"))
    assert circle.crossing_count() == 0
    assert circle.free_loops == 1
    padded = braid_closure_graph(parse_braid("3: 1 1"))
    assert padded.crossing_count() == 2
    assert padded.free_loops == 1


def test_component_counts_via_skein_values():
    # the trefoil braid closes to a knot, the empty 2-braid to two circles
    assert poly_of("2: 1 1 1").terms  # single component: no delta factor at a^3... just nonzero
    assert poly_of("2:") == DELTA


def test_unknot_and_curls():
    assert poly_of("1:") == TV_ONE
    assert poly_of("2: 1") == TV_A
    assert poly_of("2: -1") == TV_A_INV


def test_unlink_values():
    # zero-crossing two-circle diagram and the clasp with a cancelling pair
    assert poly_of("2:") == DELTA
    assert poly_of("2: 1 -1") == DELTA


def test_hopf_and_trefoil_frozen_values():
    # hand skein recursion: Lambda(hopf+) = delta + z (a - a^{-1})
    hopf_expected = TwoVarPoly({(1, -1): 1, (-1, -1): -1, (0, 0): 1,
                                (1, 1): 1, (-1, 1): -1})
    assert poly_of("2: 1 1") == hopf_expected
    # hand skein recursion: Lambda(trefoil sigma^3) =
    #   2a - a^{-1} + z + a z^2 - a^{-1} z^2 - a^{-2} z
    trefoil_expected = TwoVarPoly({(1, 0): 2, (-1, 0): -1, (0, 1): 1,
                                   (1, 2): 1, (-1, 2): -1, (-2, 1): -1})
    assert poly_of("2: 1 1 1") == trefoil_expected


def test_regular_isotopy_invariance_of_the_oracle():
    assert poly_of("2: 1 1") == poly_of("2: 1 1 1 -1")
    assert poly_of("2: 1 1") == poly_of("2: -1 1 1 1")
    assert poly_of("3: 1 2 1 2") == poly_of("3: 1 1 2 1")
    assert poly_of("4: 1 3") == poly_of("4: 3 1")


def test_first_move_changes_value_by_a():
    assert poly_of("2: 1") == TV_A * poly_of("1:")
    assert poly_of("2: -1") == TV_A_INV * poly_of("1:")


def test_mirror_symmetry_of_the_oracle():
    # mirroring a diagram sends (a, z) to (a^{-1}, -z)
    for text in ("2: 1 1 1", "2: 1 1", "3: 1 2"):
        value = poly_of(text)
        mirrored = poly_of(str(parse_braid(text).mirror()))
        flipped = TwoVarPoly({(-a, z): c if z % 2 == 0 else -c
                              for (a, z), c in value.terms.items()})
        assert mirrored == flipped


def test_specialization_values():
    assert specialize(DELTA) == {0: 2}
    assert specialize(TV_ONE) == {0: 1}
    assert specialize(TV_A) == {-1: -1}
    assert specialize(poly_of("2: 1 1 1")) == {-3: -1}
    with pytest.raises(NotLaurentInQ):
        specialize(TwoVarPoly.monomial(0, -1))


# Frozen CLI outputs of multi-term values with coefficients beyond +-1 and
# negative a- and z-exponents, so the shared term grammar and the exact
# z-division in specialize are both pinned.
PINNED = {
    "2: 1 1 1 1": ("-a^-3*z - a^-2*z^2 - a^-1*z^-1 - 2*a^-1*z - a^-1*z^3 + 1"
                   " + z^2 + a*z^-1 + 3*a*z + a*z^3", "q^-4 + q^4"),
    "3: 2 -1 -2 -1 2 -1 -1": ("-2*a^-2*z^-1 - a^-2*z + 3*a^-1 + a^-1*z^2"
                              " + 3*z^-1 + z - 3*a - a*z^2 - a^2*z^-1 + a^3",
                              "-2*q^3"),
    "4: -2 -2 -1 -2 -1": ("a^-3*z^-2 + 3*a^-3 + a^-3*z^2 - 2*a^-2*z^-1"
                          " - 4*a^-2*z - a^-2*z^3 - 2*a^-1*z^-2 - 4*a^-1"
                          " - a^-1*z^2 + 2*z^-1 + 4*z + z^3 + a*z^-2 + a + a^3",
                          "-2*q^-3 - 2*q^5"),
}


@pytest.mark.parametrize("word", sorted(PINNED))
def test_pinned_cli_values(word, capsys):
    text, specialized = PINNED[word]
    assert main(["dubrovnik", "--braid", word]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert main(["dubrovnik", "--braid", word, "--specialize"]) == 0
    assert capsys.readouterr().out == specialized + "\n"


def test_memoization_soundness():
    for text in ("2: 1 1 1", "3: 1 -2 1 -2", "2: 1 1 1 1 1",
                 "3: 1 -2 1 -2 1 -2", "2: 1 1 1 1 1 1 1 1"):
        graph = braid_closure_graph(parse_braid(text))
        assert dubrovnik_poly(graph, use_cache=True) == \
            dubrovnik_poly(graph, use_cache=False)


@pytest.fixture
def cold_memo():
    """The process-wide skein memo, empty at the start and at the end."""
    dubrovnik._memo.clear()
    yield dubrovnik._memo
    dubrovnik._memo.clear()


def test_shared_memo_gives_the_same_values_in_any_order(cold_memo):
    graphs = [braid_closure_graph(word) for word in WORDS]
    expected = [plain_dubrovnik(graph) for graph in graphs]
    assert [dubrovnik_poly(graph) for graph in graphs] == expected
    assert cold_memo
    cold_memo.clear()
    backward = [dubrovnik_poly(graph) for graph in reversed(graphs)]
    assert backward[::-1] == expected
    size = len(cold_memo)
    assert [dubrovnik_poly(graph, use_cache=False) for graph in graphs] == \
        expected
    assert len(cold_memo) == size


def test_shared_memo_is_read_with_the_cache_and_ignored_without(cold_memo):
    # the trefoil closure has nothing to simplify, so its own signature is
    # the first lookup
    graph = braid_closure_graph(parse_braid("2: 1 1 1"))
    wrong = TwoVarPoly.monomial(7, 7)
    cold_memo[_analyze(graph)[3]] = wrong
    assert dubrovnik_poly(graph) == wrong
    assert dubrovnik_poly(graph, use_cache=False) == plain_dubrovnik(graph)
    assert cold_memo == {_analyze(graph)[3]: wrong}


def test_shared_memo_keeps_at_most_the_cap_between_calls(cold_memo,
                                                         monkeypatch):
    cap = 8
    monkeypatch.setattr(dubrovnik, "MEMO_CAP", cap)
    rng = random.Random(1801)
    words = set()
    while len(words) < 30:
        words.add(BraidWord(2, tuple(rng.choice((1, -1))
                                     for _ in range(rng.randint(4, 9)))))
    cleared = 0
    for word in sorted(words, key=str):
        before, stats = len(cold_memo), {}
        dubrovnik_poly(braid_closure_graph(word), stats=stats)
        # each visited diagram stores at most one entry, so the memo holds
        # at most the cap plus this call's own entries
        assert len(cold_memo) <= (stats["nodes"] if before > cap
                                  else before + stats["nodes"])
        cleared += before > cap
    assert cleared


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        poly_of("2: 1 1 1 1 1", budget=3)
    with pytest.raises(BudgetExceeded, match="5 strands exceed the budget 4"):
        braid_closure_graph(parse_braid("5:"), budget=4)


def test_crossing_budget_admits_as_many_crossings_as_it_names():
    assert poly_of("2: 1 1 1", budget=3) == poly_of("2: 1 1 1")
    with pytest.raises(BudgetExceeded,
                       match="^3 crossings exceed the budget 2$"):
        poly_of("2: 1 1 1", budget=2)


def test_budget_counts_the_input_crossings_before_simplifying():
    # the closure simplifies to one curl, but the check comes first
    with pytest.raises(BudgetExceeded,
                       match="^5 crossings exceed the budget 3$"):
        poly_of("2: 1 -1 1 -1 1", budget=3)


def simplified(graph):
    graph = graph.copy()
    return _simplify(graph), graph


def test_curls_factor_out_a_to_their_sign():
    # the closure of one letter is a figure-eight curl: both edges are curls
    for text, sign, expected in (("2: 1", 1, TV_A), ("2: -1", -1, TV_A_INV)):
        graph = braid_closure_graph(parse_braid(text))
        assert dubrovnik_poly(graph) == plain_dubrovnik(graph) == expected
        shift, rest = simplified(graph)
        assert (shift, rest.crossing_count(), rest.free_loops) == (sign, 0, 1)


def test_figure_eight_curl_beside_a_free_loop():
    for diag, sign in ((0, -1), (1, 1)):
        graph = LinkGraph({0: diag}, {0: 1, 1: 0, 2: 3, 3: 2}, free_loops=1)
        graph.validate()
        assert dubrovnik_poly(graph) == plain_dubrovnik(graph) == \
            TwoVarPoly.monomial(sign, 0) * DELTA
        shift, rest = simplified(graph)
        assert (shift, rest.crossing_count(), rest.free_loops) == (sign, 0, 2)


def test_bigons_cancel_only_when_one_strand_is_over_at_both():
    # 2: 1 -1 closes to two circles; the bigon of 2: 1 1 alternates
    unlink = braid_closure_graph(parse_braid("2: 1 -1"))
    assert dubrovnik_poly(unlink) == plain_dubrovnik(unlink) == DELTA
    shift, rest = simplified(unlink)
    assert (shift, rest.crossing_count(), rest.free_loops) == (0, 0, 2)
    hopf = braid_closure_graph(parse_braid("2: 1 1"))
    assert dubrovnik_poly(hopf) == plain_dubrovnik(hopf) == poly_of("2: 1 1 1 -1")
    shift, rest = simplified(hopf)
    assert (shift, rest.over_diag, rest.partner) == \
        (0, hopf.over_diag, hopf.partner)


def test_integer_coefficients():
    for text in ("2: 1 1", "2: 1 1 1 1 1", "3: 1 -2 1 -2"):
        assert all(type(c) is int for c in poly_of(text).terms.values())


def test_skein_axiom_holds_on_diagram_surgeries():
    # Lambda(X+) - Lambda(X-) = z (Lambda(vertical) - Lambda(turnback)),
    # checked by direct surgery at every crossing of several diagrams.
    z = TwoVarPoly.monomial(0, 1)
    for text in ("2: 1 1 1", "3: 1 -2 1 -2", "2: 1 1"):
        graph = braid_closure_graph(parse_braid(text))
        for cid in sorted(graph.over_diag):
            positive = graph if graph.over_diag[cid] == 0 else graph.switched(cid)
            negative = positive.switched(cid)
            lhs = dubrovnik_poly(positive) - dubrovnik_poly(negative)
            rhs = z * (dubrovnik_poly(positive.smoothed(cid, "vertical"))
                       - dubrovnik_poly(positive.smoothed(cid, "turnback")))
            assert lhs == rhs


def generated_diagrams(seed, count):
    """Closures of seeded words of 1-4 strands and up to 7 letters, and for
    each one crossing switched and smoothed both ways: diagrams that are
    not braid closures, some with free circles."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        strands = rng.randint(1, 4)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(0, 7) if strands > 1 else 0))
        graph = braid_closure_graph(BraidWord(strands, letters))
        graphs.append(graph)
        if graph.over_diag:
            cid = rng.choice(sorted(graph.over_diag))
            graphs += [graph.switched(cid), graph.smoothed(cid, "vertical"),
                       graph.smoothed(cid, "turnback")]
    return graphs


def test_orientation_sum_is_twice_the_specialized_dubrovnik_value():
    graphs = generated_diagrams(1601, 60)
    assert any(graph.free_loops for graph in graphs)
    for graph in graphs:
        doubled = {e: 2 * c for e, c in specialize(dubrovnik_poly(graph)).items()}
        assert orientation_sum(graph) == doubled


def test_orientation_sum_of_torus_links_is_the_closed_form():
    for k in range(-300, 301):
        graph = braid_closure_graph(BraidWord(2, (1 if k > 0 else -1,) * abs(k)))
        value = orientation_sum(graph)
        assert value == torus_closed_form(k), k
        assert all(type(coeff) is int for coeff in value.values()), k


def test_orientation_sum_of_small_diagrams():
    # the unknot, a split circle, the Hopf link oriented both ways
    assert orientation_sum(braid_closure_graph(parse_braid("1:"))) == {0: 2}
    assert orientation_sum(braid_closure_graph(parse_braid("3: 1 1"))) == \
        {-2: 4, 2: 4}
    assert orientation_sum(braid_closure_graph(parse_braid("2: 1 -1"))) == \
        {0: 4}


def test_compare_pipelines_on_sample_words():
    for text in ("1:", "2: 1 1", "2: 1 1 1", "3: 1 -2 1 -2", "3: 1 2"):
        result = compare(parse_braid(text))
        assert result.passed, result


def test_graph_validation_catches_broken_matchings():
    graph = braid_closure_graph(parse_braid("2: 1 1"))
    graph.partner[0] = 0
    with pytest.raises(ValueError):
        graph.validate()


def seeded_words(seed, count):
    """Words of 1-5 strands and 0-14 letters."""
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(1, 5)
        yield BraidWord(strands, tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 14) if strands > 1 else 0)))


def graph_items(graph):
    """A graph's dicts in insertion order, which orders the passes of
    ``_simplify``, and its free loops."""
    return (list(graph.over_diag.items()), list(graph.partner.items()),
            graph.free_loops)


def test_front_end_is_the_reference_on_every_diagram_the_recursion_visits(
        cold_memo):
    # the reference recursion, with the first-written front end, checks the
    # present one against it at every node, then the recursion's own counts
    visited = 0
    for word in seeded_words(2301, 800):
        graph = braid_closure_graph(word)
        assert graph_items(graph) == graph_items(reference_closure_graph(word))
        stats = dict(nodes=0, memo_hits=0, curls_removed=0, bigons_removed=0)
        memo = set()

        def recurse(g):
            stats["nodes"] += 1
            new = g.copy()
            moves = dict(curls_removed=0, bigons_removed=0)
            new_moves = dict(moves)
            assert _simplify(new, new_moves) == reference_simplify(g, moves)
            assert (new_moves, graph_items(new)) == (moves, graph_items(g))
            for key, count in moves.items():
                stats[key] += count
            result = reference_analyze(g)
            assert _analyze(new) == result
            _, first_bad, _, signature = result
            if signature in memo:
                stats["memo_hits"] += 1
                return
            if first_bad is not None:
                for child in (g.switched(first_bad),
                              g.smoothed(first_bad, "vertical"),
                              g.smoothed(first_bad, "turnback")):
                    recurse(child)
            memo.add(signature)

        recurse(graph.copy())
        visited += stats["nodes"]
        cold_memo.clear()
        counted = {}
        dubrovnik_poly(graph, stats=counted)
        assert counted == stats, word
    assert visited > 5000


def validation_error(check, graph):
    try:
        check(graph)
    except ValueError as exc:
        return str(exc)
    return None


def test_validation_is_the_reference_on_broken_matchings():
    rng = random.Random(2303)
    errors = set()
    for graph in generated_diagrams(2303, 60):
        for _ in range(4):
            broken = graph.copy()
            ports = sorted(broken.partner)
            kind = rng.randrange(5)
            if kind == 0 and ports:       # a port loses its edge
                del broken.partner[rng.choice(ports)]
            elif kind == 1:               # a port of no crossing
                broken.partner[4 * (len(ports) + 9)] = rng.choice(ports or [0])
            elif kind == 2 and ports:     # a fixed point
                port = rng.choice(ports)
                broken.partner[port] = port
            elif kind == 3 and len(ports) > 2:  # a one-way edge
                broken.partner[ports[0]] = rng.choice(ports[1:])
            elif kind == 4:               # a crossing with no ports
                broken.over_diag[len(ports) + 9] = 0
            expected = validation_error(reference_validate, broken)
            assert validation_error(LinkGraph.validate, broken) == expected
            errors.add(expected)
    assert len(errors) == 3


def random_two_var(rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        key = (rng.randint(-6, 6), rng.randint(-3, 5))
        terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
    return TwoVarPoly(terms)


def test_specialize_is_the_reference():
    # products with powers of delta cancel the z-denominators they add;
    # terms with a negative z-exponent of their own mostly do not
    rng = random.Random(2304)
    outcomes = set()
    for index in range(3000):
        poly = random_two_var(rng)
        if index % 2:
            for _ in range(rng.randint(1, 3)):
                poly = poly * DELTA
        try:
            expected = list(reference_specialize(poly).items())
        except NotLaurentInQ as exc:
            with pytest.raises(NotLaurentInQ) as raised:
                specialize(poly)
            assert str(raised.value) == str(exc)
            outcomes.add("raises")
        else:
            assert list(specialize(poly).items()) == expected
            outcomes.add("value" if expected else "zero")
    assert outcomes == {"raises", "value", "zero"}
    # z = a - a^-1 after the substitution, so a^k (1 - (a - a^-1)/z)
    # specializes to 0 through terms that cancel only in the sum
    for k in range(-8, 9):
        poly = TwoVarPoly({(k, 0): 1, (k + 1, -1): -1, (k - 1, -1): 1})
        assert specialize(poly) == reference_specialize(poly) == {}


def _imports(module):
    tree = ast.parse((Path(__file__).parents[1] / "src" / "d21link"
                      / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    return names


def test_pipelines_stay_independent_and_integer_only():
    for module in ("dubrovnik", "tangle"):
        names = _imports(module)
        assert not names & {"fractions", "Fraction", "RatFunc",
                            "QuarterLaurent", "Laurent"}
    assert not _imports("dubrovnik") & {"rmatrix", "representation", "tangle",
                                         "report", "superlinalg"}


def _modules_after(statements, *flags):
    """Every module in ``sys.modules`` after ``statements`` run in a fresh
    interpreter, started with ``flags``, that sees only ``src`` on its
    path."""
    src = Path(__file__).parents[1] / "src"
    code = statements + "\nimport sys\nprint(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          check=True, capture_output=True, encoding="utf-8")
    return set(ast.literal_eval(done.stdout))


def _loaded_after(statements):
    """The package's own modules among :func:`_modules_after`."""
    return {n for n in _modules_after(statements) if n.split(".")[0] == "d21link"}


def test_pipelines_stay_independent_at_import_time():
    # both pipelines read their input through ``diagram``, which loads
    # neither of them
    assert _loaded_after("import d21link.diagram") == {
        "d21link", "d21link.diagram", "d21link.ring"}
    assert _loaded_after("import d21link.dubrovnik") == {
        "d21link", "d21link.dubrovnik", "d21link.diagram", "d21link.ring"}
    tangle_side = _loaded_after("import d21link.tangle")
    assert not tangle_side & {"d21link.dubrovnik", "d21link.verify"}
    assert _loaded_after("import d21link") == {"d21link"}
    # the subprocess fails, and the call raises, unless both asserts hold
    _loaded_after("import d21link\n"
                  "found = d21link.braiding\n"
                  "import d21link.rmatrix\n"
                  "assert found is d21link.rmatrix.braiding\n"
                  "assert not hasattr(d21link, 'no_such_name')")
    # the CLI loads every layer the benchmark's tracer probes, and none of
    # the costly introspection modules that ``dataclasses`` would pull in
    cli_side = _modules_after("import d21link.cli")
    assert {f"d21link.{layer}" for layer in (
        "ring", "superlinalg", "representation", "rmatrix", "tangle",
        "dubrovnik", "verify")} <= cli_side
    # nor ``fractions`` and ``decimal``: the ring has int coefficients only;
    # nor ``argparse`` and its ``gettext``: the CLI reads its own table
    assert not cli_side & {"dataclasses", "inspect", "fractions", "decimal",
                           "argparse", "gettext"}
    # ``json`` loads only when a command writes JSON
    assert "json" not in cli_side


def test_the_cli_never_loads_typing_and_evaluation_never_loads_reports():
    # annotations stay unevaluated strings, so no layer needs ``typing``;
    # ``-S`` skips the site hooks, which may load it before the package
    assert "typing" not in _modules_after("import d21link.cli", "-S")
    # the relation and spectral checks load ``report`` when they run, so a
    # process that builds the braiding and evaluates never does
    evaluated = _modules_after(
        "import d21link\n"
        "from d21link import tangle\n"
        "from d21link.diagram import parse_braid\n"
        "d21link.braiding()\n"
        "tangle.invariant(parse_braid('3: 1 -2 1 -2'))")
    assert {"d21link.tangle", "d21link.rmatrix"} <= evaluated
    assert "d21link.report" not in evaluated


def test_no_layer_builds_a_named_tuple_at_import_time():
    # ``collections.namedtuple`` compiles each class it builds with eval, a
    # cost every CLI process would pay; ``functools`` builds its own record
    # when it loads, so it loads before the stub
    cli_side = _modules_after(
        "import collections, functools\n"
        "def refuse(typename, *args, **kwargs):\n"
        "    raise AssertionError(f'namedtuple {typename!r} built')\n"
        "collections.namedtuple = refuse\n"
        "import d21link.cli")
    assert "d21link.verify" in cli_side
