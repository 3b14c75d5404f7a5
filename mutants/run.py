"""Mutation runs: every mutant must make each of its listed tests fail.

Usage: ``python mutants/run.py``.

A mutant names a file of the repository, an exact snippet of it, the
snippet's replacement and the pytest ids that must fail once the snippet
is replaced.  It may also name command lines of ``python -m d21link.cli``
(:class:`Command`), each with the exit status it ends with unmutated, 0
unless it says otherwise, and no traceback.  A command that exits 0
unmutated states the status it must end with once mutated: the product's
own self-check (``verify``) must catch the mutant, not only a pytest, and
an exit status that comes with a traceback does not count.  A command
that ends otherwise unmutated, such as a clean refusal with exit 2, kills
a mutant when it ends any other way: another status, or a traceback.
The runner copies ``src``, ``tests``, ``perfbench`` (which the
benchmark-contract tests read) and ``pyproject.toml`` into a temporary
directory, checks there that the listed tests pass and the named
commands end with their unmutated status, then applies each mutant to a
fresh copy and runs only its tests and commands; the checkout itself is
never written.  Each pytest run and
command starts in a session of its own and is killed with its whole
process group after ``TIMEOUT_S``: a mutant that outlasts it is killed too
(reported as a timeout), an unmutated run that does is a problem.  It
exits 1 when a snippet does not occur exactly once (a refactor must update
the list), when a listed test fails or a named command ends another way
than it states unmutated, or when a mutant survives: some listed test
still passes, or some command does not end as a kill requires.  When a
mutant survives, add a test that kills it; never shorten its list.  Only
the standard library is used, besides pytest.

See DeMillo, Lipton and Sayward, "Hints on test data selection: help for
the practicing programmer", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# Seconds a pytest run or a command may take.  Every listed test together
# takes about 5 s unmutated (2 cores, CPython 3.11.7); a mutant that loops
# forever is stopped here instead of at a CI job limit.
TIMEOUT_S = 60

SUPERLINALG = "src/d21link/superlinalg.py"
T_SUPERLINALG = "tests/test_superlinalg.py::"
TANGLE = "src/d21link/tangle.py"
DIAGRAM = "src/d21link/diagram.py"
T_TANGLE = "tests/test_tangle.py::"
T_GENERATED = "tests/test_generated.py::"
T_CLI = "tests/test_cli.py::"
CLI = "src/d21link/cli.py"
RING = "src/d21link/ring.py"
T_RING = "tests/test_ring.py::"
REPRESENTATION = "src/d21link/representation.py"
T_REPRESENTATION = "tests/test_representation.py::"
RMATRIX = "src/d21link/rmatrix.py"
T_RMATRIX = "tests/test_rmatrix.py::"
T_ACCEPTANCE = "tests/test_acceptance.py::"
DUBROVNIK = "src/d21link/dubrovnik.py"
T_DUBROVNIK = "tests/test_dubrovnik.py::"
T_FRONT_END = (T_DUBROVNIK + "test_front_end_is_the_reference_on_every_diagram_"
               "the_recursion_visits")
VERIFY = "src/d21link/verify.py"
T_VERIFY = "tests/test_verify.py::"
REPORT = "src/d21link/report.py"
T_RECORDS = "tests/test_records.py::"
HELPERS = "tests/helpers.py"
T_CONTRACT = "tests/test_perfbench_contract.py::"
T_TRANSCRIPT = ("tests/test_transcript.py::test_cli_output_matches_the_recorded_"
                "transcript")


class Command(NamedTuple):
    """CLI arguments; the exit status once mutated, or None for any way
    other than unmutated; the exit status unmutated.  A mutant lists a
    plain ``(argv, mutated)`` pair for a command that exits 0 unmutated."""
    argv: Tuple[str, ...]
    mutated: Optional[int]
    unmutated: int = 0


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: Tuple[str, ...]
    commands: Tuple[tuple, ...] = ()    # Command, or (argv, mutated)


MUTANTS = (
    Mutant("combine-adds-the-pivot-row", SUPERLINALG,
           "minus_a = {e: -c for e, c in a.items()}",
           "minus_a = {e: c for e, c in a.items()}",
           (T_SUPERLINALG + "test_rank_known_cases",
            T_SUPERLINALG + "test_rank_matches_the_fraction_field_sweep",
            T_SUPERLINALG + "test_invert_round_trip_and_singular",
            T_SUPERLINALG + "test_invert_round_trips_on_generated_maps",
            "tests/test_rmatrix.py::test_spectral_report")),
    Mutant("invert-without-upward-clearing", SUPERLINALG,
           "for k in range(n - 1, 0, -1):",
           "for k in ():",
           (T_SUPERLINALG + "test_invert_round_trip_and_singular",
            T_SUPERLINALG + "test_invert_round_trips_on_generated_maps",
            "tests/test_rmatrix.py::test_braiding_inverse_and_integrality")),
    Mutant("tensor-unit-of-g-ignores-the-sign", SUPERLINALG,
           "value = fval if g_unit == sign else -fval",
           "value = fval",
           (T_SUPERLINALG + "test_tensor_koszul_sign_examples",
            T_SUPERLINALG + "test_graded_interchange_law",
            T_SUPERLINALG + "test_embed_at_is_the_tensor_with_identities")),
    Mutant("tensor-unit-of-f-ignores-the-sign", SUPERLINALG,
           "value = gval if f_unit == sign else -gval",
           "value = gval",
           (T_SUPERLINALG + "test_graded_interchange_law",
            T_SUPERLINALG + "test_volte_naturality",
            T_SUPERLINALG + "test_embed_at_is_the_tensor_with_identities")),
    Mutant("tensor-product-ignores-the-sign", SUPERLINALG,
           "                if sign < 0:\n"
           "                    value = -value\n",
           "",
           (T_SUPERLINALG + "test_graded_interchange_law",
            T_SUPERLINALG + "test_volte_naturality")),
    Mutant("scale-skips-the-exact-division", SUPERLINALG,
           "entries = {k: exact_div(v, den) for k, v in entries.items()}",
           "pass",
           (T_SUPERLINALG + "test_scale_divides_exactly_or_raises",
            "tests/test_representation.py::test_defining_relations_all_pass",
            "tests/test_acceptance.py::test_criterion_2_braiding_regression")),
    Mutant("compose-drops-the-parity-of-g", SUPERLINALG,
           "return SuperMap._derived(g.domain, f.codomain, out,\n"
           "                             (f.parity + g.parity) & 1)",
           "return SuperMap._derived(g.domain, f.codomain, out, f.parity)",
           (T_SUPERLINALG + "test_compose_and_tensor_parities",
            "tests/test_representation.py::test_root_vector_examples",
            "tests/test_representation.py::test_defining_relations_all_pass")),
    Mutant("supermap-skips-the-parity-check", SUPERLINALG,
           "if (codomain[row] ^ domain[col]) != parity:",
           "if False:",
           (T_SUPERLINALG + "test_parity_block_invariant_enforced",)),
    Mutant("supermap-skips-the-bounds-check", SUPERLINALG,
           "if not (0 <= row < len(codomain) and 0 <= col < len(domain)):",
           "if False:",
           (T_SUPERLINALG + "test_entries_outside_the_spaces_are_refused",)),
    Mutant("tensor-ors-the-parities", SUPERLINALG,
           "return tuple(p ^ r for p in a for r in b)",
           "return tuple(p | r for p in a for r in b)",
           (T_SUPERLINALG + "test_tensor_parities_add_mod_2",
            T_SUPERLINALG + "test_rank_known_cases",
            T_SUPERLINALG + "test_embed_at_is_the_tensor_with_identities",
            T_REPRESENTATION + "test_zig_zag_identities",
            T_ACCEPTANCE + "test_criterion_2_braiding_regression")),
    Mutant("tensor-power-one-factor-short", SUPERLINALG,
           "for _ in range(count):",
           "for _ in range(count - 1):",
           (T_SUPERLINALG + "test_tensor_parities_add_mod_2",
            T_SUPERLINALG + "test_embed_at_trivial_and_positions",
            T_SUPERLINALG + "test_embed_at_is_the_tensor_with_identities",
            T_REPRESENTATION + "test_embedded_cap_on_middle_strands",
            T_ACCEPTANCE + "test_criterion_5_category_identities")),
    Mutant("embed-at-swaps-left-and-right", SUPERLINALG,
           "        tensor_map(SuperMap.identity(tensor_power(strand, left)), f),\n"
           "        SuperMap.identity(tensor_power(strand, right)))",
           "        tensor_map(SuperMap.identity(tensor_power(strand, right)), f),\n"
           "        SuperMap.identity(tensor_power(strand, left)))",
           # the zig-zag and category checks pair (1, 0) with (0, 1)
           (T_SUPERLINALG + "test_embed_at_trivial_and_positions",
            T_SUPERLINALG + "test_embed_at_is_the_tensor_with_identities")),
    Mutant("braid-column-check-off-by-one", TANGLE,
           "h ** min(n, support_budget.bit_length()) > support_budget",
           "h ** min(n, support_budget.bit_length() - 1) > support_budget",
           (T_TANGLE + "test_support_budget_is_checked_before_any_work",
            T_TANGLE + "test_invariant_refuses_a_support_budget_below_its_2n_"
                       "columns",
            T_CLI + "test_support_budget_rejects_huge_unlink_at_once")),
    Mutant("sliced-support-check-loosened", TANGLE,
           "if len(state) > support_budget:",
           "if len(state) > support_budget + 1:",
           (T_TANGLE + "test_sliced_fold_support_budget_stops_after_the_event",)),
    Mutant("bits-without-headroom", HELPERS,
           "return bound.bit_length() + 2",
           "return bound.bit_length()",
           (T_TANGLE + "test_packed_coefficients_decode_at_the_proven_bound",)),
    Mutant("cohomology-skips-the-square-of-e1", TANGLE,
           "if e1.parity != 1 or not compose(e1, e1).is_zero():",
           "if e1.parity != 1:",
           (T_TANGLE + "test_cohomology_guard_needs_an_odd_e1_that_squares_"
                       "to_0",)),
    Mutant("cohomology-skips-the-exactness-of-e1", TANGLE,
           "if 2 * rank_over_fractions(e1) != DIM - len(basis):",
           "if False:",
           (T_TANGLE + "test_cohomology_guard_needs_an_e1_that_is_exact_off_"
                       "its_cohomology",)),
    Mutant("cohomology-skips-the-h1-weight", TANGLE,
           "if (any(WEIGHTS[row][0] != WEIGHTS[col][0]",
           "if False and (any(WEIGHTS[row][0] != WEIGHTS[col][0]",
           (T_TANGLE + "test_cohomology_guard_needs_tables_that_keep_the_h1_"
                       "weight",)),
    Mutant("cohomology-skips-the-delta-e1-commutation", TANGLE,
           "if compose(crossing, delta) != compose(delta, crossing):",
           "if False:",
           (T_TANGLE + "test_cohomology_guard_needs_crossings_that_commute_"
                       "with_delta_e1",)),
    Mutant("cohomology-skips-the-cap-killing-delta-e1", TANGLE,
           "if not compose(cap, delta).is_zero():",
           "if False:",
           (T_TANGLE + "test_cohomology_guard_needs_a_cap_that_kills_delta_"
                       "e1",)),
    Mutant("cohomology-skips-the-cup-killed-by-delta-e1", TANGLE,
           "if not compose(delta, cup).is_zero():",
           "if False:",
           (T_TANGLE + "test_cohomology_guard_needs_a_cup_that_delta_e1_"
                       "kills",)),
    Mutant("cohomology-skips-the-pairing-check", TANGLE,
           "if (sorted(l for l, _ in pairs) != list(range(DIM))",
           "if False and (sorted(l for l, _ in pairs) != list(range(DIM))",
           (T_TANGLE + "test_pivotal_weights_need_cup_and_cap_to_pair_"
                       "alike",)),
    Mutant("cohomology-skips-the-pivotal-weight-form", TANGLE,
           "if any(weights[v] != {2 * WEIGHTS[v][0]:",
           "if False and any(weights[v] != {2 * WEIGHTS[v][0]:",
           (T_TANGLE + "test_cohomology_guard_needs_pivotal_weights_of_the_"
                       "supertrace_form",)),
    Mutant("cohomology-skips-the-signed-power-check", TANGLE,
           "if len(terms) != 1 or abs(next(iter(terms.values()))) != 1:",
           "if False:",
           (T_TANGLE + "test_cohomology_guard_needs_signed_powers_of_q",)),
    Mutant("cohomology-skips-the-one-window-check", TANGLE,
           "if any(len(cut[kind][1].get((a, b), ())) != 1",
           "if False and any(len(cut[kind][1].get((a, b), ())) != 1",
           (T_TANGLE + "test_cohomology_guard_needs_crossings_that_send_a_"
                       "window_to_one_window",)),
    Mutant("cyclic-reduction-keeps-the-ends", TANGLE,
           "while hi - lo > 1 and stack[lo] == -stack[hi - 1]:",
           "while False:",
           (T_TANGLE + "test_cyclic_free_reduction",
            T_TANGLE + "test_eval_result_stats",
            T_CLI + "test_invariant_json_schema",
            T_TRANSCRIPT)),
    Mutant("invariant-reports-the-input-word", TANGLE,
           "    return cohomology_trace(reduced, support_budget)",
           "    return EvalResult(*cohomology_trace(reduced,"
           " support_budget)[:4], word)",
           (T_GENERATED + "test_invariant_traces_the_cyclically_reduced_word",
            T_GENERATED + "test_trace_matches_the_sliced_fold_of_the_closure"
                          "[2: 1 1 -1]",
            T_TANGLE + "test_eval_result_stats",
            T_CLI + "test_invariant_json_schema",
            T_TRANSCRIPT)),
    Mutant("trace-peak-support-counts-one-more", TANGLE,
           "len(starts), word)",
           "len(starts) + 1, word)",
           (T_GENERATED + "test_trace_matches_the_sliced_fold_of_the_closure"
                          "[4: 1 2 3 1 2 3]",
            T_TANGLE + "test_eval_result_stats",
            T_CLI + "test_invariant_json_schema",
            T_TRANSCRIPT)),
    Mutant("eval-result-peak-support-reads-the-peak-strands", TANGLE,
           "peak_support = property(itemgetter(3))",
           "peak_support = property(itemgetter(2))",
           (T_RECORDS + "test_a_record_is_the_tuple_of_its_fields"
                        "[EvalResult]",
            T_GENERATED + "test_trace_matches_the_sliced_fold_of_the_closure"
                          "[4: 1 2 3 1 2 3]",
            T_TANGLE + "test_eval_result_stats",
            T_CLI + "test_invariant_json_schema",
            T_TRANSCRIPT)),
    Mutant("parse-braid-reads-the-head-unstripped", DIAGRAM,
           "int(head.strip())",
           "int(head)",
           (T_GENERATED + "test_parse_braid_is_the_two_pass_reference",)),
    Mutant("ascii-integer-reads-int-alone", DIAGRAM,
           "    (token,) = text.split()\n    return int(token)\n",
           # int() strips the blanks that split() cuts at, but not \x1c-\x1f
           "    return int(text)\n",
           (T_GENERATED + "test_ascii_integer_is_the_one_value_of_the_"
                          "reference",)),
    Mutant("sliced-read-limit-off-by-one", DIAGRAM,
           "handle.read(SLICED_MAX_CHARS + 1)",
           "handle.read(SLICED_MAX_CHARS)",
           (T_CLI + "test_a_sliced_file_one_character_past_the_limit_is_"
                    "refused",
            T_CLI + "test_an_endless_sliced_file_exits_2")),
    Mutant("budget-error-outside-diagram-error", DIAGRAM,
           "class BudgetExceeded(DiagramError):",
           "class BudgetExceeded(RuntimeError):",
           (T_CLI + "test_a_budget_error_of_either_pipeline_is_one_error_"
                    "line",
            T_CLI + "test_skein_budget_env_admits_a_wider_unlink",
            T_CLI + "test_support_budget_rejects_huge_unlink_at_once"),
           # refused cleanly unmutated; mutated, an uncaught traceback
           (Command(("dubrovnik", "--braid", "17:"), None, 2),
            Command(("invariant", "--braid", "13:"), None, 2))),
    Mutant("oracle-reads-the-braiding-side", DUBROVNIK,
           "from .diagram import BudgetExceeded\n",
           # tangle imports the class from diagram, so this still resolves
           "from .tangle import BudgetExceeded\n",
           (T_DUBROVNIK + "test_pipelines_stay_independent_at_import_time",)),
    Mutant("letter-steps-cached-by-the-letter-alone", TANGLE,
           "@lru_cache(maxsize=256)\n"
           "def _letter_step(strands: int, letter: int\n",
           # the unit of the first strand count a letter was traced on is
           # read back on every other
           "def _letter_step(strands, letter, _first={}):\n"
           "    return _first.setdefault(letter, _step_of(strands, letter))\n"
           "\n"
           "\n"
           "@lru_cache(maxsize=256)\n"
           "def _step_of(strands: int, letter: int\n",
           (T_TANGLE + "test_trace_plans_are_kept_apart_by_strand_count",)),
    Mutant("start-amplitudes-one-strand-short", TANGLE,
           "    for _ in range(strands):\n",
           "    for _ in range(strands - 1):\n",
           (T_TANGLE + "test_trace_plans_are_kept_apart_by_strand_count",
            T_TANGLE + "test_eval_result_stats",
            T_TRANSCRIPT)),
    Mutant("simplify-keeps-touched-crossings-irreducible", DUBROVNIK,
           "            touched.add(end1 >> 2)\n"
           "            touched.add(end2 >> 2)\n",
           "",
           (T_FRONT_END,
            T_CLI + "test_dubrovnik_json_adds_the_recursion_stats")),
    Mutant("rewrite-leaves-the-neighbours-irreducible", DUBROVNIK,
           "near = {first_bad, *(g.partner[4 * first_bad + s] >> 2\n"
           "                                 for s in range(4))}",
           "near = {first_bad}",
           (T_FRONT_END,
            T_CLI + "test_dubrovnik_json_adds_the_recursion_stats")),
    Mutant("walk-writhe-swaps-the-sign-operands", DUBROVNIK,
           "self_writhe += _SIGNS[over_slot, under_slot]",
           "self_writhe += _SIGNS[under_slot, over_slot]",
           (T_FRONT_END,
            T_DUBROVNIK + "test_orientation_sum_is_twice_the_specialized_"
                          "dubrovnik_value",
            T_DUBROVNIK + "test_orientation_sum_of_torus_links_is_the_closed_"
                          "form",
            T_TRANSCRIPT)),
    Mutant("walk-takes-the-first-bad-crossing-at-its-second-pass", DUBROVNIK,
           "                    if not over and first_bad is None:\n"
           "                        first_bad = cid\n"
           "                else:\n"
           "                    first_slot, first_comp, over = pending.pop(cid)\n",
           "                else:\n"
           "                    first_slot, first_comp, over = pending.pop(cid)\n"
           "                    if not over and first_bad is None:\n"
           "                        first_bad = cid\n",
           (T_FRONT_END,)),
    Mutant("expansion-drops-the-sign-of-a", DUBROVNIK,
           "-comb(n, r) if (a_exp + r) % 2",
           "-comb(n, r) if r % 2",
           (T_DUBROVNIK + "test_specialization_values",
            T_DUBROVNIK + "test_specialize_is_the_reference",
            T_DUBROVNIK + "test_compare_pipelines_on_sample_words",
            T_TRANSCRIPT)),
    Mutant("run-skips-the-final-flush", CLI,
           "        sys.stdout.flush()      # a write failure is reported here,"
           " not at exit\n",
           "        pass\n",
           (T_CLI + "test_a_failed_final_flush_exits_2[dev-full]",
            T_CLI + "test_a_failed_final_flush_exits_2[closed-pipe]")),
    Mutant("run-lets-system-exit-through", CLI,
           "    except SystemExit as stop:",
           "    except ():",
           (T_CLI + "test_a_failed_final_flush_exits_2[dev-full]",
            T_CLI + "test_a_failed_final_flush_exits_2[closed-pipe]",
            T_CLI + "test_a_usage_error_exits_2_when_stderr_fails")),
    Mutant("run-exits-with-0", CLI,
           "    os._exit(status)",
           "    os._exit(0)",
           (T_CLI + "test_process_entries_match_main_in_process[malformed-"
                    "braid]",
            T_CLI + "test_process_entries_match_main_in_process[bad-budget]")),
    Mutant("parser-drops-the-one-of-exclusion", CLI,
           "if chosen not in (None, option):",
           "if False:",
           (T_CLI + "test_parser_matches_the_reference_on_generated_argv",
            T_CLI + "test_a_usage_error_is_the_usage_line_and_one_error_line"
                    "[not-allowed-with]",
            T_CLI + "test_a_usage_error_is_the_usage_line_and_one_error_line"
                    "[not-allowed-with-reversed]")),
    Mutant("parser-skips-the-choice-check", CLI,
           "if option.choices and value not in option.choices:",
           "if False:",
           (T_CLI + "test_usage_error_for_unknown_suite",
            T_CLI + "test_parser_matches_the_reference_on_generated_argv",
            T_CLI + "test_a_usage_error_is_the_usage_line_and_one_error_line"
                    "[suite-choice]",
            T_CLI + "test_a_usage_error_is_the_usage_line_and_one_error_line"
                    "[format-choice]")),
    Mutant("parser-suite-default-changed", CLI,
           'default="all"),',
           'default="skein"),',
           (T_CLI + "test_parser_matches_the_reference_on_generated_argv",)),
    Mutant("parser-splits-at-the-last-equals-sign", CLI,
           'token.partition("=")',
           'token.rpartition("=")',
           (T_CLI + "test_parser_matches_the_reference_on_generated_argv",
            T_CLI + "test_a_usage_error_is_the_usage_line_and_one_error_line"
                    "[format-choice]")),
    Mutant("verify-prints-once-every-suite-ran", CLI,
           "    for report in found:",
           "    for report in list(found):",
           (T_CLI + "test_a_table_failing_the_skein_guard_keeps_the_earlier_"
                    "reports",)),
    Mutant("verify-json-drops-the-finished-suites", CLI,
           "        if args.json:\n            _print_json({\"ok\": False,",
           "        if False:\n            _print_json({\"ok\": False,",
           (T_CLI + "test_a_table_failing_the_skein_guard_keeps_the_earlier_"
                    "reports_as_json",
            T_CLI + "test_a_braiding_failing_the_twist_check_exits_2")),
    Mutant("reference-entry-changed", RMATRIX,
           "REFERENCE_C0 = [\n    [\"q\", ",
           "REFERENCE_C0 = [\n    [\"-q\", ",
           (T_RMATRIX + "test_computed_braiding_matches_reference_everywhere",
            T_RMATRIX + "test_reference_blocks_shape_and_anchors",
            T_ACCEPTANCE + "test_criterion_2_braiding_regression",
            T_TRANSCRIPT),
           ((("verify", "--suite", "rmatrix"), 1),
            (("verify", "--suite", "all"), 1))),
    Mutant("regression-drops-the-odd-block", RMATRIX,
           "(REFERENCE_C0, REFERENCE_C1),",
           "(REFERENCE_C0,),",
           (T_RMATRIX + "test_computed_braiding_matches_reference_everywhere",
            T_RMATRIX + "test_a_perturbed_reference_entry_fails_verify_in_its_"
                        "detail",
            T_RMATRIX + "test_the_regression_detail_shows_six_mismatches_and_"
                        "counts_the_rest",
            T_ACCEPTANCE + "test_criterion_2_braiding_regression",
            T_TRANSCRIPT)),
    Mutant("presentation-check-reduces-first", VERIFY,
           "cohomology_trace(parse_braid(t)).canonical()",
           "invariant(parse_braid(t)).canonical()",
           (T_VERIFY + "test_skein_suite_traces_each_presentation_as_"
                       "written",)),
    Mutant("classical-limit-skips-the-missing-diagonal", VERIFY,
           "            and all((v, v) in entries for v in range(len(m.domain))))",
           ")",
           (T_VERIFY + "test_classical_limit_needs_every_diagonal_entry",)),
    Mutant("regression-detail-counts-from-the-eighth-mismatch", VERIFY,
           "if len(mismatches) > 6:",
           "if len(mismatches) > 7:",
           (T_VERIFY + "test_the_regression_detail_cuts_seven_mismatches_at_"
                       "six",)),
    Mutant("difference-detail-counts-from-the-eighth-cell", REPRESENTATION,
           '"" if len(cells) <= 6 else',
           '"" if len(cells) <= 7 else',
           (T_REPRESENTATION + "test_a_failed_relation_shows_six_differing_"
                               "cells_and_counts_the_rest",)),
    Mutant("verbose-phase-time-adds-the-start", VERIFY,
           "seconds = time.perf_counter() - start",
           "seconds = time.perf_counter() + start",
           (T_CLI + "test_verbose_verify_times_are_spans_within_the_run",)),
    Mutant("verbose-suite-time-adds-the-start", VERIFY,
           "{time.perf_counter() - start:.4f} s",
           "{time.perf_counter() + start:.4f} s",
           (T_CLI + "test_verbose_verify_times_are_spans_within_the_run",)),
    Mutant("regression-detail-shows-every-mismatch", VERIFY,
           "for m in mismatches[:6]])",
           "for m in mismatches])",
           (T_RMATRIX + "test_the_regression_detail_shows_six_mismatches_and_"
                        "counts_the_rest",)),
    Mutant("check-result-passed-reads-the-detail", REPORT,
           "passed = property(itemgetter(1))",
           "passed = property(itemgetter(2))",
           (T_RECORDS + "test_a_record_is_the_tuple_of_its_fields"
                        "[CheckResult]",
            "tests/test_representation.py::test_defining_relations_all_pass",
            T_ACCEPTANCE + "test_criterion_1_relation_suite",
            T_TRANSCRIPT),
           ((("verify", "--suite", "relations"), 1),)),
    Mutant("braiding-bundle-inverse-reads-the-braiding", RMATRIX,
           "c_inv = property(itemgetter(1))",
           "c_inv = property(itemgetter(0))",
           (T_RECORDS + "test_a_record_is_the_tuple_of_its_fields"
                        "[BraidingBundle]",
            T_RMATRIX + "test_braiding_inverse_and_integrality",
            T_RECORDS + "test_record_defaults_and_unpacking",
            T_TRANSCRIPT),
           ((("verify", "--suite", "rmatrix"), 1),)),
    Mutant("super-bracket-drops-the-koszul-sign", REPRESENTATION,
           "        scale = -scale\n",
           "        pass\n",
           (T_REPRESENTATION + "test_super_commutator_example",
            T_REPRESENTATION + "test_defining_relations_all_pass",
            T_ACCEPTANCE + "test_criterion_2_braiding_regression")),
    Mutant("exp-factor-scales-without-the-denominator", RMATRIX,
           ".scale(phi_i.den, phi_i.num)",
           ".scale(phi_i.den)",
           (T_RMATRIX + "test_twist_value",
            T_RMATRIX + "test_computed_braiding_matches_reference_everywhere",
            T_ACCEPTANCE + "test_criterion_2_braiding_regression")),
    Mutant("raise-lower-pair-scales-without-the-denominator", REPRESENTATION,
           "(K[i] - Kinv[i]).scale(ONE, q(d_i) - q(-d_i))",
           "(K[i] - Kinv[i]).scale(ONE)",
           (T_REPRESENTATION + "test_defining_relations_all_pass",
            T_ACCEPTANCE + "test_criterion_1_relation_suite")),
    Mutant("exp-factor-skips-the-square-check", RMATRIX,
           "    if not (compose(raising, raising).is_zero()\n"
           "            and compose(lowering, lowering).is_zero()):\n",
           "    if False:\n",
           (T_RMATRIX + "test_exp_factor_needs_root_vectors_that_square_to_0"
                        "[raise]",
            T_RMATRIX + "test_exp_factor_needs_root_vectors_that_square_to_0"
                        "[lower]")),
    Mutant("r-matrix-applies-n-on-the-right", RMATRIX,
           "acc = acc + compose(nilpotent, acc)",
           "acc = acc + compose(acc, nilpotent)",
           (T_RMATRIX + "test_r_matrix_is_the_product_of_its_factors",
            T_RMATRIX + "test_computed_braiding_matches_reference_everywhere",
            T_ACCEPTANCE + "test_criterion_2_braiding_regression")),
    Mutant("inverse-factor-adds-n", RMATRIX,
           "c_inv = c_inv - compose(nilpotent, c_inv)",
           "c_inv = c_inv + compose(nilpotent, c_inv)",
           (T_RMATRIX + "test_braiding_inverse_and_integrality",
            T_ACCEPTANCE + "test_criterion_5_category_identities"),
           # the rmatrix suite reports the failed check; under all, the
           # tangle's guard refuses the neg crossing first (exit 2)
           ((("verify", "--suite", "rmatrix"), 1),
            (("verify", "--suite", "all"), 2))),
    Mutant("inverse-factors-in-forward-order", RMATRIX,
           "for nilpotent in _nilpotent_parts():",
           "for nilpotent in reversed(_nilpotent_parts()):",
           (T_RMATRIX + "test_braiding_inverse_and_integrality",
            T_ACCEPTANCE + "test_criterion_5_category_identities"),
           ((("verify", "--suite", "rmatrix"), 1),)),
    Mutant("inverse-cartan-at-the-forward-sign", RMATRIX,
           "compose(cartan_factor(-1), c_inv)",
           "compose(cartan_factor(), c_inv)",
           (T_RMATRIX + "test_braiding_inverse_and_integrality",
            T_ACCEPTANCE + "test_criterion_5_category_identities"),
           ((("verify", "--suite", "rmatrix"), 1),)),
    Mutant("inverse-cartan-keeps-the-exponent-sign", RMATRIX,
           "inverse.terms = {-exp: coeff for exp, coeff in value.terms.items()}",
           "inverse.terms = {exp: coeff for exp, coeff in value.terms.items()}",
           (T_RMATRIX + "test_inverse_cartan_factor_is_read_off_the_factor",
            T_RMATRIX + "test_braiding_inverse_and_integrality"),
           ((("verify", "--suite", "rmatrix"), 1),)),
    Mutant("inverse-without-the-flip", RMATRIX,
           "    c_inv = tau\n",
           "    c_inv = SuperMap.identity(M2)\n",
           (T_RMATRIX + "test_braiding_inverse_and_integrality",
            T_ACCEPTANCE + "test_criterion_5_category_identities"),
           ((("verify", "--suite", "rmatrix"), 1),)),
    Mutant("table-map-lets-a-parity-fault-through", REPRESENTATION,
           "    except ValueError as exc:\n",
           "    except TypeError as exc:\n",
           (T_CLI + "test_a_parity_flip_is_one_error_line_naming_the_"
                    "map[0]",
            T_CLI + "test_a_parity_flip_is_one_error_line_naming_the_"
                    "map[1]",
            T_CLI + "test_a_parity_flip_is_one_error_line_naming_the_"
                    "map[2]",
            T_CLI + "test_a_parity_flip_is_one_error_line_naming_the_"
                    "map[3]",
            T_CLI + "test_a_parity_flip_is_one_error_line_naming_the_"
                    "map[4]",
            T_CLI + "test_a_parity_flip_is_one_error_line_naming_the_"
                    "map[5]")),
    # a table fault, not a code change: the braiding-side commands must
    # refuse it with one error line, not end with a traceback
    Mutant("parity-of-v5-flipped", REPRESENTATION,
           "PARITIES = (0, 0, 1, 1, 1, 1)",
           "PARITIES = (0, 0, 1, 1, 0, 1)",
           (T_REPRESENTATION + "test_defining_relations_all_pass",
            T_TRANSCRIPT),
           ((("invariant", "--braid", "2: 1 1 1"), 2),
            (("braiding",), 2),
            (("verify", "--suite", "all"), 2))),
    Mutant("cartan-factor-skips-the-divisibility-check", RMATRIX,
           "        if total % 4:\n",
           "        if False:\n",
           (T_CLI + "test_a_b4_off_the_q_lattice_fails_where_k_is_built",)),
    Mutant("even-commute-e-checks-e3-twice", REPRESENTATION,
           '"even-commute:E2,E3", super_bracket(E[2], E[3])',
           '"even-commute:E2,E3", super_bracket(E[3], E[3])',
           (T_REPRESENTATION + "test_a_sign_flip_of_the_second_generator_"
                               "fails_its_even_commutation[E]",)),
    Mutant("even-commute-f-checks-f3-twice", REPRESENTATION,
           '"even-commute:F2,F3", super_bracket(F[2], F[3])',
           '"even-commute:F2,F3", super_bracket(F[3], F[3])',
           (T_REPRESENTATION + "test_a_sign_flip_of_the_second_generator_"
                               "fails_its_even_commutation[F]",)),
    Mutant("twist-guard-raises-arithmetic-error", RMATRIX,
           'raise TableError("twist computation disagrees',
           'raise ArithmeticError("twist computation disagrees',
           (T_CLI + "test_a_braiding_failing_the_twist_check_exits_2",)),
    Mutant("skein-crossing-budget-refuses-the-bound", DUBROVNIK,
           "if crossings > budget:",
           "if crossings >= budget:",
           (T_DUBROVNIK + "test_crossing_budget_admits_as_many_crossings_as_"
                          "it_names",)),
    Mutant("exact-div-ignores-the-remainder", RING,
           "if deg_r < deg_b or left:",
           "if deg_r < deg_b:",
           # a leading coefficient that does not divide leaves a zero
           # quotient step, which lowers no degree: the step bound raises
           # RuntimeError where an inexact division raises ArithmeticError
           (T_RING + "test_division_steps_stay_exact_on_integer_input",
            T_SUPERLINALG + "test_scale_divides_exactly_or_raises")),
    Mutant("exact-div-bound-one-step-short", RING,
           # four spaces in: the quotient loop's bound, not poly_gcd's
           "\n    steps = max(rem) - deg_b + 1\n",
           "\n    steps = max(rem) - deg_b\n",
           (T_RING + "test_division_steps_stay_exact_on_integer_input",
            T_SUPERLINALG + "test_scale_divides_exactly_or_raises")),
    Mutant("primitive-gcd-skips-the-lead-scaling", RING,
           "if lead_b != 1:",
           # a divisor led by 2 no longer lowers the remainder's degree: the
           # step bound raises where the loop would run forever
           "if lead_b != 2:",
           (T_RING + "test_primitive_gcd_takes_each_step_its_bound_allows_"
                     "and_no_more",
            T_RING + "test_division_steps_stay_exact_on_integer_input",
            T_RING + "test_gcd_divides_both_arguments")),
    Mutant("primitive-gcd-bound-one-step-short", RING,
           "        steps = max(rem) - deg_b + 1\n",
           "        steps = max(rem) - deg_b\n",
           (T_RING + "test_primitive_gcd_takes_each_step_its_bound_allows_"
                     "and_no_more",)),
    Mutant("exact-div-monomial-ignores-the-remainder", RING,
           "        if rest:\n",
           "        if False:\n",
           (T_RING + "test_exact_div_by_one_term_is_the_quotient_loop",
            T_SUPERLINALG + "test_scale_divides_exactly_or_raises")),
    Mutant("poly-gcd-monomial-drops-the-content", RING,
           "return ONE if content == 1 else Laurent({0: content})",
           "return ONE",
           (T_RING + "test_poly_gcd_with_a_one_term_operand_is_the_prs",
            T_RING + "test_gcd_divides_both_arguments",
            T_RING + "test_coefficients_are_ints_only")),
    Mutant("ring-imports-typing", RING,
           "from collections.abc import Mapping, Sequence\n",
           "from typing import Mapping, Sequence\n",
           (T_DUBROVNIK + "test_the_cli_never_loads_typing_and_evaluation_"
                          "never_loads_reports",)),
    Mutant("rmatrix-loads-the-reports-on-import", RMATRIX,
           "if TYPE_CHECKING:\n    from .report import Report\n",
           "if True:\n    from .report import Report\n",
           (T_DUBROVNIK + "test_the_cli_never_loads_typing_and_evaluation_"
                          "never_loads_reports",)),
    Mutant("laurent-mul-squares-the-left-factor", RING,
           "laurent_product(self.terms, other.terms)",
           "laurent_product(self.terms, self.terms)",
           (T_RING + "test_difference_of_squares",
            T_RING + "test_ring_axioms_randomized",
            T_SUPERLINALG + "test_graded_interchange_law",
            T_ACCEPTANCE + "test_criterion_1_relation_suite")),
    Mutant("tracer-probe-target-renamed", RING,
           "def poly_gcd(",
           "def gcd_of(",
           (T_CONTRACT + "test_every_tracer_probe_resolves",)),
    Mutant("worker-call-target-renamed", VERIFY,
           "def run_suites(",
           "def run_all_suites(",
           (T_CONTRACT + "test_every_name_the_benchmark_calls_resolves"
                         "[worker.py-verify.run_suites]",)),
    Mutant("q-string-zero-is-empty", RING,
           'return "0"\n    return format_q_laurent',
           'return ""\n    return format_q_laurent',
           (T_TRANSCRIPT,)),
)


def _junit_key(nodeid: str) -> str:
    """``tests/test_x.py::name`` as junit reports it: ``tests.test_x::name``."""
    path, _, name = nodeid.partition("::")
    return path.removesuffix(".py").replace("/", ".") + "::" + name


def _copy(workdir: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, workdir / name, ignore=ignore)
        else:
            shutil.copy2(source, workdir / name)


class TimedOut(Exception):
    """A run went past ``TIMEOUT_S``; its process group was killed."""


def _run(args: Sequence[str], workdir: Path) -> Tuple[int, str, str]:
    """``python args`` in ``workdir``, its ``src`` on the path: the exit
    status, stdout and stderr.  Raises ``TimedOut`` once the process and
    everything it started are killed after ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
            [sys.executable, *args], cwd=workdir, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as process:
        try:
            stdout, stderr = process.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise TimedOut from None
    return process.returncode, stdout, stderr


def _failing(workdir: Path, tests: Sequence[str]) -> Optional[Set[str]]:
    """The listed tests that fail or error in ``workdir``; None when pytest
    could not run them (an unknown id, say)."""
    report = workdir / "junit.xml"
    code, stdout, stderr = _run(
        ("-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *tests), workdir)
    if code not in (0, 1) or not report.exists():
        sys.stdout.write(stdout[-2000:] + stderr[-2000:])
        return None
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        key = f"{case.get('classname')}::{case.get('name')}"
        ran.add(key)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(key)
    missing = {_junit_key(t) for t in tests} - ran
    if missing:
        print(f"  not collected: {sorted(missing)}")
        return None
    return {t for t in tests if _junit_key(t) in failed}


def _wrong_exits(workdir: Path, commands: Sequence[tuple],
                 mutated: bool) -> List[str]:
    """The commands that do not end as they must, mutated or not: with
    their status and no traceback, or, for a mutated command whose status
    is None, any other way than unmutated."""
    problems = []
    for argv, status, unmutated in (Command(*command) for command in commands):
        code, _, stderr = _run(("-m", "d21link.cli", *argv), workdir)
        traceback = " with a traceback" if "Traceback" in stderr else ""
        if mutated and status is None:
            if code == unmutated and not traceback:
                problems.append(f"d21link {' '.join(argv)} exits {code} "
                                "as unmutated")
            continue
        expected = status if mutated else unmutated
        if code != expected or traceback:
            problems.append(f"d21link {' '.join(argv)} exits {code}"
                            f"{traceback}, not {expected}")
    return problems


def run_mutant(mutant: Mutant) -> Tuple[str, List[str]]:
    """The verdict on one mutant, ``KILLED``, ``TIMEOUT`` (killed too) or
    ``PROBLEM``, and its problems, none unless the verdict is ``PROBLEM``."""
    with tempfile.TemporaryDirectory(prefix="d21link-mutant-") as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        target = workdir / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.snippet)
        if count != 1:
            return "PROBLEM", [f"snippet occurs {count} times in {mutant.path}"]
        target.write_text(text.replace(mutant.snippet, mutant.replacement),
                          encoding="utf-8")
        try:
            failing = _failing(workdir, mutant.tests)
            problems = _wrong_exits(workdir, mutant.commands, True)
        except TimedOut:
            return "TIMEOUT", []
    if failing is None:
        return "PROBLEM", ["pytest could not run the listed tests"]
    problems = [f"survives {test}" for test in mutant.tests
                if test not in failing] + problems
    return ("PROBLEM" if problems else "KILLED"), problems


def check_unmutated(mutants: Sequence[Mutant]) -> List[str]:
    """Every listed test must pass, and every named command end with its
    unmutated status, before any mutant is applied."""
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    commands = sorted({(command.argv, None, command.unmutated)
                       for command in (Command(*c) for mutant in mutants
                                       for c in mutant.commands)})
    with tempfile.TemporaryDirectory(prefix="d21link-mutant-") as tmp:
        _copy(Path(tmp))
        try:
            failing = _failing(Path(tmp), tests)
            problems = _wrong_exits(Path(tmp), commands, False)
        except TimedOut:
            return [f"a run went past {TIMEOUT_S} s"]
    if failing is None:
        return ["pytest could not run the listed tests"]
    return [f"fails unmutated: {test}" for test in sorted(failing)] + problems


def main() -> int:
    problems = check_unmutated(MUTANTS)
    for problem in problems:
        print(f"unmutated: {problem}")
    for mutant in MUTANTS:
        verdict, found = run_mutant(mutant)
        print(f"{verdict:<8} {mutant.name}")
        for problem in found:
            print(f"    {problem}")
        problems += found
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
