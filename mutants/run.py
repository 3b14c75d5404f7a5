"""Mutation runs: every mutant must make each of its listed tests fail.

Usage: ``python mutants/run.py``.

A mutant names a file of the repository, an exact snippet of it, the
snippet's replacement and the pytest ids that must fail once the snippet
is replaced.  The runner copies ``src``, ``tests`` and ``pyproject.toml``
into a temporary directory, checks there that the listed tests pass
unmutated, then applies each mutant to a fresh copy and runs only its
tests; the checkout itself is never written.  It exits 1 when a snippet
does not occur exactly once (a refactor must update the list), when a
listed test fails unmutated, or when a mutant survives: some listed test
still passes.  When a mutant survives, add a test that kills it; never
shorten its list.  Only the standard library is used, besides pytest.

See DeMillo, Lipton and Sayward, "Hints on test data selection: help for
the practicing programmer", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")

SUPERLINALG = "src/d21link/superlinalg.py"
T_SUPERLINALG = "tests/test_superlinalg.py::"
TANGLE = "src/d21link/tangle.py"
T_TANGLE = "tests/test_tangle.py::"
T_CLI = "tests/test_cli.py::"
DUBROVNIK = "src/d21link/dubrovnik.py"
T_DUBROVNIK = "tests/test_dubrovnik.py::"
T_FRONT_END = (T_DUBROVNIK + "test_front_end_is_the_reference_on_every_diagram_"
               "the_recursion_visits")
T_TRANSCRIPT = ("tests/test_transcript.py::test_cli_output_matches_the_recorded_"
                "transcript")


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


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
           "if (codomain.parity(row) ^ domain.parity(col)) != parity:",
           "if False:",
           (T_SUPERLINALG + "test_parity_block_invariant_enforced",)),
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
    Mutant("cyclic-reduction-keeps-the-ends", TANGLE,
           "while hi - lo > 1 and stack[lo] == -stack[hi - 1]:",
           "while False:",
           (T_TANGLE + "test_cyclic_free_reduction",
            T_TANGLE + "test_eval_result_stats",
            T_CLI + "test_invariant_json_schema",
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


def _failing(workdir: Path, tests: Sequence[str]) -> Optional[Set[str]]:
    """The listed tests that fail or error in ``workdir``; None when pytest
    could not run them (an unknown id, say)."""
    report = workdir / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *tests],
        cwd=workdir, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1) or not report.exists():
        sys.stdout.write(result.stdout[-2000:] + result.stderr[-2000:])
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


def run_mutant(mutant: Mutant) -> List[str]:
    """The problems of one mutant; empty when every listed test fails."""
    with tempfile.TemporaryDirectory(prefix="d21link-mutant-") as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        target = workdir / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.snippet)
        if count != 1:
            return [f"snippet occurs {count} times in {mutant.path}"]
        target.write_text(text.replace(mutant.snippet, mutant.replacement),
                          encoding="utf-8")
        failing = _failing(workdir, mutant.tests)
    if failing is None:
        return ["pytest could not run the listed tests"]
    return [f"survives {test}" for test in mutant.tests if test not in failing]


def check_unmutated(mutants: Sequence[Mutant]) -> List[str]:
    """Every listed test must pass before any mutant is applied."""
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="d21link-mutant-") as tmp:
        _copy(Path(tmp))
        failing = _failing(Path(tmp), tests)
    if failing is None:
        return ["pytest could not run the listed tests"]
    return [f"fails unmutated: {test}" for test in sorted(failing)]


def main() -> int:
    problems = check_unmutated(MUTANTS)
    for problem in problems:
        print(f"unmutated: {problem}")
    for mutant in MUTANTS:
        found = run_mutant(mutant)
        print(f"{'KILLED  ' if not found else 'PROBLEM '} {mutant.name}")
        for problem in found:
            print(f"    {problem}")
        problems += found
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
