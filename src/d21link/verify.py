"""Verification suites aggregating every module's exact identities.

Suites: ``relations`` (generator and root-vector identities on the module),
``rmatrix`` (spectral data, twist, integrality, classical limit, frozen
braiding regression), ``category`` (Yang-Baxter, duality zig-zags, skein
and curl identities, twist square, naturality), ``skein`` (cross-validation
of the two invariant pipelines over the diagram corpus, the invariant
against the orientation sum on the corpus and on two words of 200 letters,
presentation independence of the unreduced trace, mirror symmetry, split
unions).  ``all`` runs everything.  With a ``progress`` callback,
:func:`run_suites` also reports each suite's wall seconds through it.

:func:`compare` and :func:`compare_orientation_sum` are the only places
where the two pipelines meet: the tangle side and the skein oracle
(:mod:`d21link.dubrovnik`, which imports neither this module nor the
braiding side) each evaluate the same closed braid.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional

from .report import CheckResult, Report
from .ring import (RF_LAMBDA, QuarterLaurent, RatFunc, format_q_laurent,
                   laurent_product, to_integer_laurent)
from .representation import (M, M2, check_defining_relations, coproduct_action,
                             duality_maps, simple_orbit_spans)
from .rmatrix import (braiding, compare_reference, r_matrix, spectral_check,
                      twist_inverse_square)
from .superlinalg import SuperMap, compose, embed_at
from .tangle import (DEFAULT_TANGLE_BUDGET, BraidWord, invariant, parse_braid,
                     trace)
from . import dubrovnik

CORPUS = ("1:", "2: 1", "2: -1", "2: 1 1", "2: 1 1 1", "2: -1 -1 -1",
          "2: 1 1 1 1 1", "3: 1 -2 1 -2", "2: 1 -1")

# Regular-isotopy-equivalent presentations (conjugation, inserted k -k
# pairs, braid-relation rewrites, far commutation); each group must give
# one value.
PRESENTATIONS = {
    "hopf": ("2: 1 1", "2: 1 1 -1 1", "2: -1 1 1 1", "2: 1 1 1 -1"),
    "trefoil": ("2: 1 1 1", "2: 1 -1 1 1 1", "2: 1 1 1 1 -1", "2: -1 1 1 1 1"),
    "torus-4": ("3: 1 2 1 2", "3: 2 1 2 2", "3: 1 1 2 1"),
    "far-commutation": ("4: 1 3", "4: 3 1"),
}


def relations_suite() -> Report:
    report = check_defining_relations()
    for start in range(6):
        report.checks.append(CheckResult(
            f"orbit-spans:v{start + 1}", simple_orbit_spans(start)))
    return report


def rmatrix_suite(deviations_path: Optional[str] = None) -> Report:
    report = Report("rmatrix")
    report.extend(spectral_check())

    bundle = braiding()
    report.checks.append(CheckResult(
        "braiding-invertible",
        compose(bundle.c, bundle.c_inv) == SuperMap.identity(M2)))
    report.checks.append(CheckResult(
        "twist-is-1/q", bundle.theta == QuarterLaurent.q_power(-1)))

    try:
        for value in (*bundle.c.entries.values(), *bundle.c_inv.entries.values()):
            to_integer_laurent(value)
    except Exception as exc:  # noqa: BLE001 - recorded in the report
        report.checks.append(CheckResult("braiding-integer-entries", False, str(exc)))
    else:
        report.checks.append(CheckResult("braiding-integer-entries", True))

    report.checks.append(CheckResult("r-matrix-classical-limit",
                                     _is_identity_at_one(r_matrix())))

    total, mismatches = compare_reference()
    matched = total - len(mismatches)
    ok = matched == total
    detail = f"{matched}/{total} entries match"
    report.checks.append(CheckResult("braiding-regression", ok, detail))
    if mismatches and deviations_path:
        with open(deviations_path, "w", encoding="utf-8") as handle:
            handle.write("block\trow\tcol\texpected\tcomputed\n")
            for m in mismatches:
                handle.write(f"{m['block']}\t{m['row']}\t{m['col']}\t"
                             f"{m['expected']}\t{m['computed']}\n")
        report.checks.append(CheckResult(
            "braiding-deviations-logged", True,
            f"{len(mismatches)} mismatches written to {deviations_path}"))
    return report


def _is_identity_at_one(m: SuperMap) -> bool:
    """Whether every entry's coefficients sum to that of the identity."""
    dim = m.domain.dim
    return all(sum(m.entry(row, col).terms.values()) == (row == col)
               for row in range(dim) for col in range(dim))


def category_suite(progress: Optional[Callable[[str], None]] = None) -> Report:
    note = progress or (lambda message: None)
    checks: List[CheckResult] = []
    bundle = braiding()
    c, c_inv = bundle.c, bundle.c_inv
    alpha, b, d = duality_maps()
    ident_m = SuperMap.identity(M)
    ident_m2 = SuperMap.identity(M2)

    note("checking duality pairing and zig-zags")
    checks.append(CheckResult("cap-cup-scalar-2",
                              compose(d, b).entry(0, 0)
                              == QuarterLaurent.constant(2)))
    zig1 = compose(embed_at(d, 1, 0, M), embed_at(b, 0, 1, M))
    zig2 = compose(embed_at(d, 0, 1, M), embed_at(b, 1, 0, M))
    checks.append(CheckResult("zig-zag-left", zig1 == ident_m))
    checks.append(CheckResult("zig-zag-right", zig2 == ident_m))

    note("checking skein and curl identities")
    checks.append(CheckResult(
        "skein-identity",
        (c - c_inv) == (ident_m2 - compose(b, d)).scale(RF_LAMBDA)))
    curl = compose(compose(embed_at(d, 1, 0, M), embed_at(c, 0, 1, M)),
                   embed_at(b, 1, 0, M))
    checks.append(CheckResult(
        "curl-scalar", curl == ident_m.scale(-RatFunc.q_power(-1))))

    note("checking twist square")
    checks.append(CheckResult(
        "twist-inverse-square",
        twist_inverse_square(c) == ident_m.scale(RatFunc.q_power(2))))

    note("checking naturality for the nine generators")
    for name in ("E", "F", "H"):
        for i in (1, 2, 3):
            delta = coproduct_action(name, i)
            flipped = coproduct_action(name, i, flipped=True)
            checks.append(CheckResult(
                f"braiding-module-map:{name}{i}",
                compose(c, delta) == compose(delta, c)))
            checks.append(CheckResult(
                f"r-matrix-intertwines:{name}{i}",
                compose(r_matrix(), delta) == compose(flipped, r_matrix())))
            checks.append(CheckResult(
                f"cap-invariant:{name}{i}",
                compose(d, delta).is_zero()))

    note("checking the Yang-Baxter identity on the 216-dimensional cube")
    c01 = embed_at(c, 0, 1, M)
    c12 = embed_at(c, 1, 0, M)
    lhs = compose(compose(c01, c12), c01)
    rhs = compose(compose(c12, c01), c12)
    checks.append(CheckResult("yang-baxter", lhs == rhs))
    return Report("category", checks)


def compare(word: BraidWord, budget: int = dubrovnik.DEFAULT_BUDGET,
            tangle_budget: int = DEFAULT_TANGLE_BUDGET) -> CheckResult:
    """Both pipelines on the same closed diagram must agree exactly: the
    invariant is twice the specialized Dubrovnik polynomial."""
    tangle_value = invariant(word, tangle_budget).value_dict()
    graph = dubrovnik.braid_closure_graph(word, budget)
    skein_value = dubrovnik.specialize(dubrovnik.dubrovnik_poly(graph, budget))
    doubled = {exp: 2 * coeff for exp, coeff in skein_value.items()}
    ok = tangle_value == doubled
    detail = "" if ok else (f"tangle {format_q_laurent(tangle_value)} vs "
                            f"2*skein {format_q_laurent(doubled)}")
    return CheckResult(f"skein-match:{word}", ok, detail)


def compare_orientation_sum(label: str, word: BraidWord,
                            budget: int = dubrovnik.DEFAULT_BUDGET,
                            tangle_budget: int = DEFAULT_TANGLE_BUDGET
                            ) -> CheckResult:
    """The invariant must equal the sum over the orientations of the
    closure of (-q^-1)^writhe, the skein value's closed form at this
    specialization, which costs O(crossings) where the skein recursion is
    exponential."""
    tangle_value = invariant(word, tangle_budget).value_dict()
    oracle = dubrovnik.orientation_sum(
        dubrovnik.braid_closure_graph(word, budget))
    ok = tangle_value == oracle
    detail = "" if ok else (f"tangle {format_q_laurent(tangle_value)} vs "
                            f"orientation sum {format_q_laurent(oracle)}")
    return CheckResult(f"orientation-sum:{label}", ok, detail)


def _long_words():
    """``{label: word}``: T(2, 200) and a seeded 6-strand word of 200
    letters, beyond the skein recursion."""
    rng = random.Random(1717)
    seeded = tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(200))
    return {"2: 1^200": BraidWord(2, (1,) * 200),
            "6: 200 letters of seed 1717": BraidWord(6, seeded)}


def skein_suite(budget: int = dubrovnik.DEFAULT_BUDGET,
                progress: Optional[Callable[[str], None]] = None,
                tangle_budget: int = DEFAULT_TANGLE_BUDGET) -> Report:
    note = progress or (lambda message: None)
    report = Report("skein")
    for text in CORPUS:
        note(f"comparing pipelines on {text!r}")
        report.checks.append(compare(parse_braid(text), budget, tangle_budget))
    note("comparing the invariant with the orientation sum")
    words = {text: parse_braid(text) for text in CORPUS}
    words.update(_long_words())
    for label, word in words.items():
        report.checks.append(
            compare_orientation_sum(label, word, budget, tangle_budget))

    # traced as written: reduced first, a group would collapse to fewer
    # braids and test the reduction instead of the braiding
    for name, texts in PRESENTATIONS.items():
        values = {trace(parse_braid(t), tangle_budget).canonical()
                  for t in texts}
        report.checks.append(CheckResult(
            f"presentation-independent:{name}", len(values) == 1,
            "" if len(values) == 1 else f"values {sorted(values)}"))

    for text in ("2: 1 1", "2: 1 1 1", "3: 1 -2 1 -2"):
        value = invariant(parse_braid(text), tangle_budget).value_dict()
        mirrored = invariant(parse_braid(text).mirror(),
                             tangle_budget).value_dict()
        flipped = {-exp: coeff for exp, coeff in value.items()}
        report.checks.append(CheckResult(
            f"mirror-symmetry:{text}", mirrored == flipped,
            "" if mirrored == flipped else
            f"{format_q_laurent(mirrored)} vs {format_q_laurent(flipped)}"))

    # Split unions multiply: with loop value delta = 2, the invariant of a
    # crossing-disjoint union is the product of the factors.
    hopf = invariant(parse_braid("2: 1 1"), tangle_budget).value_dict()
    both = invariant(parse_braid("4: 1 1 3 3"), tangle_budget).value_dict()
    square = laurent_product(hopf, hopf)
    report.checks.append(CheckResult(
        "split-union-product", both == square,
        "" if both == square else "product rule failed"))

    note("comparing the warm shared skein memo with a cold, memo-free run")
    word = parse_braid("2: 1 1 1")
    graph = dubrovnik.braid_closure_graph(word, budget)
    cached = dubrovnik.dubrovnik_poly(graph, budget, use_cache=True)
    uncached = dubrovnik.dubrovnik_poly(graph, budget, use_cache=False)
    report.checks.append(CheckResult("memo-soundness", cached == uncached))
    return report


def run_suites(name: str, budget: int = dubrovnik.DEFAULT_BUDGET,
               deviations_path: Optional[str] = None,
               progress: Optional[Callable[[str], None]] = None,
               tangle_budget: int = DEFAULT_TANGLE_BUDGET) -> List[Report]:
    suites = {
        "relations": relations_suite,
        "rmatrix": lambda: rmatrix_suite(deviations_path),
        "category": lambda: category_suite(progress),
        "skein": lambda: skein_suite(budget, progress, tangle_budget),
    }
    if name == "all":
        names = list(suites)
    elif name in suites:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    for suite in names:
        start = time.perf_counter()
        reports.append(suites[suite]())
        if progress is not None:
            progress(f"suite {suite} ran in "
                     f"{time.perf_counter() - start:.4f} s")
    return reports
