"""Verification suites aggregating every module's exact identities.

Suites: ``relations`` (generator and root-vector identities on the module),
``rmatrix`` (spectral data, inverse, integrality, classical limit, frozen
braiding regression), ``category`` (Yang-Baxter, duality zig-zags, skein
and curl identities, twist square, naturality), ``skein`` (cross-validation
of the two invariant pipelines over the diagram corpus, the invariant
against the orientation sum on the corpus and on two words of 200 letters,
presentation independence of :func:`d21link.tangle.cohomology_trace` on
each word as written, mirror symmetry, split unions).  ``all`` runs
everything.  A check carries what it found in its detail: the braiding
regression names its first six mismatching entries there, as q-strings,
and no suite writes a file.  :func:`suite_reports` yields each suite's
report as soon as the suite has run, and :func:`run_suites` lists them.
With a ``progress`` callback, both also report through it the wall
seconds of each phase of :data:`d21link.rmatrix.BUILD_PHASES` and then of
the whole of :func:`d21link.rmatrix.braiding` before the suites (the cold
build when nothing has called it yet in the process, cache hits after),
and then each suite's.  Every input is a constant within the default
budgets of both pipelines (at most 6 strands, or 64 trace columns, and 5
crossings in the skein recursion), so no suite takes a budget.

:func:`compare` and :func:`compare_orientation_sum` are the only places
where the two pipelines meet: the tangle side and the skein oracle
(:mod:`d21link.dubrovnik`, which imports neither this module nor the
braiding side) each evaluate the same closed braid.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterator

from .diagram import BraidWord, parse_braid
from .report import CheckResult, Report
from .ring import (LAMBDA, QINV, Laurent, NotLaurentInQ, format_q_laurent,
                   laurent_product)
from .representation import (M, M2, check_defining_relations, coproduct_action,
                             duality_maps, simple_orbit_spans)
from .rmatrix import (BUILD_PHASES, braiding, cartan_exponents,
                      compare_reference, r_matrix, spectral_check,
                      twist_inverse_square)
from .superlinalg import SuperMap, compose, embed_at
from .tangle import cohomology_trace, invariant
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


def rmatrix_suite() -> Report:
    report = Report("rmatrix")
    report.extend(spectral_check())

    bundle = braiding()
    report.checks.append(CheckResult(
        "braiding-invertible",
        compose(bundle.c, bundle.c_inv) == SuperMap.identity(M2)))

    # the one exponent that could leave Z[q, q^-1] is the Cartan factor's
    try:
        cartan_exponents()
        detail = ""
    except NotLaurentInQ as exc:
        detail = str(exc)
    report.checks.append(CheckResult("braiding-integer-entries", not detail,
                                     detail))

    report.checks.append(CheckResult("r-matrix-classical-limit",
                                     _is_identity_at_one(r_matrix())))

    total, mismatches = compare_reference()
    detail = "; ".join([f"{total - len(mismatches)}/{total} entries match"]
                       + [f"{m['block']} row {m['row']} col {m['col']}: "
                          f"expected {m['expected']}, computed {m['computed']}"
                          for m in mismatches[:6]])
    if len(mismatches) > 6:
        detail += f" (+{len(mismatches) - 6} more)"
    report.checks.append(CheckResult("braiding-regression", not mismatches,
                                     detail))
    return report


def _is_identity_at_one(m: SuperMap) -> bool:
    """Whether every entry's coefficients sum to that of the identity: 1
    on the diagonal, where every entry must be stored, and 0 off it, where
    an entry left out is 0."""
    entries = m.entries
    return (all(sum(value.terms.values()) == (row == col)
                for (row, col), value in entries.items())
            and all((v, v) in entries for v in range(len(m.domain))))


def category_suite(progress: Callable[[str], None] | None = None) -> Report:
    note = progress or (lambda message: None)
    checks: list[CheckResult] = []
    bundle = braiding()
    c, c_inv = bundle.c, bundle.c_inv
    alpha, b, d = duality_maps()
    ident_m = SuperMap.identity(M)
    ident_m2 = SuperMap.identity(M2)

    note("checking duality pairing and zig-zags")
    checks.append(CheckResult("cap-cup-scalar-2",
                              compose(d, b).entry(0, 0)
                              == Laurent.constant(2)))
    zig1 = compose(embed_at(d, 1, 0, M), embed_at(b, 0, 1, M))
    zig2 = compose(embed_at(d, 0, 1, M), embed_at(b, 1, 0, M))
    checks.append(CheckResult("zig-zag-left", zig1 == ident_m))
    checks.append(CheckResult("zig-zag-right", zig2 == ident_m))

    note("checking skein and curl identities")
    checks.append(CheckResult(
        "skein-identity",
        (c - c_inv) == (ident_m2 - compose(b, d)).scale(LAMBDA)))
    curl = compose(compose(embed_at(d, 1, 0, M), embed_at(c, 0, 1, M)),
                   embed_at(b, 1, 0, M))
    checks.append(CheckResult(
        "curl-scalar", curl == ident_m.scale(-QINV)))

    note("checking twist square")
    checks.append(CheckResult(
        "twist-inverse-square",
        twist_inverse_square(c) == ident_m.scale(Laurent.q_power(2))))

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
    # (c01 c12) c01 = c12 (c01 c12): the braid relation, with the product
    # the two sides share composed once
    shared = compose(c01, c12)
    checks.append(CheckResult("yang-baxter", compose(shared, c01)
                              == compose(c12, shared)))
    return Report("category", checks)


def compare(word: BraidWord) -> CheckResult:
    """Both pipelines on the same closed diagram must agree exactly: the
    invariant is twice the specialized Dubrovnik polynomial."""
    tangle_value = invariant(word).value_dict()
    graph = dubrovnik.braid_closure_graph(word)
    skein_value = dubrovnik.specialize(dubrovnik.dubrovnik_poly(graph))
    doubled = {exp: 2 * coeff for exp, coeff in skein_value.items()}
    ok = tangle_value == doubled
    detail = "" if ok else (f"tangle {format_q_laurent(tangle_value)} vs "
                            f"2*skein {format_q_laurent(doubled)}")
    return CheckResult(f"skein-match:{word}", ok, detail)


def compare_orientation_sum(label: str, word: BraidWord) -> CheckResult:
    """The invariant must equal the sum over the orientations of the
    closure of (-q^-1)^writhe, the skein value's closed form at this
    specialization, which costs O(crossings) where the skein recursion is
    exponential."""
    tangle_value = invariant(word).value_dict()
    oracle = dubrovnik.orientation_sum(dubrovnik.braid_closure_graph(word))
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


def skein_suite(progress: Callable[[str], None] | None = None) -> Report:
    note = progress or (lambda message: None)
    report = Report("skein")
    for text in CORPUS:
        note(f"comparing pipelines on {text!r}")
        report.checks.append(compare(parse_braid(text)))
    note("comparing the invariant with the orientation sum")
    words = {text: parse_braid(text) for text in CORPUS}
    words.update(_long_words())
    for label, word in words.items():
        report.checks.append(compare_orientation_sum(label, word))

    # traced as written: reduced first, a group would collapse to fewer
    # braids and test the reduction instead of the braiding
    for name, texts in PRESENTATIONS.items():
        values = {cohomology_trace(parse_braid(t)).canonical() for t in texts}
        report.checks.append(CheckResult(
            f"presentation-independent:{name}", len(values) == 1,
            "" if len(values) == 1 else f"values {sorted(values)}"))

    for text in ("2: 1 1", "2: 1 1 1", "3: 1 -2 1 -2"):
        value = invariant(parse_braid(text)).value_dict()
        mirrored = invariant(parse_braid(text).mirror()).value_dict()
        flipped = {-exp: coeff for exp, coeff in value.items()}
        report.checks.append(CheckResult(
            f"mirror-symmetry:{text}", mirrored == flipped,
            "" if mirrored == flipped else
            f"{format_q_laurent(mirrored)} vs {format_q_laurent(flipped)}"))

    # Split unions multiply: with loop value delta = 2, the invariant of a
    # crossing-disjoint union is the product of the factors.
    hopf = invariant(parse_braid("2: 1 1")).value_dict()
    both = invariant(parse_braid("4: 1 1 3 3")).value_dict()
    square = laurent_product(hopf, hopf)
    report.checks.append(CheckResult(
        "split-union-product", both == square,
        "" if both == square else "product rule failed"))

    note("comparing the warm shared skein memo with a cold, memo-free run")
    word = parse_braid("2: 1 1 1")
    graph = dubrovnik.braid_closure_graph(word)
    cached = dubrovnik.dubrovnik_poly(graph, use_cache=True)
    uncached = dubrovnik.dubrovnik_poly(graph, use_cache=False)
    report.checks.append(CheckResult("memo-soundness", cached == uncached))
    return report


# the suites in the order ``all`` runs them, each called with ``progress``
SUITES = {"relations": lambda progress: relations_suite(),
          "rmatrix": lambda progress: rmatrix_suite(),
          "category": category_suite, "skein": skein_suite}


def run_suites(name: str, progress: Callable[[str], None] | None = None
               ) -> list[Report]:
    return list(suite_reports(name, progress))


def suite_reports(name: str, progress: Callable[[str], None] | None = None
                  ) -> Iterator[Report]:
    """The report of each suite of ``name``, yielded as soon as the suite
    has run: a suite that raises leaves the earlier reports delivered."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    if progress is not None:
        total = 0.0
        for label, build in BUILD_PHASES:
            start = time.perf_counter()
            build()
            seconds = time.perf_counter() - start
            total += seconds
            progress(f"built {label} in {seconds:.4f} s")
        progress(f"braiding ready in {total:.4f} s")
    for suite in names:
        start = time.perf_counter()
        report = SUITES[suite](progress)
        if progress is not None:
            progress(f"suite {suite} ran in "
                     f"{time.perf_counter() - start:.4f} s")
        yield report
