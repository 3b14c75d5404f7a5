"""Every metric the benchmark reports: name, unit, direction, and what it
should move.  ``BENCHMARK.json`` lists the same names and units; the smoke
test checks that the two agree.

End-to-end metrics come from untraced runs only, and their times are at
the reference machine speed of ``calibration.py``: measured seconds scaled
by a calibration pass run next to each operation.  ``error_rate`` (failed
operations over attempted ones) is reported as ``success_rate`` = 1 -
error_rate, because a metric whose normal value is 0 has no median to
bound a regression against; the error rate itself is printed beside it.
"""

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_s": ("s", "lower", 0.25),
    "latency_tail_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "success_rate": ("ratio", "higher", 0.01),
    "setup_s": ("s", "lower", 0.25),
}

_RING_OPS = ("ops_per_s and both latencies on fold; "
             "latency_tail_s on cli through the verify skein suite")
_SETUP = "setup_s on every workload; latency_p50_s on cli"
_FOLD = "ops_per_s and latency_tail_s on fold; latency_tail_s on cli"
_SKEIN = "ops_per_s and latency_tail_s on skein"

# name: (unit, the end-to-end metric and workload it should move, source).
# Sources: "op" = per operation of the traced loop; "loop" = per operation,
# the correctness check included (on fold the dubrovnik figures are the
# check's, on skein the tangle figures are); "setup" = the traced cold
# set-up in a fresh interpreter; "verify" = the four suites in-process;
# "probe" = fresh processes timed from outside.
PER_LAYER = {
    "ring.laurent_mul_calls": ("count/op", _RING_OPS, "op"),
    "ring.laurent_mul_s": ("s/op", _RING_OPS, "op"),
    "ring.ratfunc_mul_calls": ("count/op", _RING_OPS, "op"),
    "ring.ratfunc_mul_s": ("s/op", _RING_OPS, "op"),
    "ring.laurent_add_calls": ("count/op", _RING_OPS, "op"),
    "ring.laurent_add_s": ("s/op", _RING_OPS, "op"),
    "ring.ratfunc_add_calls": ("count/op", _RING_OPS, "op"),
    "ring.ratfunc_add_s": ("s/op", _RING_OPS, "op"),
    "ring.poly_gcd_calls": ("count", _SETUP, "setup"),
    "ring.poly_gcd_s": ("s", _SETUP, "setup"),
    "ring.to_integer_laurent_s": ("s", _SETUP, "setup"),
    "superlinalg.compose_calls": ("count", _SETUP, "setup"),
    "superlinalg.compose_s": ("s", _SETUP, "setup"),
    "superlinalg.invert_s": ("s", _SETUP, "setup"),
    "representation.root_vector_s": ("s", _SETUP, "setup"),
    "representation.duality_maps_s": ("s", _SETUP, "setup"),
    "representation.check_relations_s": ("s", "setup_s; cli latency", "verify"),
    "rmatrix.braiding_build_s": ("s", "setup_s; cli latency", "setup"),
    "rmatrix.exp_factor_s": ("s", "setup_s; cli latency", "setup"),
    "rmatrix.r_matrix_s": ("s", "setup_s; cli latency", "setup"),
    "rmatrix.compare_reference_s": ("s", "setup_s; cli latency", "verify"),
    "tangle.fold_s": ("s/op", _FOLD, "loop"),
    "tangle.closure_slices_s": ("s/op", _FOLD, "loop"),
    "tangle.slices": ("count/op", _FOLD, "loop"),
    "tangle.peak_strands": ("count/op", _FOLD, "loop"),
    "dubrovnik.poly_s": ("s/op", _SKEIN, "loop"),
    "dubrovnik.branches": ("count/op", _SKEIN, "loop"),
    "dubrovnik.twovar_mul_calls": ("count/op", _SKEIN, "loop"),
    "dubrovnik.twovar_mul_s": ("s/op", _SKEIN, "loop"),
    "dubrovnik.graph_build_s": ("s/op", "latency_p50_s on skein", "loop"),
    "dubrovnik.specialize_s": ("s/op", "latency_p50_s on skein", "loop"),
    "verify.relations_s": ("s", "latency_tail_s on cli", "verify"),
    "verify.rmatrix_s": ("s", "latency_tail_s on cli", "verify"),
    "verify.category_s": ("s", "latency_tail_s on cli", "verify"),
    "verify.skein_s": ("s", "latency_tail_s on cli", "verify"),
    "cli.interpreter_s": ("s", "setup_s; latency_p50_s on cli", "probe"),
    "cli.import_s": ("s", "setup_s; latency_p50_s on cli", "probe"),
    "cli.invariant_braid_s": ("s", "latency_p50_s on cli", "probe"),
    "cli.invariant_sliced_s": ("s", "latency_p50_s on cli", "probe"),
    "cli.dubrovnik_specialize_s": ("s", "latency_p50_s on cli", "probe"),
    "cli.braiding_csv_s": ("s", "latency_p50_s on cli", "probe"),
    "cli.braiding_json_split_s": ("s", "latency_p50_s on cli", "probe"),
    "cli.verify_all_s": ("s", "latency_tail_s on cli", "probe"),
    "trace.overhead_pct": ("%", "none: traced minus untraced time of the "
                                "same operations", "op"),
    "trace.ops": ("count", "none: the base of every per-operation figure",
                  "op"),
}
