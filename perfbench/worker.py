"""Runs one workload in a fresh interpreter and writes its raw results.

``run.py`` starts this script once per workload, so the ``lru_cache``d
braiding and fold tables start cold; it is not meant to be run by hand.

    worker.py --setup-only      (prints set-up seconds and a calibration pass)
    worker.py --workload fold|skein|cli --seed N --seconds S --trace 0|1
              --work DIR --out RESULT.json --trace-file SPANS.json [--corrupt]

Each workload is a closed loop with one client: one operation at a time,
the next started when the previous one returns.  Set-up finishes before the
timed loop starts, and every output is checked after the loop, outside the
timed region.  Untraced loops run one machine-speed calibration pass
before the first operation and after each one, outside its timing (see
``calibration.py``): in-process for ``fold`` and ``skein``, a fresh
process for ``cli``.  With ``--trace 1`` the loop runs for
half the time untraced, then the same operations are replayed under the
tracer; the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from calibration import (PROCESS_WINDOW, REFERENCE_PROCESS_S, REFERENCE_S,
                         WINDOW, calibration_s, process_pass_s)
from tracer import Tracer, layer_self_times, merge
from workloads import (WARM_WORD, closure_events, doubled, parse_q_laurent,
                       words)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMMAND_TIMEOUT_S = 120
PROBE_REPEATS = 5
# An untraced cli run goes on past the deadline until this many whole cycles
# have run.  The tail (rank n - 10) then always falls among the verify
# samples, one per cycle, instead of on a short command when a run is short.
MIN_CLI_CYCLES = 11
# Calibration passes after a set-up sample; their median scales it.
SETUP_PASSES = 3


# -- set-up -------------------------------------------------------------------

def build_tables():
    """Build the braiding and warm the fold and skein tables on a trivial word."""
    import d21link
    from d21link import dubrovnik, tangle
    d21link.braiding()
    word = tangle.parse_braid(WARM_WORD)
    tangle.invariant(word)
    dubrovnik.specialize(dubrovnik.dubrovnik_poly(
        dubrovnik.braid_closure_graph(word)))


def timed_setup() -> float:
    start = perf_counter()
    import d21link  # noqa: F401  (timed: part of set-up)
    build_tables()
    return perf_counter() - start


# -- in-process operations ----------------------------------------------------

def fold_value(text):
    from d21link import tangle
    return tangle.invariant(tangle.parse_braid(text)).value_dict()


def skein_value(text):
    from d21link import dubrovnik, tangle
    graph = dubrovnik.braid_closure_graph(tangle.parse_braid(text))
    return dubrovnik.specialize(dubrovnik.dubrovnik_poly(graph))


def reference(workload, text):
    """The operation's value as the other pipeline computes it, in fold terms:
    fold checks against 2 * specialized Dubrovnik, skein against the fold."""
    return doubled(skein_value(text)) if workload == "fold" else fold_value(text)


def check_in_process(workload, results, corrupt, tracer=None):
    """Gate every result against the other pipeline; {index: failure note}.

    A reference computation that raises counts as a failure of that word."""
    failures = {}
    for index, (text, value, _latency, error) in enumerate(results):
        if error is not None:
            failures[index] = f"{text}: raised {error}"
            continue
        if tracer is not None:
            tracer.op_id = index
        try:
            want = reference(workload, text)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            failures[index] = f"{text}: reference raised {exc!r}"
            continue
        got = value if workload == "fold" else doubled(value)
        if corrupt and index == 0:
            want = dict(want)
            want[0] = want.get(0, 0) + 1
        if got != want:
            failures[index] = f"{text}: got {got}, expected {want}"
    return failures


def in_process_loop(op, texts, seconds=None, tracer=None, passes=None):
    """Closed loop: run ``op`` on each text; stop starting new ones at the deadline.

    With a list ``passes``, a calibration pass time goes into it before the
    first operation and after each one."""
    results = []
    deadline = None if seconds is None else perf_counter() + seconds
    if passes is not None:
        passes.append(calibration_s())
    for index, text in enumerate(texts):
        if deadline is not None and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.op_id = index
        start = perf_counter()
        value = error = None
        try:
            if tracer is None:
                value = op(text)
            else:
                with tracer.span("bench.op"):
                    value = op(text)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            error = repr(exc)
        results.append((text, value, perf_counter() - start, error))
        if passes is not None:
            passes.append(calibration_s())
    return results


# -- CLI operations -----------------------------------------------------------

def cli_cycle(word, sliced_path):
    """The fixed command cycle on one word, as (name, argv) pairs."""
    return (
        ("invariant_braid", ["invariant", "--braid", word]),
        ("invariant_sliced", ["invariant", "--sliced", sliced_path]),
        ("dubrovnik_specialize", ["dubrovnik", "--braid", word, "--specialize"]),
        ("braiding_csv", ["braiding", "--format", "csv"]),
        ("braiding_json_split", ["braiding", "--format", "json", "--split"]),
        ("verify_all", ["verify", "--suite", "all"]),
    )


CLI_COMMANDS = tuple(name for name, _ in cli_cycle("", ""))


def cli_loop(plan, workdir, seconds=None, min_cycles=0, stats_dir=None,
             passes=None):
    """Run the whole command cycle on each word of ``plan``, each command in
    a fresh process inside ``workdir``.

    A cycle once started runs to its end; no new cycle starts after the
    deadline unless fewer than ``min_cycles`` have run.  With ``stats_dir``
    each command runs under ``traced_cli.py`` and leaves its layer
    aggregates there.  With a list ``passes``, a process pass time goes
    into it before the first command and after each one.  Returns one
    record per command.
    """
    records = []
    deadline = None if seconds is None else perf_counter() + seconds
    if passes is not None:
        passes.append(process_pass_s(workdir))
    for cycles, word in enumerate(plan):
        if (deadline is not None and cycles >= min_cycles
                and perf_counter() >= deadline):
            break
        sliced = os.path.join(workdir, f"closure-{len(records)}.txt")
        with open(sliced, "w", encoding="utf-8") as handle:
            handle.write(closure_events(word))
        for name, args in cli_cycle(word, sliced):
            if stats_dir is None:
                argv = [sys.executable, "-m", "d21link.cli", *args]
            else:
                stats = os.path.join(stats_dir, f"{len(records)}.json")
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        stats, *args]
            start = perf_counter()
            try:
                proc = subprocess.run(argv, cwd=workdir, capture_output=True,
                                      text=True, timeout=COMMAND_TIMEOUT_S)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                code, out, err = None, "", "timed out"
            latency = perf_counter() - start
            stray = os.path.join(workdir, "braiding_deviations.txt")
            deviations = os.path.exists(stray)
            if deviations:
                os.remove(stray)
            records.append({"word": word, "command": name, "code": code,
                            "stdout": out, "stderr": err[-500:],
                            "latency": latency, "deviations": deviations})
            if passes is not None:
                passes.append(process_pass_s(workdir))
    return records


def check_cli(records, corrupt):
    """Exit 0, agreeing values, well-formed dumps, verify PASS; {index: note}."""
    failures = {}
    by_word = {}
    first_dump = {}
    pending_corruption = corrupt
    for index, rec in enumerate(records):
        label = f"{rec['command']} on {rec['word']!r}"
        if rec["code"] != 0:
            failures[index] = f"{label}: exit {rec['code']}: {rec['stderr']}"
            continue
        if rec["deviations"]:
            failures[index] = f"{label}: wrote braiding_deviations.txt"
            continue
        out = rec["stdout"]
        name = rec["command"]
        try:
            if name in ("invariant_braid", "invariant_sliced",
                        "dubrovnik_specialize"):
                value = parse_q_laurent(out)
                if name == "dubrovnik_specialize":
                    value = doubled(value)
                if pending_corruption:
                    value = dict(value)
                    value[0] = value.get(0, 0) + 1
                    pending_corruption = False
                first = by_word.setdefault(rec["word"], value)
                if value != first:
                    failures[index] = f"{label}: {value} disagrees with {first}"
            elif name == "braiding_csv":
                rows = [row.split(",") for row in out.splitlines()]
                if len(rows) != 36 or any(len(row) != 36 for row in rows):
                    failures[index] = f"{label}: not a 36 x 36 matrix"
                elif first_dump.setdefault(name, out) != out:
                    failures[index] = f"{label}: output changed between runs"
            elif name == "braiding_json_split":
                blocks = json.loads(out)
                if (len(blocks["c0"]) != 20 or len(blocks["c1"]) != 16
                        or any(len(r) != 20 for r in blocks["c0"])
                        or any(len(r) != 16 for r in blocks["c1"])):
                    failures[index] = f"{label}: blocks are not 20 x 20 and 16 x 16"
                elif first_dump.setdefault(name, out) != out:
                    failures[index] = f"{label}: output changed between runs"
            elif name == "verify_all":
                lines = out.strip().splitlines()
                if not lines or lines[-1] != "overall: PASS":
                    failures[index] = f"{label}: did not print 'overall: PASS'"
        except (ValueError, KeyError, TypeError) as exc:
            failures[index] = f"{label}: unreadable output ({exc})"
    return failures


def tree_snapshot(skip):
    """Files of the checkout (outside ``skip`` and ``.git``) with mtime and size."""
    listing = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if d != ".git" and os.path.join(dirpath, d) != skip]
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            info = os.stat(path)
            listing[path] = (info.st_mtime_ns, info.st_size)
    return listing


# -- process probes (traced runs) --------------------------------------------

def median_wall(argv, repeats=PROBE_REPEATS):
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, check=True, capture_output=True,
                       timeout=COMMAND_TIMEOUT_S)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def import_seconds(repeats=PROBE_REPEATS):
    code = ("import time; t = time.perf_counter(); import d21link; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=COMMAND_TIMEOUT_S).stdout
        samples.append(float(out))
    return statistics.median(samples)


# -- layer metrics ------------------------------------------------------------

def layer_metrics(agg, ops):
    """Per-layer metrics from merged aggregates (see ``metrics.PER_LAYER``)."""
    stats, tallies = agg["stats"], agg["tallies"]

    def total(name, phases, field):
        return sum(stats.get((name, phase), (0, 0.0, 0.0))[field]
                   for phase in phases)

    def tally(name, phases):
        return sum(tallies.get((name, phase), 0.0) for phase in phases)

    op, loop = ("op",), ("op", "check")
    setup, verify = ("setup",), ("verify",)
    calls, outer, self_time = 0, 1, 2
    m = {}
    for short in ("laurent_mul", "ratfunc_mul", "laurent_add", "ratfunc_add"):
        m[f"ring.{short}_calls"] = total(f"ring.{short}", op, calls) / ops
        m[f"ring.{short}_s"] = total(f"ring.{short}", op, self_time) / ops
    m["ring.poly_gcd_calls"] = total("ring.poly_gcd", setup, calls)
    m["ring.poly_gcd_s"] = total("ring.poly_gcd", setup, self_time)
    m["ring.to_integer_laurent_s"] = total("ring.to_integer_laurent", setup,
                                           self_time)
    m["superlinalg.compose_calls"] = total("superlinalg.compose", setup, calls)
    m["superlinalg.compose_s"] = total("superlinalg.compose", setup, outer)
    m["superlinalg.invert_s"] = total("superlinalg.invert", setup, outer)
    m["representation.root_vector_s"] = total("representation.root_vector",
                                              setup, outer)
    m["representation.duality_maps_s"] = total("representation.duality_maps",
                                               setup, outer)
    m["representation.check_relations_s"] = total(
        "representation.check_relations", verify, outer)
    m["rmatrix.braiding_build_s"] = total("rmatrix.braiding", setup, outer)
    m["rmatrix.exp_factor_s"] = total("rmatrix.exp_factor", setup, outer)
    m["rmatrix.r_matrix_s"] = total("rmatrix.r_matrix", setup, outer)
    m["rmatrix.compare_reference_s"] = total("rmatrix.compare_reference",
                                             verify, outer)
    m["tangle.fold_s"] = total("tangle.fold", loop, self_time) / ops
    m["tangle.closure_slices_s"] = total("tangle.closure_slices", loop,
                                         outer) / ops
    m["tangle.slices"] = tally("tangle.slices", loop) / ops
    m["tangle.peak_strands"] = tally("tangle.peak_strands", loop) / ops
    m["dubrovnik.poly_s"] = total("dubrovnik.poly", loop, self_time) / ops
    m["dubrovnik.branches"] = (total("dubrovnik.switched", loop, calls)
                               + total("dubrovnik.smoothed", loop, calls)) / ops
    m["dubrovnik.twovar_mul_calls"] = total("dubrovnik.twovar_mul", loop,
                                            calls) / ops
    m["dubrovnik.twovar_mul_s"] = total("dubrovnik.twovar_mul", loop,
                                        self_time) / ops
    m["dubrovnik.graph_build_s"] = total("dubrovnik.graph_build", loop,
                                         outer) / ops
    m["dubrovnik.specialize_s"] = total("dubrovnik.specialize", loop,
                                        outer) / ops
    for suite in ("relations", "rmatrix", "category", "skein"):
        m[f"verify.{suite}_s"] = total(f"verify.{suite}", verify, outer)
    return m


# -- main ---------------------------------------------------------------------

def traced_setup_and_verify(tracer):
    """Cold set-up and the four verification suites, in-process and traced."""
    import d21link  # noqa: F401
    import d21link.verify as verify
    tracer.install()
    tracer.phase = "setup"
    build_tables()
    tracer.phase = "verify"
    reports = verify.run_suites("all")
    tracer.phase = "idle"
    tracer.uninstall()
    return {} if all(r.ok for r in reports) else {"verify": "in-process verify failed"}


def run_in_process(args, result):
    """fold and skein; returns the latencies of every operation attempted."""
    workload = args.workload
    op = fold_value if workload == "fold" else skein_value
    stream = words(workload, args.seed)
    if not args.trace:
        timed_setup()
        result["passes"] = []
        result["reference_s"] = REFERENCE_S
        result["window"] = WINDOW
        done = in_process_loop(op, stream, args.seconds,
                               passes=result["passes"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["failures"] = check_in_process(workload, done, args.corrupt)
        result["words"] = [text for text, *_ in done]
        return [latency for _, _, latency, _ in done]

    tracer = Tracer()
    failures = traced_setup_and_verify(tracer)
    plain = in_process_loop(op, stream, args.seconds / 2)
    texts = [text for text, *_ in plain]
    tracer.install()
    tracer.phase = "op"
    traced = in_process_loop(op, texts, tracer=tracer)
    tracer.phase = "check"
    failures.update(check_in_process(workload, traced, args.corrupt, tracer))
    tracer.phase = "idle"
    tracer.uninstall()
    for index, ((text, v, _, _), (_, w, _, _)) in enumerate(zip(plain, traced)):
        if v != w:
            failures[f"untraced {index}"] = f"{text}: traced value differs"
    probe = cli_loop(itertools.islice(words("cli", args.seed), 1), args.tmp)
    failures.update({f"cli {k}": v for k, v in check_cli(probe, False).items()})
    result["failures"] = failures
    result["words"] = texts
    aggregate = merge({"stats": {}, "tallies": {}}, tracer.export())
    finish_trace(args, result, aggregate,
                 [row[2] for row in plain], [row[2] for row in traced],
                 probe, {"spans": tracer.spans})
    return [row[2] for row in plain + traced]


def run_cli(args, result):
    """cli; returns the latencies of every command attempted."""
    stream = words("cli", args.seed)
    if not args.trace:
        before = tree_snapshot(args.work)
        result["passes"] = []
        result["reference_s"] = REFERENCE_PROCESS_S
        result["window"] = PROCESS_WINDOW
        records = cli_loop(stream, args.tmp, args.seconds, MIN_CLI_CYCLES,
                           passes=result["passes"])
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
        failures = check_cli(records, args.corrupt)
        if tree_snapshot(args.work) != before:
            failures["tree"] = "files were written into the checkout"
        result["failures"] = failures
        result["words"] = list(dict.fromkeys(r["word"] for r in records))
        return [r["latency"] for r in records]

    tracer = Tracer()
    failures = traced_setup_and_verify(tracer)
    aggregate = merge({"stats": {}, "tallies": {}}, tracer.export())
    plain = cli_loop(stream, args.tmp, args.seconds / 2)
    plan = list(dict.fromkeys(r["word"] for r in plain))
    stats_dir = tempfile.mkdtemp(dir=args.tmp)
    traced = cli_loop(plan, args.tmp, stats_dir=stats_dir)
    child_spans = []
    for index in range(len(traced)):
        path = os.path.join(stats_dir, f"{index}.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        merge(aggregate, payload["aggregate"])
        child_spans.append({"command": traced[index]["command"],
                            "spans": payload["spans"]})
    failures.update(check_cli(plain + traced, args.corrupt))
    result["failures"] = failures
    result["words"] = plan
    finish_trace(args, result, aggregate,
                 [r["latency"] for r in plain], [r["latency"] for r in traced],
                 plain, {"spans": tracer.spans, "child_spans": child_spans})
    return [r["latency"] for r in plain + traced]


def finish_trace(args, result, aggregate, plain, traced, cli_records, spans):
    """Per-layer metrics, process probes and overhead; writes the span file."""
    layers = layer_metrics(aggregate, max(1, len(traced)))
    for command in CLI_COMMANDS:
        times = [r["latency"] for r in cli_records if r["command"] == command]
        layers[f"cli.{command}_s"] = statistics.median(times) if times else 0.0
    layers["cli.interpreter_s"] = median_wall([sys.executable, "-c", "pass"])
    layers["cli.import_s"] = import_seconds()
    untraced = sum(plain[:len(traced)])
    layers["trace.overhead_pct"] = (
        100.0 * (sum(traced) - untraced) / untraced if untraced else 0.0)
    layers["trace.ops"] = float(len(traced))
    result["layers"] = layers
    result["layer_self_s"] = {phase: layer_self_times(aggregate, (phase,))
                              for phase in ("setup", "verify", "op", "check")}
    payload = {"workload": args.workload, "seed": args.seed,
               "fields": ["name", "start", "end", "parent", "phase", "op"],
               "layer_self_s": result["layer_self_s"], "layers": layers}
    payload.update(spans)
    with open(args.trace_file, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=("fold", "skein", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--work", help="scratch directory inside the checkout")
    parser.add_argument("--out")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_s = timed_setup()
        passes = [calibration_s() for _ in range(SETUP_PASSES)]
        print(json.dumps({"setup_s": setup_s,
                          "pass_s": statistics.median(passes)}))
        return 0

    args.tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work)
    result = {"workload": args.workload}
    try:
        if args.workload == "cli":
            latencies = run_cli(args, result)
        else:
            latencies = run_in_process(args, result)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    result["latencies"] = latencies
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
