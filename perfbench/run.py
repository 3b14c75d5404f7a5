"""d21link benchmark: one command, every workload, every output checked.

    python3 perfbench/run.py --workload fold|skein|cli|all --seed N
                             --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it needs only the
standard library and ``src/d21link``.  Each workload runs in its own fresh
interpreter (``worker.py``), as a closed loop with one client.  Before it,
``setup_s`` is measured in ``SETUP_SAMPLES`` further fresh interpreters
(import, cold braiding build, one trivial evaluation), half before the
worker and half after it, and their median is reported.  ``--trace 0``
reports the end-to-end metrics, every time at the reference machine speed
of ``calibration.py``;
``--trace 1`` reports the per-layer metrics of a separate traced run and
writes its spans to
``.perfbench_work/trace-<workload>-<seed>.json``.  See ``metrics.py`` for
every metric and ``workloads.py`` for the inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's inputs and environment.  The exit status is 0 only if
every output was correct.  Scratch files stay under ``.perfbench_work/``
in the checkout; nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

from calibration import REFERENCE_S, at_reference_speed
from metrics import END_TO_END, PER_LAYER
from workloads import words_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("fold", "skein", "cli")
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 60


def worker_timeout(seconds):
    """Time allowed to one worker: its loop, the checks after it, a margin."""
    return 3 * seconds + 60


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Every process reads and writes compiled bytecode, as an installed
    # package would, but under the scratch directory, never into src/.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python(args, env, timeout=SETUP_TIMEOUT_S):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout,
                          check=True).stdout


def setup_samples(env, count):
    """(set-up seconds, calibration pass seconds) from ``count`` fresh
    interpreters."""
    worker = os.path.join(HERE, "worker.py")
    samples = []
    for _ in range(count):
        sample = json.loads(python([worker, "--setup-only"], env))
        samples.append((sample["setup_s"], sample["pass_s"]))
    return samples


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Nearest rank: the sample of rank n - 10; returns (seconds, percentile).
    With ten samples or fewer this is the smallest one."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_workload(workload, seed, seconds, trace, corrupt):
    """Run one workload; returns (summary, metrics, record)."""
    env = child_env()
    setups = []
    if not trace:
        # One unmeasured start fills the bytecode cache, as an installed
        # package would have it; half the samples come before the loop and
        # half after, so one slow spell of a shared machine weighs less.
        setup_samples(env, 1)
        setups = setup_samples(env, SETUP_SAMPLES // 2)
    out = tempfile.NamedTemporaryFile(dir=WORK, suffix=".json", delete=False)
    out.close()
    trace_file = os.path.join(WORK, f"trace-{workload}-{seed}.json")
    args = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work", WORK, "--out", out.name,
            "--trace-file", trace_file]
    if corrupt:
        args.append("--corrupt")
    try:
        python(args, env, worker_timeout(seconds))
        with open(out.name, encoding="utf-8") as handle:
            raw = json.load(handle)
    finally:
        os.remove(out.name)
    if not trace:
        setups += setup_samples(env, SETUP_SAMPLES - len(setups))

    measured = raw["latencies"]
    attempted = len(measured)
    failed = len(raw["failures"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "words": len(raw["words"]),
        "words_sha256": words_digest(raw["words"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "D21LINK_SKEIN_BUDGET_set": "D21LINK_SKEIN_BUDGET" in os.environ,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": list(raw["failures"].values())[:5],
    }
    if trace:
        metrics = {name: (raw["layers"][name], unit)
                   for name, (unit, _moves, _src) in PER_LAYER.items()}
        record["trace_file"] = os.path.relpath(trace_file, ROOT)
        record["layer_self_s"] = raw["layer_self_s"]
    else:
        passes = raw["passes"]
        latencies = at_reference_speed(measured, passes, raw["reference_s"],
                                       raw["window"])
        tail_s, tail_pct = tail(latencies)
        values = {
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
            "success_rate": 1.0 - record["error_rate"],
            "setup_s": statistics.median(
                setup * REFERENCE_S / pass_s for setup, pass_s in setups),
        }
        record["measured"] = {
            "ops_per_s": attempted / sum(measured),
            "latency_p50_s": statistics.median(measured),
            "latency_tail_s": tail(measured)[0],
            "setup_s": statistics.median(setup for setup, _ in setups),
        }
        record["machine_speed"] = (raw["reference_s"]
                                   / statistics.median(passes))
        metrics = {name: (values[name], unit)
                   for name, (unit, _better, _bound) in END_TO_END.items()}
        record["latency_tail_percentile"] = round(tail_pct, 2)
        record["latency_samples"] = attempted
        record["setup_samples"] = len(setups)
    return {"attempted": attempted, "failed": failed}, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify the first expected value (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "d21link", "__init__.py")):
        print(f"error: no d21link sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.makedirs(WORK, exist_ok=True)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    records = []
    for workload in chosen:
        try:
            summary, values, record = run_workload(
                workload, args.seed, args.seconds, args.trace, args.corrupt)
        except subprocess.CalledProcessError as exc:
            print(f"error: {workload} worker failed:\n{exc.stderr}",
                  file=sys.stderr)
            return 1
        except subprocess.TimeoutExpired:
            print(f"error: {workload} worker timed out", file=sys.stderr)
            return 1
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"{workload:6s} {name:34s} {value:14.6g} {unit}")
        for note in record["failures"]:
            print(f"{workload:6s} FAILED {note}")
        records.append(record)
    print(json.dumps({"records": records}))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
