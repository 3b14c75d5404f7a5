"""Command-line surface: invariants, skein oracle, braiding dumps, verification.

Commands::

    d21link invariant --braid "2: 1 1 1" [--json]
    d21link invariant --sliced diagram.txt [--json]
    d21link dubrovnik --braid "2: 1 1" [--specialize] [--json]
    d21link braiding [--format text|json|csv] [--split]
    d21link verify --suite relations|rmatrix|category|skein|all [--json] [-v]

Output is deterministic: polynomials in canonical ascending-exponent form,
matrices row-major (split blocks use the fixed parity-block basis order).
``invariant --braid`` cancels inverse pairs, also across the ends of the
word (cyclic free reduction), and traces the reduced word on the
cohomology of the odd generator E_1: its 2^n start columns in
{v4, v5}^n instead of all 6^n (see :mod:`d21link.tangle`), as
``invariant --sliced`` folds over the same cut-down tables.  Its
``--json`` stats describe the reduced word, whose text is the ``"braid"``
entry of the ``"trace"`` key: ``"peak_support"`` and
``"columns_evaluated"`` are its 2^n columns, one state each, in one block
(``"blocks"``, ``"peak_block_support"``), of the 6^n ``"columns"`` of the
trace.  ``dubrovnik --json`` adds a ``"stats"`` key with the counts of the
skein recursion: ``"nodes"``, ``"memo_hits"``, ``"curls_removed"`` and
``"bigons_removed"``.  ``verify -v`` streams a progress line with the
wall seconds of the braiding build, then one per check group and one with
each suite's wall seconds, to stdout, or to stderr under ``--json``.

The environment variable ``D21LINK_SKEIN_BUDGET`` overrides the crossing
and strand budget of the skein oracle (default 16), and
``D21LINK_SUPPORT_BUDGET`` the most states that ``invariant`` and the
``skein`` suite of ``verify`` may hold (default 4096 = 2^12): the 2^n
columns of a braid trace, or the fold of ``--sliced`` after any event;
each must be an integer of at least 1.
Exit status is 0 on success and, for ``verify``, iff every check passes;
bad input (a bad budget variable or a ``--sliced`` file past 2^20
characters), an exceeded budget or a module table that fails a check
exits 2.

Each command is a one-shot process: ``python -m d21link.cli`` and the
installed ``d21link`` script (through :func:`d21link.run`) run
:func:`run`, which switches the cyclic garbage collector off (both entries
do so before the layers import) and, once :func:`main` returns or argparse
ends ``--help`` or a usage error with ``SystemExit``, ends the process
with ``os._exit`` and that exit status, so that neither the collection at
interpreter exit nor the teardown of the modules runs.  Stdout is flushed
first, inside the error handling, so a write that fails there (stdout on a
full device, or a pipe whose reader has gone) gives one ``error:`` line
and exit 2; then stderr is flushed.  An ``error:`` line that stderr
itself fails to take is dropped, and the status stays 2.  Ending the
process so is safe because only stdout and stderr are open by then
(``braiding_deviations.txt`` and a ``--sliced`` file are closed by their
``with`` blocks), and because the package makes no reference cycles on its
hot paths: every object a command builds is freed by reference counting or
lives until the process exits, which it does right after the command.
:func:`main` itself leaves the collector alone, so library callers, the
tests and anything else that calls it in process keep their own GC
settings.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()    # before the layers import; see run()

import argparse
import contextlib
import os
import sys
from typing import List, NoReturn, Optional

from . import dubrovnik
from .representation import DIM
from .ring import NotLaurentInQ, excerpt, format_q_laurent, q_string
from .rmatrix import EVEN_PAIRS, ODD_PAIRS, TableError, braiding, split_blocks
from .tangle import (DEFAULT_SUPPORT_BUDGET, DiagramError, ascii_integers,
                     evaluate_sliced, invariant, parse_braid,
                     parse_sliced_text)
from .verify import run_suites

DEVIATIONS_FILE = "braiding_deviations.txt"
SLICED_MAX_CHARS = 2 ** 20      # most characters a --sliced file may hold


class BudgetSettingError(ValueError):
    """A budget environment variable that is not an integer of at least 1."""


def _budget(variable: str, default: int) -> int:
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        (value,) = ascii_integers(raw)
    except ValueError:
        raise BudgetSettingError(
            f"{variable} is not an integer: {excerpt(raw)}") from None
    if value < 1:
        raise BudgetSettingError(f"{variable} must be at least 1: {excerpt(raw)}")
    return value


def _skein_budget() -> int:
    return _budget("D21LINK_SKEIN_BUDGET", dubrovnik.DEFAULT_BUDGET)


def _support_budget() -> int:
    return _budget("D21LINK_SUPPORT_BUDGET", DEFAULT_SUPPORT_BUDGET)


def _print_json(payload) -> None:
    import json     # loaded by the commands that write JSON only
    print(json.dumps(payload, indent=2))


def _cmd_invariant(args: argparse.Namespace) -> int:
    budget = _support_budget()
    if args.braid is not None:
        result = invariant(parse_braid(args.braid), budget)
    else:
        with open(args.sliced, "r", encoding="utf-8-sig") as handle:
            text = handle.read(SLICED_MAX_CHARS + 1)    # not all of /dev/zero
        if len(text) > SLICED_MAX_CHARS:
            raise DiagramError(f"sliced file {excerpt(args.sliced)} is longer "
                               f"than {SLICED_MAX_CHARS} characters")
        result = evaluate_sliced(parse_sliced_text(text), budget)
    if args.json:
        payload = {
            "value": result.canonical(),
            "stats": {
                "slices": result.slices,
                "peak_strands": result.peak_strands,
                "peak_dimension": result.peak_dimension,
                "peak_support": result.peak_support,
            },
        }
        if result.trace is not None:
            payload["trace"] = result.trace._asdict()
        _print_json(payload)
    else:
        print(result.canonical())
    return 0


def _cmd_dubrovnik(args: argparse.Namespace) -> int:
    budget = _skein_budget()
    graph = dubrovnik.braid_closure_graph(parse_braid(args.braid), budget)
    stats = {} if args.json else None
    poly = dubrovnik.dubrovnik_poly(graph, budget, stats=stats)
    if args.specialize:
        rendered = format_q_laurent(dubrovnik.specialize(poly))
    else:
        rendered = poly.canonical()
    if args.json:
        _print_json({"value": rendered,
                     "specialized": bool(args.specialize),
                     "stats": stats})
    else:
        print(rendered)
    return 0


def _matrix_strings(rows) -> List[List[str]]:
    return [[q_string(value) for value in row] for row in rows]


def _cmd_braiding(args: argparse.Namespace) -> int:
    bundle = braiding()
    if args.split:
        even, odd = split_blocks(bundle.c)
        blocks = {
            "c0_basis": [f"v{i}(x)v{j}" for i, j in EVEN_PAIRS],
            "c0": _matrix_strings(even),
            "c1_basis": [f"v{i}(x)v{j}" for i, j in ODD_PAIRS],
            "c1": _matrix_strings(odd),
        }
    else:
        pairs = [(i, j) for i in range(1, DIM + 1) for j in range(1, DIM + 1)]
        rows = [[bundle.c.entry(r, c) for c in range(DIM * DIM)]
                for r in range(DIM * DIM)]
        blocks = {
            "basis": [f"v{i}(x)v{j}" for i, j in pairs],
            "c": _matrix_strings(rows),
        }
    if args.format == "json":
        _print_json(blocks)
    elif args.format == "csv":
        for key in blocks:
            if key.endswith("basis"):
                continue
            for row in blocks[key]:
                print(",".join(row))
    else:
        for key in blocks:
            if key.endswith("basis"):
                continue
            print(f"[{key}]")
            width = max(len(cell) for row in blocks[key] for cell in row)
            for row in blocks[key]:
                print("  ".join(cell.rjust(width) for cell in row))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # under --json the progress lines go to stderr, so stdout stays JSON
    stream = sys.stderr if args.json else sys.stdout
    progress = ((lambda msg: print(f"... {msg}", file=stream, flush=True))
                if args.verbose else None)
    reports = run_suites(args.suite, budget=_skein_budget(),
                         deviations_path=DEVIATIONS_FILE, progress=progress,
                         support_budget=_support_budget())
    ok = all(report.ok for report in reports)
    if args.json:
        _print_json({"ok": ok, "suites": [r.as_dict() for r in reports]})
    else:
        for report in reports:
            for line in report.lines(verbose=args.verbose):
                print(line)
        print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d21link",
        description="Exact framed-link invariants from a six-dimensional "
                    "quantum supermodule, with a Dubrovnik skein oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="evaluate the link invariant")
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("--braid", help="braid word, e.g. '2: 1 1 1'")
    group.add_argument("--sliced", help="file of sliced-diagram events")
    p_inv.add_argument("--json", action="store_true", help="machine output")
    p_inv.set_defaults(func=_cmd_invariant)

    p_dub = sub.add_parser("dubrovnik", help="run the skein oracle")
    p_dub.add_argument("--braid", required=True, help="braid word")
    p_dub.add_argument("--specialize", action="store_true",
                       help="substitute a=-1/q, z=q-1/q")
    p_dub.add_argument("--json", action="store_true", help="machine output")
    p_dub.set_defaults(func=_cmd_dubrovnik)

    p_br = sub.add_parser("braiding", help="dump the braiding matrix")
    p_br.add_argument("--format", choices=("text", "json", "csv"),
                      default="text")
    p_br.add_argument("--split", action="store_true",
                      help="emit the parity blocks c0/c1 instead of the "
                           "full 36x36 matrix")
    p_br.set_defaults(func=_cmd_braiding)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all",
                       choices=("relations", "rmatrix", "category", "skein",
                                "all"))
    p_ver.add_argument("--json", action="store_true", help="machine output")
    p_ver.add_argument("-v", "--verbose", action="store_true",
                       help="stream per-check progress")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def _failed(exc: Exception) -> int:
    """2, once one ``error:`` line is printed to stderr, if stderr takes it."""
    with contextlib.suppress(OSError):      # no stream left to report it on
        print(f"error: {exc}", file=sys.stderr)
    return 2


def _flushed(status: int) -> int:
    """``status`` once stdout is flushed, or 2 and one ``error:`` line."""
    try:
        sys.stdout.flush()      # a write failure is reported here, not at exit
    except OSError as exc:
        return _failed(exc)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
    except (DiagramError, NotLaurentInQ, TableError,
            dubrovnik.SkeinBudgetExceeded, BudgetSettingError, OSError,
            UnicodeDecodeError) as exc:
        return _failed(exc)
    return _flushed(status)


def run() -> NoReturn:
    """The process entry of ``d21link`` and ``python -m d21link.cli``:
    :func:`main`, or argparse's ``SystemExit``, with the collector off,
    then ``os._exit`` with its status once stdout and stderr are flushed."""
    gc.disable()
    try:
        status = main()
    except SystemExit as stop:      # --help, or a usage error
        status = _flushed(stop.code)
    with contextlib.suppress(OSError):      # no stream left to report it on
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
