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
``--json`` stats describe the reduced word, whose text is their
``"braid"`` entry: ``"peak_support"`` is its 2^n columns, one state
each.  ``verify`` traces the words of its presentation checks the same
way, each as written.  ``dubrovnik --json`` adds a ``"stats"`` key with
the counts of the skein recursion:
``"nodes"``, ``"memo_hits"``, ``"curls_removed"`` and
``"bigons_removed"``.  ``verify -v`` streams a progress line with the
wall seconds of the layer imports, one with those of each phase of the
braiding build (N_1..N_7, R, then c and c^-1), one with their sum, then
one per check group and one with each suite's wall seconds, to stdout,
or to stderr under ``--json``.
In text mode ``verify`` prints each suite's lines as soon as the suite
has run, so a table that a later suite refuses (exit 2) leaves them on
stdout, and under ``--json`` prints them as ``{"ok": false, "suites":
[...]}`` before the ``error:`` line.  ``verify`` writes no file.

The environment variable ``D21LINK_SKEIN_BUDGET`` overrides the crossing
and strand budget of ``dubrovnik`` (default 16), and
``D21LINK_SUPPORT_BUDGET`` the most states that ``invariant`` may hold
(default 4096 = 2^12): the 2^n columns of a braid trace, or the fold of
``--sliced`` after any event; each must be an integer of at least 1.
``verify`` reads neither: its inputs are fixed, and run at the defaults.
Exit status is 0 on success and, for ``verify``, iff every check passes;
bad input (a bad budget variable or a ``--sliced`` file past 2^20
characters), an exceeded budget or a module table that fails a check
exits 2: :mod:`d21link.diagram` reads the input, and its ``DiagramError``
covers the budget errors of both pipelines.

Arguments are read by :func:`parse_args` in one pass over
:data:`COMMANDS`, the table of the commands and their options, from which
the help and usage text are generated too.  It takes full option names
only, as ``--opt value`` or ``--opt=value`` in any order.  ``-h`` or
``--help`` prints help to stdout and ends with ``SystemExit(0)``; a usage
error prints the usage line and one ``d21link[ <command>]: error:`` line to
stderr and ends with ``SystemExit(2)``.

Each command is a one-shot process: ``python -m d21link.cli`` and the
installed ``d21link`` script (through :func:`d21link.run`) run
:func:`run`, which switches the cyclic garbage collector off (both entries
do so before the layers import) and, once :func:`main` returns or ends
with such a ``SystemExit``, ends the process with ``os._exit`` and that
exit status, so that neither the collection at interpreter exit nor the
teardown of the modules runs.  Stdout is flushed first, inside the error
handling, so a write that fails there (stdout on a full device, or a pipe
whose reader has gone) gives one ``error:`` line and exit 2; then stderr
is flushed.  An ``error:`` line that stderr
itself fails to take is dropped, and the status stays 2.  Ending the
process so is safe because only stdout and stderr are open by then (a
``--sliced`` file is closed by :func:`d21link.diagram.read_sliced`), and
because the package makes no reference cycles on its hot paths: every
object a command builds is freed by reference counting or lives until the
process exits, which it does right after the command.
:func:`main` itself leaves the collector alone, so library callers, the
tests and anything else that calls it in process keep their own GC
settings.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()    # before the layers import; see run()

import contextlib
import os
import re
import sys
from collections.abc import Callable, Sequence
from time import perf_counter
from types import SimpleNamespace

TYPE_CHECKING = False     # the typing module is never loaded at run time
if TYPE_CHECKING:
    from typing import NoReturn

_imports_start = perf_counter()
from . import dubrovnik
from .diagram import DiagramError, ascii_integer, parse_braid, read_sliced
from .representation import DIM
from .ring import NotLaurentInQ, excerpt, format_q_laurent, q_string
from .rmatrix import (EVEN_PAIRS, ODD_PAIRS, TableError, braiding, pair_label,
                      split_blocks)
from .tangle import DEFAULT_SUPPORT_BUDGET, evaluate_sliced, invariant
from .verify import SUITES, suite_reports

# wall seconds of the layer imports above, which ``verify -v`` reports
LAYERS_IMPORT_S = perf_counter() - _imports_start


class BudgetSettingError(ValueError):
    """A budget environment variable that is not an integer of at least 1."""


# the errors that end a command with one ``error:`` line and exit 2
HANDLED_ERRORS = (DiagramError, NotLaurentInQ, TableError, BudgetSettingError,
                  OSError, UnicodeDecodeError)


def _budget(variable: str, default: int) -> int:
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        value = ascii_integer(raw)
    except ValueError:
        raise BudgetSettingError(
            f"{variable} is not an integer: {excerpt(raw)}") from None
    if value < 1:
        raise BudgetSettingError(f"{variable} must be at least 1: {excerpt(raw)}")
    return value


def _print_json(payload) -> None:
    import json     # loaded by the commands that write JSON only
    print(json.dumps(payload, indent=2))


def _cmd_invariant(args: SimpleNamespace) -> int:
    budget = _budget("D21LINK_SUPPORT_BUDGET", DEFAULT_SUPPORT_BUDGET)
    if args.braid is not None:
        result = invariant(parse_braid(args.braid), budget)
    else:
        result = evaluate_sliced(read_sliced(args.sliced), budget)
    if args.json:
        payload = {
            "value": result.canonical(),
            "stats": {
                "slices": result.slices,
                "peak_strands": result.peak_strands,
                "peak_support": result.peak_support,
            },
        }
        if result.braid is not None:
            payload["stats"]["braid"] = str(result.braid)
        _print_json(payload)
    else:
        print(result.canonical())
    return 0


def _cmd_dubrovnik(args: SimpleNamespace) -> int:
    budget = _budget("D21LINK_SKEIN_BUDGET", dubrovnik.DEFAULT_BUDGET)
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


def _cmd_braiding(args: SimpleNamespace) -> int:
    bundle = braiding()
    if args.split:
        even, odd = split_blocks(bundle.c)
        blocks = {
            "c0_basis": [pair_label(pair) for pair in EVEN_PAIRS],
            "c0": even,
            "c1_basis": [pair_label(pair) for pair in ODD_PAIRS],
            "c1": odd,
        }
    else:
        pairs = [(i, j) for i in range(1, DIM + 1) for j in range(1, DIM + 1)]
        blocks = {
            "basis": [pair_label(pair) for pair in pairs],
            "c": [[q_string(bundle.c.entry(r, c)) for c in range(DIM * DIM)]
                  for r in range(DIM * DIM)],
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


def _cmd_verify(args: SimpleNamespace) -> int:
    # under --json the progress lines go to stderr, so stdout stays JSON
    stream = sys.stderr if args.json else sys.stdout
    progress = ((lambda msg: print(f"... {msg}", file=stream, flush=True))
                if args.verbose else None)
    if progress is not None:
        progress(f"layers imported in {LAYERS_IMPORT_S:.4f} s")
    found = suite_reports(args.suite, progress)
    reports = []
    # in text mode each suite's lines print as soon as it has run, and
    # under --json a handled error prints the finished suites, so that a
    # later suite that raises leaves them on stdout
    try:
        for report in found:
            reports.append(report)
            if not args.json:
                for line in report.lines(verbose=args.verbose):
                    print(line)
    except HANDLED_ERRORS:
        if args.json:
            _print_json({"ok": False,
                         "suites": [r.as_dict() for r in reports]})
        raise
    ok = all(report.ok for report in reports)
    if args.json:
        _print_json({"ok": ok, "suites": [r.as_dict() for r in reports]})
    else:
        print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


class Option:
    """One option of a command: its names, its help line, ``value`` (it
    takes one; a flag otherwise, False unless given), the choices and the
    default of its value, ``required``, and ``one_of``: exactly one of a
    command's ``one_of`` options must be given.  A plain class, as no
    class of the package is a ``NamedTuple`` (see README, Notes)."""
    __slots__ = ("names", "help", "value", "choices", "default", "required",
                 "one_of")

    def __init__(self, names: tuple[str, ...], help: str, value: bool = False,
                 choices: tuple[str, ...] = (), default: str | None = None,
                 required: bool = False, one_of: bool = False):
        self.names, self.help, self.value = names, help, value
        self.choices, self.default = choices, default
        self.required, self.one_of = required, one_of


class Command:
    __slots__ = ("help", "func", "options")

    def __init__(self, help: str, func: Callable[[SimpleNamespace], int],
                 options: tuple[Option, ...]):
        self.help, self.func, self.options = help, func, options


HELP = Option(("-h", "--help"), "show this help message and exit")
DESCRIPTION = ("Exact framed-link invariants from a six-dimensional quantum "
               "supermodule,\nwith a Dubrovnik skein oracle.")
COMMANDS = {
    "invariant": Command("evaluate the link invariant", _cmd_invariant, (
        Option(("--braid",), "braid word, e.g. '2: 1 1 1'", value=True,
               one_of=True),
        Option(("--sliced",), "file of sliced-diagram events", value=True,
               one_of=True),
        Option(("--json",), "machine output"))),
    "dubrovnik": Command("run the skein oracle", _cmd_dubrovnik, (
        Option(("--braid",), "braid word", value=True, required=True),
        Option(("--specialize",), "substitute a=-1/q, z=q-1/q"),
        Option(("--json",), "machine output"))),
    "braiding": Command("dump the braiding matrix", _cmd_braiding, (
        Option(("--format",), "output format", value=True,
               choices=("text", "json", "csv"), default="text"),
        Option(("--split",), "emit the parity blocks c0/c1 instead of the "
                             "full 36x36 matrix"))),
    "verify": Command("run verification suites", _cmd_verify, (
        Option(("--suite",), "suite to run", value=True,
               choices=(*SUITES, "all"),
               default="all"),
        Option(("--json",), "machine output"),
        Option(("-v", "--verbose"), "stream per-check progress"))),
}
NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"    # compiled on first use only


def _dest(option: Option) -> str:
    return option.names[-1].lstrip("-")


def _label(option: Option) -> str:
    return "/".join(option.names)


def _shown(option: Option) -> str:
    """The option as usage shows it: its first name and its value."""
    if not option.value:
        return option.names[0]
    if option.choices:
        return f"{option.names[0]} {{{','.join(option.choices)}}}"
    return f"{option.names[0]} {_dest(option).upper()}"


def _invalid(value: str, choices) -> str:
    return (f"invalid choice: {value!r} (choose from "
            f"{', '.join(map(repr, choices))})")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: d21link [-h] {{{','.join(COMMANDS)}}} ..."
    options = COMMANDS[command].options
    group = [_shown(o) for o in options if o.one_of]    # listed first
    parts = ["[-h]"] + ([f"({' | '.join(group)})"] if group else [])
    parts += [_shown(o) if o.required else f"[{_shown(o)}]"
              for o in options if not o.one_of]
    return f"usage: d21link {command} {' '.join(parts)}"


def _help(command: str | None) -> str:
    if command is None:
        rows = [(name, spec.help) for name, spec in COMMANDS.items()]
        text, options = f"{DESCRIPTION}\n\ncommands:\n{_rows(rows)}\n", ()
    else:
        text, options = f"{COMMANDS[command].help}\n", COMMANDS[command].options
    rows = [(", ".join(o.names) + (f" {_dest(o).upper()}" if o.value else ""),
             o.help + (f": {', '.join(o.choices)}" if o.choices else "")
             + (f" (default: {o.default})" if o.default else ""))
            for o in (HELP, *options)]
    return f"{_usage(command)}\n\n{text}\noptions:\n{_rows(rows)}\n"


def _rows(rows) -> str:
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"  {name.ljust(width)}  {text}" for name, text in rows)


def _stop(status: int, text: str, stream) -> NoReturn:
    """Write ``text``, dropped if the write fails, and end with
    ``SystemExit(status)``."""
    with contextlib.suppress(OSError):
        stream.write(text)
    raise SystemExit(status)


def _usage_error(command: str | None, message: str,
                 about: str | None = None) -> NoReturn:
    """The usage of ``command`` (None for the top level) and ``message``,
    about the argument named ``about`` if one is given, then exit 2."""
    prog = "d21link" if command is None else f"d21link {command}"
    if about is not None:
        message = f"argument {about}: {message}"
    _stop(2, f"{_usage(command)}\n{prog}: error: {message}\n", sys.stderr)


def _option_at(token: str, names: dict[str, Option]):
    """``(option, its "=" value or None)`` for a token that names one of
    ``names``, ``(None, None)`` for any other option, or None for a value.
    A token is an option if it starts with ``-`` and is not ``-`` alone, a
    negative number or text with a space; a prefix of an option's name
    names none."""
    if token in names:
        return names[token], None
    name, equals, value = token.partition("=")
    if equals and name in names:
        return names[name], value
    if (token[:1] != "-" or token == "-" or " " in token
            or re.match(NEGATIVE_NUMBER, token)):
        return None
    return None, None


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command and its options in ``argv``, as fields of a namespace
    (``func`` the command's handler), in one pass over :data:`COMMANDS`.
    ``-h``/``--help`` prints help to stdout and a usage error prints the
    usage line and one ``error:`` line to stderr, each ending with
    ``SystemExit`` (0 and 2).  The error messages are worded as in the
    standard library's parser."""
    args = SimpleNamespace(command=None)
    names = dict.fromkeys(HELP.names, HELP)
    seen, chosen, extras, index = set(), None, [], 0
    while index < len(argv):
        token, index = argv[index], index + 1
        found = _option_at(token, names)
        if found is None and args.command is None:
            if token not in COMMANDS:
                _usage_error(None, _invalid(token, COMMANDS), "command")
            args.command, args.func = token, COMMANDS[token].func
            for option in COMMANDS[token].options:
                names.update(dict.fromkeys(option.names, option))
                setattr(args, _dest(option),
                        option.default if option.value else False)
            continue
        if found is None or found[0] is None:
            extras.append(token)
            continue
        option, value = found
        label = _label(option)
        if not option.value:
            if value is not None:
                _usage_error(args.command,
                             f"ignored explicit argument {value!r}", label)
            if option is HELP:
                _stop(0, _help(args.command), sys.stdout)
            value = True
        elif value is None:
            if index == len(argv) or _option_at(argv[index], names) is not None:
                _usage_error(args.command, "expected one argument", label)
            value, index = argv[index], index + 1
        if option.choices and value not in option.choices:
            _usage_error(args.command, _invalid(value, option.choices), label)
        if option.one_of:
            if chosen not in (None, option):
                _usage_error(args.command, f"not allowed with argument "
                                           f"{_label(chosen)}", label)
            chosen = option
        setattr(args, _dest(option), value)
        seen.add(option)
    if args.command is None:
        _usage_error(None, "the following arguments are required: command")
    options = COMMANDS[args.command].options
    missing = [_label(o) for o in options if o.required and o not in seen]
    if missing:
        _usage_error(args.command, "the following arguments are required: "
                                   + ", ".join(missing))
    if chosen is None and any(o.one_of for o in options):
        _usage_error(args.command, "one of the arguments "
                     + " ".join(_label(o) for o in options if o.one_of)
                     + " is required")
    if extras:
        _usage_error(None, "unrecognized arguments: " + " ".join(extras))
    return args


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


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        status = args.func(args)
    except HANDLED_ERRORS as exc:
        status = _failed(exc)
    return _flushed(status)


def run() -> NoReturn:
    """The process entry of ``d21link`` and ``python -m d21link.cli``:
    :func:`main`, or the ``SystemExit`` of :func:`parse_args`, with the
    collector off, then ``os._exit`` with its status once stdout and stderr
    are flushed."""
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
