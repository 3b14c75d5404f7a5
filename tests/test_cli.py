import errno
import gc
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from d21link import dubrovnik, representation, rmatrix, tangle, verify
from d21link.cli import main, parse_args
from d21link.diagram import SLICED_MAX_CHARS, parse_braid
from d21link.ring import LAMBDA, Q, NotLaurentInQ, RatFunc
from d21link.superlinalg import tensor
from d21link.tangle import braid_closure_slices
from helpers import reference_parser
from test_tangle import perturbed
from test_transcript import BUDGET_VARIABLES, transcript_commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text_output(capsys):
    code, out, err = run_cli(capsys, "invariant", "--braid", "1:")
    assert code == 0
    assert out == "2\n"
    assert err == ""


def test_invariant_json_schema(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "invariant", "--braid", "2: 1 1 1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["value", "stats"]
    assert list(payload["stats"]) == ["slices", "peak_strands", "peak_support",
                                      "braid"]
    assert payload["value"] == "-2*q^-3"
    # the 2 ** 2 columns in the E_1-cohomology, one state each
    assert payload["stats"] == {"slices": 7, "peak_strands": 4,
                                "peak_support": 4, "braid": "2: 1 1 1"}
    # the stats describe the cyclically reduced word that was traced
    code, out, _ = run_cli(capsys, "invariant", "--braid", "3: -2 1 1 1 -1 2",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "4*q^-2 + 4*q^2"   # a Hopf link and a circle
    assert payload["stats"] == {"slices": 8, "peak_strands": 6,
                                "peak_support": 8, "braid": "3: 1 1"}
    # a sliced diagram traces no braid
    path = tmp_path / "closure.txt"
    diagram = braid_closure_slices(parse_braid("3: 1 1"))
    path.write_text("".join(f"{event.kind} {event.position}\n"
                            for event in diagram.events), encoding="utf-8")
    code, out, _ = run_cli(capsys, "invariant", "--sliced", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["value", "stats"]
    assert list(payload["stats"]) == ["slices", "peak_strands", "peak_support"]
    assert payload == {"value": "4*q^-2 + 4*q^2",
                       "stats": {"slices": 8, "peak_strands": 6,
                                 "peak_support": 8}}


def test_invariant_from_sliced_file(tmp_path, capsys):
    path = tmp_path / "kink.txt"
    path.write_text("cup 1\ncup 2\npos 1\ncap 2\ncap 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "invariant", "--sliced", str(path))
    assert code == 0
    assert out == "-2*q^-1\n"
    code, out, _ = run_cli(capsys, "invariant", "--sliced", str(path), "--json")
    assert code == 0
    assert list(json.loads(out)) == ["value", "stats"]     # no braid trace
    # a UTF-8 byte-order mark before the first event is skipped
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli(capsys, "invariant", "--sliced", str(path)) == \
        (0, "-2*q^-1\n", "")


def test_dubrovnik_outputs(capsys):
    code, out, _ = run_cli(capsys, "dubrovnik", "--braid", "1:", "--specialize")
    assert code == 0
    assert out == "1\n"
    code, out, _ = run_cli(capsys, "dubrovnik", "--braid", "2: 1 1")
    assert code == 0
    assert out == "-a^-1*z^-1 - a^-1*z + 1 + a*z^-1 + a*z\n"


def test_dubrovnik_json_adds_the_recursion_stats(capsys, monkeypatch):
    # an empty memo, as in a fresh process
    monkeypatch.setattr(dubrovnik, "_memo", {})
    for word, stats in (("2: 1 1 1", {"nodes": 7, "memo_hits": 3,
                                      "curls_removed": 5, "bigons_removed": 2}),
                        ("3: 1 -2 1 -2", {"nodes": 10, "memo_hits": 5,
                                          "curls_removed": 8,
                                          "bigons_removed": 3})):
        dubrovnik._memo.clear()
        code, text, _ = run_cli(capsys, "dubrovnik", "--braid", word)
        assert code == 0
        dubrovnik._memo.clear()
        code, out, _ = run_cli(capsys, "dubrovnik", "--braid", word, "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["value", "specialized", "stats"]
        assert payload["value"] + "\n" == text
        assert payload["stats"] == stats
    # a second evaluation of the same diagram is one memo hit
    code, out, _ = run_cli(capsys, "dubrovnik", "--braid", "3: 1 -2 1 -2",
                           "--json")
    assert json.loads(out)["stats"] == {"nodes": 1, "memo_hits": 1,
                                        "curls_removed": 0, "bigons_removed": 0}


def test_braiding_csv_shapes(capsys):
    code, out, _ = run_cli(capsys, "braiding", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 36
    assert all(len(row.split(",")) == 36 for row in rows)
    code, out, _ = run_cli(capsys, "braiding", "--format", "csv", "--split")
    rows = out.strip().splitlines()
    assert len(rows) == 36  # 20 + 16
    assert len(rows[0].split(",")) == 20
    assert len(rows[-1].split(",")) == 16


def test_braiding_json_anchors(capsys):
    code, out, _ = run_cli(capsys, "braiding", "--format", "json", "--split")
    assert code == 0
    payload = json.loads(out)
    assert payload["c0_basis"][0] == "v1(x)v1"
    assert payload["c0"][0][0] == "q"
    idx = payload["c1_basis"].index("v3(x)v1")
    assert payload["c1"][idx][idx] == "-q^-1 + q"


def test_output_determinism(capsys):
    runs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "braiding", "--format", "json", "--split")
        runs.add(out)
    assert len(runs) == 1
    runs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "invariant", "--braid", "3: 1 -2 1 -2")
        runs.add(out)
    assert len(runs) == 1


def test_verify_relations_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations")
    assert code == 0
    assert "suite relations:" in out
    assert out.strip().endswith("overall: PASS")


def test_verify_json_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["suite"] == "relations"
    assert all(check["passed"] for check in payload["suites"][0]["checks"])


def test_verbose_verify_streams_check_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations", "-v")
    assert code == 0
    assert "[PASS] relations:raise-lower-pair:1,1" in out


BRAIDING_TIME = re.compile(r"\.\.\. braiding ready in \d+\.\d{4} s")
LAYERS_TIME = re.compile(r"\.\.\. layers imported in (\d+\.\d{4}) s")
PHASE_TIME = re.compile(r"\.\.\. built (.+) in (\d+\.\d{4}) s")
PHASES = ["N_1..N_7 (phi, root vectors, scale)", "R",
          "c and c^-1 with the twist guard"]


def assert_build_lines(lines):
    """The braiding build's lines: one per phase, in the build's order,
    then the whole build, which is their sum."""
    timed = [PHASE_TIME.fullmatch(line) for line in lines[:3]]
    assert [m.group(1) for m in timed] == PHASES
    assert BRAIDING_TIME.fullmatch(lines[3])
    total = float(lines[3].split()[-2])
    assert abs(sum(float(m.group(2)) for m in timed) - total) <= 0.0003


def test_verbose_json_verify_keeps_progress_off_stdout(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "category",
                             "--json", "-v")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert "... checking duality pairing and zig-zags\n" in err
    assert all(line.startswith("... ") for line in err.splitlines())
    # text mode streams the same progress lines to stdout, after the
    # times of the layer imports and of the braiding
    code, out, err = run_cli(capsys, "verify", "--suite", "category", "-v")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert LAYERS_TIME.fullmatch(lines[0])
    assert_build_lines(lines[1:5])
    assert lines[5] == "... checking duality pairing and zig-zags"


def test_verbose_verify_reports_each_suite_wall_time(capsys):
    suites = ["relations", "rmatrix", "category", "skein"]
    pattern = re.compile(r"\.\.\. suite (\w+) ran in (\d+\.\d{4}) s")
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "-v")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert LAYERS_TIME.fullmatch(lines[0])      # the imports', first
    assert_build_lines(lines[1:5])              # then the braiding's
    timed = [pattern.fullmatch(line) for line in lines]
    assert [m.group(1) for m in timed if m] == suites
    assert all(float(m.group(2)) >= 0 for m in timed if m)
    # under --json on stderr, the imports' and the braiding's lines and one
    # for the one suite
    code, out, err = run_cli(capsys, "verify", "--suite", "relations",
                             "--json", "-v")
    assert code == 0 and json.loads(out)["ok"] is True
    layers_line, *build_lines, line = err.splitlines()
    assert LAYERS_TIME.fullmatch(layers_line)
    assert len(build_lines) == 4
    assert_build_lines(build_lines)
    assert pattern.fullmatch(line).group(1) == "relations"


def test_verbose_verify_times_are_spans_within_the_run(capsys):
    # the build phases and the suites run one after another inside main(),
    # so their times, each at least 0, sum to at most its wall time
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "-v")
    wall = time.perf_counter() - start
    assert code == 0
    spans = [float(seconds) for seconds in re.findall(
        r"^\.\.\. (?:built .+|suite \w+ ran) in (\d+\.\d{4}) s$", out, re.M)]
    assert len(spans) == len(PHASES) + len(verify.SUITES)
    assert min(spans) >= 0
    assert sum(spans) <= wall + 0.0001 * len(spans)     # each rounded


def test_only_verbose_verify_reports_the_layer_imports(tmp_path):
    # in a fresh process, where the figure is the import of every layer
    command = [sys.executable, "-m", "d21link.cli", "verify", "--suite",
               "relations"]
    code, verbose, err = run_process(command, ["-v"], tmp_path)
    assert code == 0 and err == ""
    first, *build_lines = verbose.splitlines()[:5]
    assert float(LAYERS_TIME.fullmatch(first).group(1)) > 0
    assert_build_lines(build_lines)     # the cold build, phase by phase
    # without -v the report prints no progress line and no passed check
    assert run_process(command, [], tmp_path) == (0, "".join(
        f"{line}\n" for line in verbose.splitlines()
        if not line.startswith(("... ", "[PASS] "))), "")


def test_parse_errors_exit_2(capsys, tmp_path):
    # every error message stays short, however long the input it quotes
    code, _, err = run_cli(capsys, "invariant", "--braid", "2: 7")
    assert code == 2
    assert "error:" in err and len(err.encode()) < 200
    code, _, err = run_cli(capsys, "invariant", "--sliced", "/nonexistent/file")
    assert code == 2 and len(err.encode()) < 200
    # a directory, files that are not UTF-8 (with and without a byte-order
    # mark), a line of 10,000 characters and a position of 4,000 digits
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"cup 1\ncap 1 \xe9\n")
    latin1_bom = tmp_path / "latin1_bom.txt"
    latin1_bom.write_bytes(b"\xef\xbb\xbfcup 1\ncap 1 \xe9\n")
    long_line = tmp_path / "long_line.txt"
    long_line.write_text("cup 1 " + "x " * 5000 + "\n", encoding="utf-8")
    long_position = tmp_path / "long_position.txt"
    long_position.write_text("cup " + "1" * 4000 + "\n", encoding="utf-8")
    for path, words in ((tmp_path, "error:"), (latin1, "error:"),
                        (latin1_bom, "error: 'utf-8' codec can't decode"),
                        (long_line, "error: line 1: expected 'kind position'"),
                        (long_position, "error: cup at 11111")):
        code, out, err = run_cli(capsys, "invariant", "--sliced", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(words) and len(err.encode()) < 200
    # a digit run before a bad character, a letter that int() rejects,
    # numbers past the int-string digit limit, digits that are not ASCII,
    # and a malformed word of 10,000 characters
    for text in ("2: " + "1" * 24 + "x", "2: 1-1", "2: 1 +1", "2: 1_0 1",
                 "9" * 5000 + ":", "2: " + "1" * 5000, "3: \u0661 \u0662",
                 "\u0663: 1 2", "-2: 1", "2: " + "1 " * 4998 + "x"):
        for command in ("invariant", "dubrovnik"):
            start = time.monotonic()
            code, out, err = run_cli(capsys, command, "--braid", text)
            assert time.monotonic() - start < 1.0
            assert (code, out) == (2, "")
            assert err.startswith("error: malformed braid text")
            assert len(err.encode()) < 200
    code, _, err = run_cli(capsys, "invariant", "--braid", "2: " + "1 " * 5000 + "x")
    assert err == "error: malformed braid text '2: 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1...' " \
                  "(10004 characters)\n"
    # numbers within the digit limit but out of range are clipped too
    for text in ("2: " + "1" * 4000, "9" * 4000 + ":"):
        code, _, err = run_cli(capsys, "invariant", "--braid", text)
        assert code == 2 and len(err.encode()) < 200


def test_a_sliced_file_one_character_past_the_limit_is_refused(capsys,
                                                               tmp_path):
    # a kink padded by a comment to the most characters a file may hold,
    # then to one more
    kink = "cup 1\npos 1\ncap 1\n# "
    path = tmp_path / "padded.txt"
    path.write_text(kink.ljust(SLICED_MAX_CHARS, "x"), encoding="utf-8")
    assert run_cli(capsys, "invariant", "--sliced", str(path)) == \
        (0, "-2*q\n", "")
    path.write_text(kink.ljust(SLICED_MAX_CHARS + 1, "x"), encoding="utf-8")
    code, out, err = run_cli(capsys, "invariant", "--sliced", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: sliced file ")
    assert err.endswith(f" is longer than {SLICED_MAX_CHARS} characters\n")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_an_endless_sliced_file_exits_2(tmp_path):
    # /dev/zero never ends: the read stops one character past the limit.
    # The child's address space is capped, so that a read to the end fails
    # fast instead of taking the machine's memory.
    resource = pytest.importorskip("resource")
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    cap = 2 ** 29
    env = {k: v for k, v in os.environ.items() if k not in BUDGET_VARIABLES}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-m", "d21link.cli", "invariant", "--sliced",
         "/dev/zero"], cwd=tmp_path, env=env, capture_output=True,
        encoding="utf-8", timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: sliced file '/dev/zero' is longer than "
               f"{SLICED_MAX_CHARS} characters\n")


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("D21LINK_SKEIN_BUDGET", "2")
    code, _, err = run_cli(capsys, "dubrovnik", "--braid", "2: 1 1 1")
    assert code == 2
    assert "budget" in err


def test_skein_budget_rejects_huge_unlink_at_once(capsys):
    start = time.monotonic()
    code, _, err = run_cli(capsys, "dubrovnik", "--braid", "100000000:")
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "100000000 strands exceed the budget 16" in err


def test_skein_budget_errors_quote_a_long_number_clipped(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "dubrovnik", "--braid", "9" * 4000 + ":")
    assert (code, out) == (2, "")
    assert err == (f"error: {'9' * 32}... (4000 characters) strands exceed "
                   f"the budget 16\n")
    assert len(err.encode()) <= 120
    monkeypatch.setenv("D21LINK_SKEIN_BUDGET", "2")
    code, _, err = run_cli(capsys, "dubrovnik", "--braid", "2: 1 1 1")
    assert (code, err) == (2, "error: 3 crossings exceed the budget 2\n")


def test_skein_budget_env_admits_a_wider_unlink(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "dubrovnik", "--braid", "17:", "--specialize")
    assert code == 2
    assert "17 strands exceed the budget 16" in err
    monkeypatch.setenv("D21LINK_SKEIN_BUDGET", "17")
    code, out, _ = run_cli(capsys, "dubrovnik", "--braid", "17:", "--specialize")
    assert (code, out) == (0, "65536\n")


def test_support_budget_rejects_huge_unlink_at_once(capsys):
    # 2 ** n columns are compared with the budget without being built
    for text, columns in (("13:", "8192"), ("100000000:", "2^100000000")):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "invariant", "--braid", text)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (f"error: {columns} trace columns exceed the support "
                       f"budget 4096\n")
    assert run_cli(capsys, "invariant", "--braid", "12:") == (0, "4096\n", "")


def test_support_budget_env_bounds_braids_and_sliced_diagrams(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", "2")
    code, _, err = run_cli(capsys, "invariant", "--braid", "2: 1 1 1")
    assert code == 2
    assert "4 trace columns exceed the support budget 2" in err
    code, out, _ = run_cli(capsys, "invariant", "--braid", "1:")
    assert (code, out) == (0, "2\n")
    path = tmp_path / "kink.txt"
    path.write_text("cup 1\ncup 2\npos 1\ncap 2\ncap 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "invariant", "--sliced", str(path))
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", "8192")
    assert run_cli(capsys, "invariant", "--braid", "13:") == (0, "8192\n", "")
    for raw, reason in (("many", "is not an integer"), ("0", "must be at least 1"),
                        ("-3", "must be at least 1"), ("1_2", "is not an integer"),
                        ("\u0661\u0662", "is not an integer")):
        monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", raw)
        assert run_cli(capsys, "invariant", "--braid", "1:") == (
            2, "", f"error: D21LINK_SUPPORT_BUDGET {reason}: {raw!r}\n")


def test_skein_budget_env_must_be_a_positive_integer(capsys, monkeypatch):
    for raw, reason in (("abc", "is not an integer"), ("0", "must be at least 1"),
                        ("1_6", "is not an integer"), ("+16", "is not an integer")):
        monkeypatch.setenv("D21LINK_SKEIN_BUDGET", raw)
        assert run_cli(capsys, "dubrovnik", "--braid", "1:") == (
            2, "", f"error: D21LINK_SKEIN_BUDGET {reason}: {raw!r}\n")
    # a long value is quoted by its first 32 characters and its length
    monkeypatch.setenv("D21LINK_SKEIN_BUDGET", "1" * 5000 + "x")
    assert run_cli(capsys, "dubrovnik", "--braid", "1:") == (
        2, "", "error: D21LINK_SKEIN_BUDGET is not an integer: "
               f"'{'1' * 32}...' (5001 characters)\n")


def test_support_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", "7")
    assert run_cli(capsys, "invariant", "--braid", "3: 1 -2 1 -2") == (
        2, "", "error: 8 trace columns exceed the support budget 7\n")
    # the unknot 3: 1 -2 is traced on its three strands, as written
    assert run_cli(capsys, "invariant", "--braid", "3: 1 -2") == (
        2, "", "error: 8 trace columns exceed the support budget 7\n")
    monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", "2")
    assert run_cli(capsys, "invariant", "--braid", "1:") == (0, "2\n", "")
    for raw, reason in (("lots", "is not an integer"), ("0", "must be at least 1"),
                        ("1_000", "is not an integer"),
                        ("\u0661\u0660", "is not an integer")):
        monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", raw)
        assert run_cli(capsys, "invariant", "--braid", "1:") == (
            2, "", f"error: D21LINK_SUPPORT_BUDGET {reason}: {raw!r}\n")


def test_support_budget_env_stops_a_sliced_fold_early(capsys, monkeypatch,
                                                     tmp_path):
    # 32 states in the E_1-cohomology at most without a budget
    path = tmp_path / "closure.txt"
    diagram = braid_closure_slices(parse_braid("5: 1 -2 3 -4 1 -2 3 -4"))
    path.write_text("".join(f"{event.kind} {event.position}\n"
                            for event in diagram.events), encoding="utf-8")
    monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", "8")
    start = time.monotonic()
    code, out, err = run_cli(capsys, "invariant", "--sliced", str(path))
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: 16 states after event 4 (cup 4) of the sliced "
                   "fold exceed the support budget 8\n")


def test_verify_reads_no_budget_variable(capsys, monkeypatch):
    # its inputs are fixed and within both default budgets, so a variable,
    # however small or malformed, changes no byte
    for variable in BUDGET_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    expected = run_cli(capsys, "verify", "--suite", "skein")
    assert expected[0] == 0
    for variable in BUDGET_VARIABLES:
        for raw in ("1", "abc"):
            monkeypatch.setenv(variable, raw)
            assert run_cli(capsys, "verify", "--suite", "skein") == expected, (
                variable, raw)
        monkeypatch.delenv(variable)


def clear_table_caches():
    for module in (representation, rmatrix, tangle):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_a_table_failing_a_tangle_check_exits_2(capsys, monkeypatch):
    # weight (1, 0, 0) on v2 as on v1: the crossings built from these
    # weights no longer commute with the differential Delta(E_1)
    weights = ((1, 0, 0),) * 2 + representation.WEIGHTS[2:]
    clear_table_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(representation, "WEIGHTS", weights)
            assert run_cli(capsys, "invariant", "--braid", "2: 1 1 1") == (
                2, "", "error: the pos crossing does not commute with "
                       "Delta(E_1)\n")
    finally:
        clear_table_caches()
    assert run_cli(capsys, "invariant", "--braid", "2: 1 1 1") == (
        0, "-2*q^-3\n", "")


def test_a_braiding_failing_the_twist_check_exits_2(capsys, monkeypatch):
    # phi_2 = q / (q - q^-1) in place of q^-1 / (q - q^-1): the braiding is
    # still integral, but the inverse square of its twist is not q^2 id
    true_phi = rmatrix.phi
    clear_table_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(rmatrix, "phi", lambda i: RatFunc(Q, LAMBDA)
                          if i == 2 else true_phi(i))
            error = "error: twist computation disagrees with q^2 * id\n"
            for argv in (("invariant", "--braid", "2: 1 1 1"),
                         ("braiding", "--format", "csv")):
                assert run_cli(capsys, *argv) == (2, "", error), argv
            # the relations suite builds no braiding and finishes first;
            # its report stays on stdout as JSON
            code, out, err = run_cli(capsys, "verify", "--suite", "all",
                                     "--json")
            assert (code, err) == (2, error)
            assert json.loads(out) == {
                "ok": False, "suites": [verify.relations_suite().as_dict()]}
    finally:
        clear_table_caches()
    assert run_cli(capsys, "invariant", "--braid", "2: 1 1 1") == (
        0, "-2*q^-3\n", "")


def test_a_b4_off_the_q_lattice_fails_where_k_is_built(capsys, monkeypatch):
    # b4_11 plus one, past the validation of CartanData: on v1 (x) v1 the
    # sum over i, j of weight_i b4_ij weight_j is 5, and K would be q^(5/4)
    cartan = representation.CARTAN
    b4 = ((5, -2, -2),) + cartan.b4[1:]
    bad = tuple.__new__(representation.CartanData, (cartan.a, cartan.d, b4))
    clear_table_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(rmatrix, "CARTAN", bad)
            with pytest.raises(NotLaurentInQ) as excinfo:
                rmatrix.cartan_factor()
            assert excinfo.value.offender == 5
            assert run_cli(capsys, "braiding", "--format", "csv") == (
                2, "", "error: K on v1(x)v1: sum_ij weight_i b4_ij weight_j "
                       "not divisible by 4: 5\n")
    finally:
        clear_table_caches()
    assert run_cli(capsys, "braiding", "--format", "csv")[0] == 0


@pytest.mark.parametrize("flipped", range(6))
def test_a_parity_flip_is_one_error_line_naming_the_map(capsys, monkeypatch,
                                                        flipped):
    # a generator or the duality map, read off the tables, no longer fits
    # the parities: every braiding-side command refuses it with exit 2
    parities = tuple(p ^ (v == flipped)
                     for v, p in enumerate(representation.PARITIES))
    clear_table_caches()
    try:
        with monkeypatch.context() as patch:
            for name in ("PARITIES", "M"):
                patch.setattr(representation, name, parities)
            patch.setattr(representation, "M2", tensor(parities, parities))
            for argv in (("invariant", "--braid", "2: 1 1 1"), ("braiding",),
                         ("verify", "--suite", "all")):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert re.fullmatch(
                    rf"error: ([EF]_[123]|the duality map alpha) does not fit "
                    rf"PARITIES = {re.escape(str(parities))}: entry \(\d,\d\) "
                    rf"violates the parity-block invariant for a parity-[01] "
                    rf"map\n",
                    err), (argv, err)
    finally:
        clear_table_caches()
    assert run_cli(capsys, "braiding", "--format", "csv")[0] == 0


def test_usage_error_for_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])
    assert "invalid choice" in capsys.readouterr().err


def test_a_table_failing_the_skein_guard_keeps_the_earlier_reports(capsys):
    # <v1 v1|c^-1|v1 v1> doubled in the braiding the tangle layer reads: the
    # relations, rmatrix and category suites read the true braiding and run
    # to their end, and the skein suite's guard refuses the neg crossing
    earlier = ""
    for suite in ("relations", "rmatrix", "category"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        earlier += out.removesuffix("overall: PASS\n")
    with perturbed("neg", "doubled"):
        assert run_cli(capsys, "verify", "--suite", "all") == (
            2, earlier, "error: the neg crossing does not commute with "
                        "Delta(E_1)\n")
    assert [line.split(":")[0] for line in earlier.splitlines()] == [
        "suite relations", "suite rmatrix", "suite category"]


def test_a_table_failing_the_skein_guard_keeps_the_earlier_reports_as_json(
        capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json")
    assert code == 0
    earlier = json.loads(out)["suites"][:3]
    with perturbed("neg", "doubled"):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--json")
    assert code == 2
    assert json.loads(out) == {"ok": False, "suites": earlier}
    assert [suite["suite"] for suite in earlier] == [
        "relations", "rmatrix", "category"]
    assert err == ("error: the neg crossing does not commute with "
                   "Delta(E_1)\n")


# -- argument parsing ---------------------------------------------------------

def parsed(parse, argv, capsys):
    """The fields ``parse`` makes of ``argv``, or the status it exits with,
    and what it printed to stdout and stderr."""
    try:
        fields = vars(parse(list(argv)))
    except SystemExit as stop:
        fields = stop.code
    captured = capsys.readouterr()
    return fields, captured.out, captured.err


BRAIDS = ("2: 1 1 1", "1:", "-2: 1", "-1", "-0.5", "", "x y", "-x", "--json",
          "a=b")
OPTION_VALUES = {
    "invariant": {"--braid": BRAIDS, "--sliced": ("diagram.txt", "d=1.txt")},
    "dubrovnik": {"--braid": BRAIDS},
    "braiding": {"--format": ("text", "json", "csv", "xml")},
    "verify": {"--suite": ("relations", "rmatrix", "category", "skein", "all",
                           "every")},
}
FLAGS = {"invariant": ("--json",), "dubrovnik": ("--specialize", "--json"),
         "braiding": ("--split",), "verify": ("--json", "-v", "--verbose")}


def generated_argv(rng):
    """A command line of one command: each option or not, as ``--opt value``
    or ``--opt=value``, in any order, now and then one too many or with a
    stray word, an unknown option or a missing value."""
    command = rng.choice(list(OPTION_VALUES))
    pieces = []
    for option, values in OPTION_VALUES[command].items():
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            value = rng.choice(values)
            pieces.append([f"{option}={value}"] if rng.random() < 0.4
                          else [option, value])
    pieces += [[flag] for flag in FLAGS[command] if rng.random() < 0.5]
    if rng.random() < 0.2:
        pieces.append([rng.choice(("extra", "--bogus", "-q", "-", "--json=1"))])
    rng.shuffle(pieces)
    if rng.random() < 0.1:
        pieces.append([rng.choice(list(OPTION_VALUES[command]))])
    return [command] + [word for piece in pieces for word in piece]


def test_parser_matches_the_reference_on_generated_argv(capsys, monkeypatch):
    # a wide terminal, so that the reference does not wrap its usage lines
    monkeypatch.setenv("COLUMNS", "200")
    rng = random.Random(20261020)
    cases = transcript_commands() + [
        [], ["braiding"], ["verify"], ["knot"], ["--json", "braiding"],
        ["invariant", "--sliced=a=b.txt"], ["invariant", "--braid=2: 1=1"],
        ["dubrovnik", "--braid", "2: 1", "--json", "--specialize"],
        ["verify", "-v", "--json", "--suite=skein"],
        ["braiding", "--split", "--format=csv"]]
    cases += [generated_argv(rng) for _ in range(400)]
    kinds = set()
    for argv in cases:
        expected = parsed(reference_parser().parse_args, argv, capsys)
        assert parsed(parse_args, argv, capsys) == expected, argv
        kinds.add(expected[0] if expected[0] == 2 else expected[0]["command"])
    assert kinds == {2, "invariant", "dubrovnik", "braiding", "verify"}


USAGE = {
    None: "usage: d21link [-h] {invariant,dubrovnik,braiding,verify} ...",
    "invariant": "usage: d21link invariant [-h] (--braid BRAID | --sliced "
                 "SLICED) [--json]",
    "dubrovnik": "usage: d21link dubrovnik [-h] --braid BRAID [--specialize] "
                 "[--json]",
    "braiding": "usage: d21link braiding [-h] [--format {text,json,csv}] "
                "[--split]",
    "verify": "usage: d21link verify [-h] [--suite {relations,rmatrix,"
              "category,skein,all}] [--json] [-v]",
}
# name: argv, the command whose usage is printed, the error message
USAGE_ERRORS = {
    "no-command": ([], None, "the following arguments are required: command"),
    "unknown-command": (["knot"], None,
                        "argument command: invalid choice: 'knot' (choose "
                        "from 'invariant', 'dubrovnik', 'braiding', 'verify')"),
    "suite-choice": (["verify", "--suite", "nope"], "verify",
                     "argument --suite: invalid choice: 'nope' (choose from "
                     "'relations', 'rmatrix', 'category', 'skein', 'all')"),
    "format-choice": (["braiding", "--format=csv=x"], "braiding",
                      "argument --format: invalid choice: 'csv=x' (choose "
                      "from 'text', 'json', 'csv')"),
    "required": (["dubrovnik", "--json"], "dubrovnik",
                 "the following arguments are required: --braid"),
    "one-of-required": (["invariant", "--json"], "invariant",
                        "one of the arguments --braid --sliced is required"),
    "not-allowed-with": (["invariant", "--braid", "2: 1", "--sliced", "x"],
                         "invariant",
                         "argument --sliced: not allowed with argument "
                         "--braid"),
    "not-allowed-with-reversed": (["invariant", "--sliced=x", "--braid=1:"],
                                  "invariant",
                                  "argument --braid: not allowed with "
                                  "argument --sliced"),
    "expected-one-argument": (["invariant", "--braid"], "invariant",
                              "argument --braid: expected one argument"),
    "value-is-an-option": (["dubrovnik", "--braid", "--specialize"],
                           "dubrovnik",
                           "argument --braid: expected one argument"),
    "unrecognized": (["braiding", "--split", "x", "--bogus"], None,
                     "unrecognized arguments: x --bogus"),
    "ignored-explicit-argument": (["verify", "--json=yes"], "verify",
                                  "argument --json: ignored explicit "
                                  "argument 'yes'"),
    "ignored-empty-argument": (["verify", "--verbose="], "verify",
                               "argument -v/--verbose: ignored explicit "
                               "argument ''"),
}


@pytest.mark.parametrize("kind", list(USAGE_ERRORS))
def test_a_usage_error_is_the_usage_line_and_one_error_line(kind, capsys):
    argv, command, message = USAGE_ERRORS[kind]
    prog = "d21link" if command is None else f"d21link {command}"
    assert parsed(parse_args, argv, capsys) == (
        2, "", f"{USAGE[command]}\n{prog}: error: {message}\n")


@pytest.mark.parametrize("command", [None, "invariant", "dubrovnik",
                                     "braiding", "verify"])
def test_help_prints_the_usage_line_and_every_option(command, capsys):
    words = [] if command is None else [command]
    options = {"invariant": ("--braid", "--sliced", "--json"),
               "dubrovnik": ("--braid", "--specialize", "--json"),
               "braiding": ("--format", "--split"),
               "verify": ("--suite", "--json", "-v", "--verbose")}
    for flag in ("-h", "--help"):
        code, out, err = parsed(parse_args, words + [flag], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(USAGE[command] + "\n\n")
        shown = options.get(command, ("invariant", "dubrovnik", "braiding",
                                      "verify"))
        assert all(re.search(rf"^  .*{word}\b", out, re.M) for word in shown)
    # help is printed as soon as it is read, before later words are checked
    code, out, _ = parsed(parse_args, words + ["-h", "--bogus"], capsys)
    assert code == 0 and out.startswith(USAGE[command])


def test_prefix_abbreviations_are_refused(capsys):
    for argv, unrecognized in (
            (["dubrovnik", "--braid", "1:", "--spec"], "--spec"),
            (["braiding", "--form", "csv"], "--form csv"),
            (["verify", "--suite", "all", "--verb"], "--verb")):
        # the reference takes them as --specialize, --format, --verbose
        reference = vars(reference_parser().parse_args(argv))
        assert reference["command"] == argv[0]
        assert parsed(parse_args, argv, capsys) == (
            2, "", f"{USAGE[None]}\nd21link: error: unrecognized arguments: "
                   f"{unrecognized}\n")


# -- the process entry --------------------------------------------------------

ROOT = Path(__file__).parents[1]


def console_script():
    """The ``d21link`` target of ``[project.scripts]``, as (module, function)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^d21link = "([\w.]+):(\w+)"$', text, re.M).groups()


def entry_commands():
    """``python -m d21link.cli`` and a stand-in for the installed script,
    which imports the target and exits with what it returns."""
    module, function = console_script()
    return {"python -m": [sys.executable, "-m", "d21link.cli"],
            "console script": [sys.executable, "-c",
                               f"import sys; from {module} import {function}; "
                               f"sys.exit({function}())"]}


def run_process(command, argv, cwd, env_extra=None, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE):
    env = {k: v for k, v in os.environ.items() if k not in BUDGET_VARIABLES}
    env.update(env_extra or {}, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([*command, *argv], cwd=cwd, env=env, stdout=stdout,
                          stderr=stderr, encoding="utf-8", timeout=120)
    return done.returncode, done.stdout, done.stderr


# argv, budget variables set, exit status
ENTRY_CASES = {
    "invariant-json": (("invariant", "--braid", "3: 1 -2 1 -2", "--json"), {}, 0),
    "invariant-sliced": (("invariant", "--sliced", "closure.txt"), {}, 0),
    "dubrovnik-json": (("dubrovnik", "--braid", "3: 1 -2 1 -2", "--json"), {}, 0),
    "braiding-json-split": (("braiding", "--format", "json", "--split"), {}, 0),
    "verify-relations": (("verify", "--suite", "relations"), {}, 0),
    "malformed-braid": (("invariant", "--braid", "2: x"), {}, 2),
    "bad-budget": (("dubrovnik", "--braid", "2: 1 1"),
                   {"D21LINK_SKEIN_BUDGET": "abc"}, 2),
}


@pytest.mark.parametrize("case", list(ENTRY_CASES))
def test_process_entries_match_main_in_process(case, capsys, monkeypatch,
                                               tmp_path):
    argv, env_extra, status = ENTRY_CASES[case]
    diagram = braid_closure_slices(parse_braid("3: 1 -2 1 -2 1"))
    (tmp_path / "closure.txt").write_text(
        "".join(f"{event.kind} {event.position}\n" for event in diagram.events),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for variable in BUDGET_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    for variable, value in env_extra.items():
        monkeypatch.setenv(variable, value)
    monkeypatch.setattr(dubrovnik, "_memo", {})     # as in a fresh process
    expected = run_cli(capsys, *argv)
    assert expected[0] == status
    for name, command in entry_commands().items():
        assert run_process(command, argv, tmp_path, env_extra) == expected, name


def test_a_budget_error_of_either_pipeline_is_one_error_line(tmp_path):
    # both evaluations raise the one budget error that main handles, so a
    # process ends with one ``error:`` line and exit 2, not a traceback
    for argv, message in (
            (("dubrovnik", "--braid", "17:"), "17 strands exceed the budget 16"),
            (("invariant", "--braid", "13:"),
             "8192 trace columns exceed the support budget 4096")):
        for name, command in entry_commands().items():
            assert run_process(command, argv, tmp_path) == (
                2, "", f"error: {message}\n"), name


def test_main_leaves_the_collector_alone(capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        for state in (False, True):
            (gc.enable if state else gc.disable)()
            assert run_cli(capsys, "invariant", "--braid", "2: 1 1 1") == (
                0, "-2*q^-3\n", "")
            assert gc.isenabled() is state
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if enabled else gc.disable)()


# an atexit probe that stays silent: the process ends without teardown
NO_TEARDOWN = ("import atexit\n"
               "atexit.register(print, 'teardown', file=sys.stderr)\n")


def test_console_script_target_imports_no_layer(tmp_path):
    # its module loads no layer, so the collector is off before any does:
    # no collection from the import of the target to the command's end
    module, function = console_script()
    script = ("import gc, sys\n"
              f"from {module} import {function}\n"
              "print([m for m in sys.modules if m.startswith('d21link.')],"
              " file=sys.stderr)\n"
              "gc.callbacks.append(lambda phase, info: phase == 'start'"
              " and print('collection', info, file=sys.stderr))\n"
              + NO_TEARDOWN + f"{function}()\n")
    assert run_process([sys.executable, "-c", script],
                       ["invariant", "--braid", "2: 1 1 1"], tmp_path) == (
        0, "-2*q^-3\n", "[]\n")


def test_process_entries_run_without_a_collection(tmp_path):
    # a collection while code of cli.py runs (its imports included), from
    # before ``python -m`` loads it or from just before the installed
    # script's function runs, prints a line; so does any teardown
    cli = str(ROOT / "src" / "d21link" / "cli.py")
    probes = ("import gc, sys\n"
              "def seen(phase, info):\n"
              "    frame = sys._getframe().f_back\n"
              "    while frame is not None and phase == 'start':\n"
              f"        if frame.f_code.co_filename == {cli!r}:\n"
              "            return print('collection', info, file=sys.stderr)\n"
              "        frame = frame.f_back\n"
              "gc.callbacks.append(seen)\n" + NO_TEARDOWN)
    module, function = console_script()
    scripts = {
        "python -m": "import runpy\n" + probes + (
            "sys.argv = ['d21link', *sys.argv[1:]]\n"
            "runpy.run_module('d21link.cli', run_name='__main__')\n"),
        "console script": (f"from {module} import {function}\n" + probes +
                           f"{function}()\n")}
    for name, script in scripts.items():
        code, out, err = run_process([sys.executable, "-c", script],
                                     ["verify", "--suite", "all"], tmp_path)
        assert (code, out.splitlines()[-1], err) == (
            0, "overall: PASS", ""), name


@pytest.mark.parametrize("target", ["dev-full", "closed-pipe"])
def test_a_failed_final_flush_exits_2(target, tmp_path, monkeypatch):
    # buffered stdout, so the command's output is first written at the
    # final flush, and fails there: on a full device, or on a pipe whose
    # read end is closed before the child starts
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if target == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        fd, reason = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
        reason = errno.EPIPE
    error = f"error: [Errno {reason}] {os.strerror(reason)}\n"
    try:
        for name, command in entry_commands().items():
            # --help ends by SystemExit, and takes the same path
            for argv in (["invariant", "--braid", "2: 1"], ["--help"]):
                assert run_process(command, argv, tmp_path, stdout=fd) == (
                    2, None, error), (name, argv)
    finally:
        os.close(fd)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_failed_command_exits_2_when_stderr_fails(unbuffered, tmp_path,
                                                    monkeypatch):
    # the error line of a bad braid, or of a failed final flush of stdout,
    # cannot reach a full device; the process still ends with exit 2
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        for name, command in entry_commands().items():
            assert run_process(command, ["invariant", "--braid", "2: x"],
                               tmp_path, stderr=fd) == (2, "", None), name
            assert run_process(command, ["invariant", "--braid", "2: 1"],
                               tmp_path, stdout=fd, stderr=fd) == (
                2, None, None), name
    finally:
        os.close(fd)


def test_a_usage_error_exits_2_when_stderr_fails(tmp_path, monkeypatch):
    # the usage message fails to reach a full device, and is left in
    # the buffer of stderr; the process still ends with the usage status
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        for name, command in entry_commands().items():
            assert run_process(command, ["verify", "--suite", "nope"],
                               tmp_path, stderr=fd) == (2, "", None), name
    finally:
        os.close(fd)
