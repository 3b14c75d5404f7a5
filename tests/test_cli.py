import json
import time

import pytest

from d21link import dubrovnik
from d21link.cli import main
from d21link.tangle import braid_closure_slices, parse_braid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text_output(capsys):
    code, out, err = run_cli(capsys, "invariant", "--braid", "1:")
    assert code == 0
    assert out == "2\n"
    assert err == ""


def test_invariant_json_schema(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--braid", "2: 1 1 1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-2*q^-3"
    assert payload["stats"] == {"slices": 7, "peak_strands": 4,
                                "peak_dimension": 1296, "peak_support": 4}
    # of the 36 columns, the 2 ** 2 in the E_1-cohomology, in one block
    assert payload["trace"] == {"braid": "2: 1 1 1", "strands": 2,
                                "columns": 36, "columns_evaluated": 4,
                                "blocks": 1, "peak_block_support": 4}
    # the stats describe the cyclically reduced word that was traced
    code, out, _ = run_cli(capsys, "invariant", "--braid", "3: -2 1 1 1 -1 2",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["value", "stats", "trace"]
    assert payload["value"] == "4*q^-2 + 4*q^2"   # a Hopf link and a circle
    assert payload["stats"] == {"slices": 8, "peak_strands": 6,
                                "peak_dimension": 46656, "peak_support": 8}
    assert payload["trace"] == {"braid": "3: 1 1", "strands": 3,
                                "columns": 216, "columns_evaluated": 8,
                                "blocks": 1, "peak_block_support": 8}


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


def test_verbose_json_verify_keeps_progress_off_stdout(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "category",
                             "--json", "-v")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert "... checking duality pairing and zig-zags\n" in err
    assert all(line.startswith("... ") for line in err.splitlines())
    # text mode streams the same progress lines to stdout
    code, out, err = run_cli(capsys, "verify", "--suite", "category", "-v")
    assert code == 0 and err == ""
    assert out.startswith("... checking duality pairing and zig-zags\n")


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


def test_tangle_budget_rejects_huge_unlink_at_once(capsys):
    start = time.monotonic()
    code, _, err = run_cli(capsys, "invariant", "--braid", "100000000:")
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "tangle budget 12" in err


def test_tangle_budget_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("D21LINK_TANGLE_BUDGET", "2")
    code, _, err = run_cli(capsys, "invariant", "--braid", "2: 1 1 1")
    assert code == 2
    assert "4 peak strands exceed the tangle budget 2" in err
    code, out, _ = run_cli(capsys, "invariant", "--braid", "1:")
    assert (code, out) == (0, "2\n")
    path = tmp_path / "kink.txt"
    path.write_text("cup 1\ncup 2\npos 1\ncap 2\ncap 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "invariant", "--sliced", str(path))
    assert code == 2
    assert "budget" in err
    for raw, reason in (("many", "is not an integer"), ("0", "must be at least 1"),
                        ("-3", "must be at least 1"), ("1_2", "is not an integer"),
                        ("\u0661\u0662", "is not an integer")):
        monkeypatch.setenv("D21LINK_TANGLE_BUDGET", raw)
        for argv in (("invariant", "--braid", "1:"), ("verify", "--suite", "skein")):
            assert run_cli(capsys, *argv) == (
                2, "", f"error: D21LINK_TANGLE_BUDGET {reason}: {raw!r}\n")


def test_skein_budget_env_must_be_a_positive_integer(capsys, monkeypatch):
    for raw, reason in (("abc", "is not an integer"), ("0", "must be at least 1"),
                        ("1_6", "is not an integer"), ("+16", "is not an integer")):
        monkeypatch.setenv("D21LINK_SKEIN_BUDGET", raw)
        for argv in (("dubrovnik", "--braid", "1:"), ("verify", "--suite", "skein")):
            assert run_cli(capsys, *argv) == (
                2, "", f"error: D21LINK_SKEIN_BUDGET {reason}: {raw!r}\n")
    # a long value is quoted by its first 32 characters and its length
    monkeypatch.setenv("D21LINK_SKEIN_BUDGET", "1" * 5000 + "x")
    assert run_cli(capsys, "dubrovnik", "--braid", "1:") == (
        2, "", "error: D21LINK_SKEIN_BUDGET is not an integer: "
               f"'{'1' * 32}...' (5001 characters)\n")


def test_support_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("D21LINK_SUPPORT_BUDGET", "7")
    assert run_cli(capsys, "invariant", "--braid", "3: 1 -2 1 -2") == (
        2, "", "error: 8 states in one trace block exceed the support "
               "budget 7\n")
    # the unknot 3: 1 -2 is traced on its three strands, as written
    assert run_cli(capsys, "invariant", "--braid", "3: 1 -2") == (
        2, "", "error: 8 states in one trace block exceed the support "
               "budget 7\n")
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


def test_verify_honours_the_tangle_budget(capsys, monkeypatch):
    monkeypatch.setenv("D21LINK_TANGLE_BUDGET", "3")
    code, out, err = run_cli(capsys, "verify", "--suite", "skein")
    assert code == 2
    assert out == ""
    assert err == "error: 4 peak strands exceed the tangle budget 3\n"


def test_usage_error_for_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])
    assert "invalid choice" in capsys.readouterr().err
