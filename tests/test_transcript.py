"""Byte-identity of the CLI against a recorded transcript.

``cli_transcript.json`` holds the exit code, stdout and stderr of
``invariant --braid --json`` on :data:`d21link.verify.CORPUS` plus 40
seeded words of 1-5 strands, of ``braiding`` as text, csv and split json,
and of ``verify --suite all`` as json and as text.  A
change that must keep the output byte-identical keeps this test passing;
one that changes the output on purpose re-records the file with
``PYTHONPATH=src python tests/test_transcript.py`` and says why.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from d21link.cli import main
from d21link.diagram import BraidWord
from d21link.verify import CORPUS

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")
BUDGET_VARIABLES = ("D21LINK_SKEIN_BUDGET", "D21LINK_SUPPORT_BUDGET")


def transcript_commands():
    rng = random.Random(20261018)
    words = list(CORPUS)
    for _ in range(40):
        strands = rng.randint(1, 5)
        length = rng.randint(0, 5 * strands) if strands > 1 else 0
        words.append(str(BraidWord(strands, tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(length)))))
    return ([["invariant", "--braid", word, "--json"] for word in words]
            + [["verify", "--suite", "all", "--json"],
               ["braiding"],
               ["braiding", "--format", "csv"],
               ["braiding", "--format", "json", "--split"],
               ["verify", "--suite", "all"]])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_cli_output_matches_the_recorded_transcript(monkeypatch, tmp_path):
    for variable in BUDGET_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.chdir(tmp_path)       # a failing verify writes a file here
    recorded = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    commands = transcript_commands()
    assert [entry["argv"] for entry in recorded] == commands
    for entry, argv in zip(recorded, commands):
        assert run(argv) == entry, argv


if __name__ == "__main__":
    for variable in BUDGET_VARIABLES:
        os.environ.pop(variable, None)
    entries = [run(argv) for argv in transcript_commands()]
    if any(entry["exit"] for entry in entries):
        sys.exit("a command failed; the transcript is not recorded")
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n",
                          encoding="utf-8")
