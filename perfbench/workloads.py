"""Seeded inputs of the three workloads and the checks on their outputs.

Every workload draws braid words from ``random.Random("<workload>:<seed>")``
through a fixed cycle of shapes (strand count, letter count), so every seed
gives the same mix of sizes and only the letters differ.  Letters are
uniform over +-1 .. +-(strands - 1), every generator appears at least once
(a closure never splits off idle strands), and no word repeats within a run.

Why these workloads.  Sizes are chosen so that one run holds a few hundred
operations whose times form one narrow hump: the median then falls where
times are dense and moves little from seed to seed.  A mix of shapes with
far-apart costs puts the median in the gap between them, where a few words
more or less on either side move it by a third.

* ``fold``  -- 3 strands with 5-6 letters, and one word in five of 4
  strands with 4 letters, through ``tangle.invariant``.  Almost all time is
  ring multiplication inside the state-vector fold; the skein oracle runs
  only in the correctness check, outside the timed path.  The 4-strand
  words cost about four times as much and sit above the median; they carry
  the tail, which is the tenth-slowest of the 30-40 of them in a run (one
  in seven left it on the slowest few and spread it by 0.18 across seeds).
* ``skein`` -- 2 strands with 10 crossings, and one word in twenty of 3
  strands with 8, through ``braid_closure_graph``, ``dubrovnik_poly`` and
  ``specialize``.  Stresses the switching recursion and ``TwoVarPoly``; the
  fold and ``RatFunc`` stay idle.  Two-strand words with an even number of
  crossings close to two-component links whose recursion costs vary
  least; with an odd number (knots), or 12 crossings, the spread of single
  word times is two to three times wider.  Three-strand words are rare
  because their correctness check (a fold) costs ten times the operation.
* ``cli``   -- fresh ``python -m d21link.cli`` processes on small words (2-3
  strands, 3-5 letters), so interpreter start, import, the cold braiding
  build and the verification suites dominate; the only workload that runs
  the general ``--sliced`` path.

A stream ends as soon as the words of one of its shapes are all used, so
the mix of shapes never changes within a run.  The smallest shape of a
timed workload, 2 strands with 10 crossings (1024 words), lasts a run of
the present code two to three times over; a much faster skein ends the
run before its deadline rather than on a different mix.
"""

from __future__ import annotations

import hashlib
import math
import random
import re

FOLD_SHAPES = ((3, 5), (3, 6)) * 2 + ((4, 4),)
SKEIN_SHAPES = ((2, 10),) * 19 + ((3, 8),)
CLI_SHAPES = ((2, 3), (2, 4), (3, 3), (3, 4), (3, 5))

SHAPES = {"fold": FOLD_SHAPES, "skein": SKEIN_SHAPES, "cli": CLI_SHAPES}

# Trivial diagram that touches every table the fold and the skein use.
WARM_WORD = "2: 1 -1"


def shape_size(strands: int, length: int) -> int:
    """How many words of ``length`` letters on ``strands`` strands use every
    generator (inclusion-exclusion over the generators left out)."""
    gens = strands - 1
    return sum((-1) ** j * math.comb(gens, j) * (2 * (gens - j)) ** length
               for j in range(gens + 1))


def words(workload: str, seed: int):
    """Stream of distinct braid words in ``<n>: <letters>`` form.

    The stream ends right after the last unused word of any one shape."""
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    shapes = SHAPES[workload]
    left = {shape: shape_size(*shape) for shape in shapes}
    index = 0
    while True:
        shape = shapes[index % len(shapes)]
        strands, length = shape
        letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                   for _ in range(length)]
        if len({abs(k) for k in letters}) < strands - 1:
            continue
        text = f"{strands}: " + " ".join(str(k) for k in letters)
        if text in seen:
            continue
        seen.add(text)
        left[shape] -= 1
        index += 1
        yield text
        if not left[shape]:
            return


def words_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def doubled(terms):
    return {exp: 2 * coeff for exp, coeff in terms.items()}


def closure_events(text: str) -> str:
    """The trace closure of a braid word as a sliced-diagram file.

    Written independently of ``tangle.braid_closure_slices``: n nested cups,
    the letters as crossings at n + |k|, n nested caps.
    """
    head, _, tail = text.partition(":")
    strands = int(head)
    lines = [f"cup {p}" for p in range(1, strands + 1)]
    for letter in (int(tok) for tok in tail.split()):
        lines.append(f"{'pos' if letter > 0 else 'neg'} {strands + abs(letter)}")
    lines.extend(f"cap {p}" for p in range(strands, 0, -1))
    return "\n".join(lines) + "\n"


_TERM = re.compile(r"^(?:(\d+)\*?)?(q(?:\^(-?\d+))?)?$")


def parse_q_laurent(text: str):
    """Inverse of the canonical ``-2*q^-1 + 3 + q^2`` rendering."""
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        match = _TERM.match(token.lstrip("-"))
        if match is None or not (match.group(1) or match.group(2)):
            raise ValueError(f"not a canonical q-polynomial: {text!r}")
        coeff = int(match.group(1) or 1)
        exp = 0
        if match.group(2):
            exp = int(match.group(3)) if match.group(3) is not None else 1
        terms[exp] = terms.get(exp, 0) + sign * coeff
    return {e: c for e, c in terms.items() if c}
