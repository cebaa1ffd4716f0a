"""The three workloads: two fixed CLI job lists and a seeded API query stream.

`bases` and `counts` run each job in a fresh interpreter, as a CLI user
would, so module caches start empty.  `queries` is one closed-loop caller of
the Python API: it warms every table its stream can reach, then issues
queries back to back for the measured time, cycling through the stream.
No workload uses ``member --limit`` or ``--threads``, which are known to be
broken (ROADMAP item 5).
"""

from __future__ import annotations

import math
import random

# Each job is one CLI invocation; --json is appended when it is run.  A run
# repeats the whole list in rounds until its measured seconds are up, so
# every job's repeats are spread evenly over the run, and a job's time is
# the mean of its repeats: on a shared machine that runs 20-50 % slower for
# seconds to minutes at a time, the mean of 9-14 repeats spread less from
# run to run than their median did.  Every job takes a second or less, so
# that it repeats that often within a run: the rd k = 2 and prd k = 3 bases
# (10-22 s each) could run only once, and a single run of one of them
# spread by more than a quarter of its median across runs.
JOBS = {
    "bases": [
        ["basis", "--model", "prd", "--k", "2"],
        ["peg-basis", "--model", "prd", "--k", "2"],
        ["basis", "--k", "1"],
        ["peg-basis", "--k", "1"],
        ["peg-basis", "--model", "prd", "--k", "1"],
    ],
    "counts": [
        ["enumerate", "--k", "3", "--n-max", "6", "--method", "grid"],
        ["enumerate", "--k", "3", "--n-max", "6", "--method", "bfs"],
        ["enumerate", "--model", "prd", "--k", "4", "--n-max", "8",
         "--method", "grid"],
        ["enumerate", "--k", "1", "--n-max", "12", "--method", "avoid"],
        ["enumerate", "--model", "prd", "--k", "2", "--n-max", "12",
         "--method", "avoid"],
    ],
}
MIN_ROUNDS = 3  # rounds of the job list a run makes however short it is


# Distinct queries per stream and how many of each kind; the run cycles
# through the stream, so each kind's share of operations is fixed.  Table
# reads are the traffic: plain `distance` is over half of all queries, and
# the disk-table and peg-table reads a fifth each.  A bounded search costs
# about 20 times a table read and a membership query about 8 times, so
# they are kept to 2 % and 5 %: that holds their share of the loop's time
# under half, while 2 % is still enough for op_p99_us to fall among the
# bounded searches.  op_p99_us sits near the median bounded search, so the
# stream holds 200 of them, enough that the seed barely moves it.
QUERY_MIX = {"distance": 5300, "distance_cached": 2000, "distance_peg": 2000,
             "member": 500, "bounded": 200}
STANDARD_MAX_N = 9   # standard tables warmed for rd and prd
CACHED_MAX_N = 8     # disk tables; n = 9 would add 5 s of set-up per run
PEG_MAX_N = 5        # peg components warmed for every bullet set
MEMBER_CASES = (("rd", 1), ("prd", 2))  # balls with cheap standard bases
BOUNDED_CASES = (("rd", 1), ("rd", 2), ("prd", 2), ("prd", 3))
BOUNDED_LENGTHS = (12, 20)


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _scramble(rng: random.Random, model: str, n: int, moves: int) -> list[int]:
    """The identity of length n after `moves` random moves of the model."""
    p = list(range(1, n + 1))
    for _ in range(moves):
        if model == "rd":
            i, j = sorted(rng.sample(range(n), 2))
        else:
            i, j = 0, rng.randint(1, n - 1)
        p[i:j + 1] = p[i:j + 1][::-1]
    return p


def _text(p) -> str:
    return " ".join(map(str, p))


def _inflate(rng: random.Random, peg: str, length: int) -> list[int]:
    """A random inflation of a bullet-free peg to the given total length."""
    tokens = peg.split()
    cuts = sorted(rng.sample(range(1, length), len(tokens) - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [length])]
    values = [int(t[:-1]) for t in tokens]
    start, acc = {}, 0
    for v in sorted(values):
        start[v] = acc
        acc += sizes[values.index(v)]
    out: list[int] = []
    for t, v, size in zip(tokens, values, sizes):
        block = list(range(start[v] + 1, start[v] + size + 1))
        out.extend(block[::-1] if t.endswith("-") else block)
    return out


def make_queries(seed: int, generating: dict) -> list[list]:
    """The query stream for a seed, in text form.

    `generating` maps (model, k) to the sorted k-generating pegs as text.
    Distances are asked of scrambles a few moves from the identity, so the
    exactness gate can confirm each one with a bounded search.
    """
    rng = random.Random(seed)
    out: list[list] = []
    for _ in range(QUERY_MIX["distance"]):
        model, n = rng.choice(("rd", "prd")), rng.randint(4, STANDARD_MAX_N)
        out.append(["distance", model,
                    _text(_scramble(rng, model, n, rng.randint(0, 4)))])
    for _ in range(QUERY_MIX["distance_cached"]):
        model, n = rng.choice(("rd", "prd")), rng.randint(4, CACHED_MAX_N)
        out.append(["distance_cached", model,
                    _text(_scramble(rng, model, n, rng.randint(0, 4)))])
    for _ in range(QUERY_MIX["distance_peg"]):
        n = rng.randint(2, PEG_MAX_N)
        base = rng.sample(range(1, n + 1), n)
        out.append(["distance_peg", rng.choice(("rd", "prd")),
                    " ".join(f"{v}{rng.choice('+-.')}" for v in base)])
    for _ in range(QUERY_MIX["member"]):
        model, k = rng.choice(MEMBER_CASES)
        n = rng.randint(4, STANDARD_MAX_N)
        out.append(["member", model, k,
                    _text(_scramble(rng, model, n, rng.randint(0, k + 2)))])
    for _ in range(QUERY_MIX["bounded"]):
        model, k = rng.choice(BOUNDED_CASES)
        peg = rng.choice(generating[(model, k)])
        length = rng.randint(*BOUNDED_LENGTHS)
        out.append(["bounded", model, k, _text(_inflate(rng, peg, length))])
    rng.shuffle(out)
    return out
