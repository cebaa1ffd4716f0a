"""One measured process: a CLI job or the query loop.

Started by run.py with a pinned PYTHONHASHSEED, no PEGBALL_CACHE and
PYTHONPATH set to the checkout's ``src``.  It imports pegball first, so the
parent can time interpreter start through import; then it reads its task as
JSON on stdin and prints one JSON line with its timings and answers.
"""

import time

import pegball
import pegball.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (CACHED_MAX_N, MEMBER_CASES, PEG_MAX_N,  # noqa: E402
                       STANDARD_MAX_N, percentile)

# Most latencies one query loop records (single precision, 32 MB); the loop
# stops there.
LATENCY_CAP = 1 << 23
# The loop's time is cut into this many equal windows.  Throughput, p50 and
# p99 are taken in each window and the median window is reported, so a slow
# phase of the machine that covers less than half the loop hardly moves
# them.
WINDOWS = 20


def run_job(task: dict) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = pegball.cli.main(task["argv"])
    return {"run_s": time.perf_counter() - start, "code": code,
            "maxrss_mb": _maxrss_mb(), "stdout": out.getvalue()}


def _maxrss_mb() -> float:
    """Peak RSS so far, read before the results are serialized."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _warm(cache_dir: str) -> tuple[dict, dict]:
    """Build every table the query stream can reach; time each standard one."""
    pb = pegball
    builds = {}
    for model in pb.Model:
        for n in range(1, STANDARD_MAX_N + 1):
            start = time.perf_counter()
            pb.distance(model, pb.identity(n))
            builds[f"{model.value}.{n}"] = time.perf_counter() - start
        for n in range(1, CACHED_MAX_N + 1):
            pb.get_table(model, n, cache_dir=cache_dir)
        for n in range(1, PEG_MAX_N + 1):
            for mask in range(2 ** n):
                decs = tuple("." if mask >> i & 1 else "+" for i in range(n))
                pb.distance_peg(model, pb.PegPermutation(pb.identity(n), decs))
    bases = {}
    for model, k in MEMBER_CASES:
        basis = pb.standard_basis(pb.Model(model), k)
        bases[(model, k)] = sorted(basis, key=lambda p: (len(p), p))
    return builds, bases


def _prepare(query: list, cache_dir: str, bases: dict):
    """A closure issuing one query through the package's public names."""
    pb = pegball
    kind, model = query[0], pb.Model(query[1])
    if kind == "distance":
        p = pb.parse_perm(query[2])
        return lambda: pb.distance(model, p)
    if kind == "distance_cached":
        p = pb.parse_perm(query[2])
        return lambda: pb.distance(model, p, cache_dir=cache_dir)
    if kind == "distance_peg":
        pp = pb.parse_peg(query[2])
        return lambda: pb.distance_peg(model, pp)
    k, p = query[2], pb.parse_perm(query[3])
    if kind == "bounded":
        return lambda: pb.distance_bounded(model, p, k)
    basis = bases[(query[1], k)]

    def member():
        d = pb.distance(model, p)
        if d <= k:
            gens = pb.generating_set(model, k).sorted_members()
            return True, d, next((g for g in gens if pb.grid_member(g, p)),
                                 None)
        return False, d, next((b for b in basis if pb.contains_pattern(b, p)),
                              None)
    return member


def _answer_text(answer) -> str:
    if isinstance(answer, tuple):
        member, d, found = answer
        if found is not None:
            found = (pegball.format_peg(found) if member
                     else pegball.format_perm(found))
        return json.dumps([member, d, found])
    return json.dumps(answer)


def run_queries(task: dict, tracer: Tracer | None) -> dict:
    # Allocated whole before the warm-up, so that peak RSS does not grow with
    # the number of queries answered: the latencies, the first answer to
    # each stream index, and only those later answers that differ from it.
    latencies = array("f", bytes(4 * LATENCY_CAP))
    n = len(task["queries"])
    first: list = [None] * n
    differing: dict[int, dict[str, int]] = {}
    warm_start = time.perf_counter()
    builds, bases = _warm(task["cache_dir"])
    warm_s = time.perf_counter() - warm_start
    if tracer is not None:
        # layer metrics cover the stream; set-up shows in table_build_s
        tracer.reset()
    calls = [_prepare(q, task["cache_dir"], bases) for q in task["queries"]]
    perf = time.perf_counter
    window = task["seconds"] / WINDOWS
    marks: list[int] = []  # index of the first query of each window
    start = perf()
    deadline = start + task["seconds"]
    edge = start
    i = 0
    while i < LATENCY_CAP:
        t0 = perf()
        if t0 >= deadline:
            break
        while t0 >= edge and len(marks) < WINDOWS:
            marks.append(i)
            edge += window
        j = i % n
        answer = calls[j]()
        latencies[i] = perf() - t0
        if i < n:
            first[j] = answer
        elif answer != first[j]:
            counts = differing.setdefault(j, {})
            text = _answer_text(answer)
            counts[text] = counts.get(text, 0) + 1
        i += 1
    elapsed = perf() - start
    maxrss_mb = _maxrss_mb()
    answers = {}
    for j in range(min(i, n)):
        counts = differing.get(j, {})
        asked = i // n + (j < i % n)
        answers[j] = dict(counts)
        text = _answer_text(first[j])
        answers[j][text] = (answers[j].get(text, 0) + asked
                            - sum(counts.values()))
    rates, p50s, p99s = [], [], []
    for lo, hi in zip(marks, marks[1:] + [i]):
        rates.append((hi - lo) / window)
        if hi > lo:
            ordered = sorted(latencies[lo:hi])
            p50s.append(percentile(ordered, 0.50))
            p99s.append(percentile(ordered, 0.99))
    return {"warm_s": warm_s, "table_build_s": builds, "run_s": elapsed,
            "maxrss_mb": maxrss_mb, "queries": i,
            "ops_per_s": statistics.median(rates),
            "op_p50_s": statistics.median(p50s),
            "op_p99_s": statistics.median(p99s), "answers": answers}


def main() -> None:
    task = json.loads(sys.stdin.read())
    tracer = Tracer() if task["trace"] else None
    if tracer is not None:
        tracer.install()
    if task["kind"] == "job":
        result = run_job(task)
    else:
        result = run_queries(task, tracer)
    result["imported_at"] = IMPORTED_AT
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(task["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
