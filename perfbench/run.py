"""pegball benchmark: times CLI jobs and an API query stream, checks every answer.

    python3 perfbench/run.py --workload {bases,counts,queries} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
Every measured operation runs in a child process (perfbench/child.py) with
PYTHONHASHSEED pinned and PEGBALL_CACHE removed.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics from spans around each public function (perfbench/
tracer.py), and the spans themselves go to ``.perfbench/trace/``.  Every
answer passes the exactness gate (perfbench/gate.py) outside the timed
phase; a wrong answer counts as a failed operation.  A record of each run,
with its provenance, is written to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HASH_SEED = "0"
DEADLINE_S = 170  # the whole run, set-up and gate included, ends within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us"}


def _child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))


def spawn(task: dict, deadline: float) -> dict | None:
    """Run child.py on one task; None if it failed or ran out of time."""
    started = time.monotonic()
    if started >= deadline:
        print(f"perfbench: out of time before {task.get('argv', 'queries')}",
              file=sys.stderr)
        return None
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(json.dumps(task),
                                    timeout=deadline - started)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: child timed out on {task.get('argv', 'queries')}",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: child failed ({proc.returncode}):\n{err[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


def run_jobs(workload: str, args, deadline: float) -> dict:
    """Rounds of the job list, each job in a fresh interpreter, until
    --seconds of rounds are done (at least MIN_ROUNDS).

    A job's time is the mean of its repeats; the metrics are over those
    per-job times, and the traced layer sums are per round.
    """
    from gate import check_job, check_method_agreement
    from workloads import JOBS, MIN_ROUNDS, percentile

    jobs = JOBS[workload]
    setups, rss, layers = [], [], []
    times: list[list[float]] = [[] for _ in jobs]
    outputs: list[tuple[list, str]] = []
    attempted = failed = rounds = 0
    problems: list[str] = []
    stop = time.monotonic() + args.seconds
    while rounds < MIN_ROUNDS or time.monotonic() < stop:
        if time.monotonic() >= deadline:
            break
        for i, argv in enumerate(jobs):
            attempted += 1
            res = spawn({"kind": "job", "argv": argv + ["--json"],
                         "trace": args.trace,
                         "spans_path": str(WORK / "trace" / f"{workload}-{i}.json")},
                        deadline)
            if res is None or res["code"] != 0:
                failed += 1
                problems.append(f"job failed: {' '.join(argv)}")
                continue
            setups.append(res["setup_s"])
            times[i].append(res["run_s"])
            rss.append(res["maxrss_mb"])
            layers.append(res.get("layers", {}))
            outputs.append((argv, res["stdout"]))
        rounds += 1
    job_times = sorted(statistics.fmean(t) for t in times if t) or [0.0]
    checked: dict = {}  # repeats that answer alike are checked once
    for argv, stdout in outputs:
        key = (tuple(argv), json.dumps(json.loads(stdout)["result"]))
        if key not in checked:
            checked[key] = check_job(argv, stdout)
        found = checked[key]
        failed += bool(found)
        problems += found
    disagreements = check_method_agreement(outputs)
    failed += len(disagreements)
    problems += disagreements
    run_s = sum(job_times)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "setup_s": statistics.median(setups) * len(jobs) if setups else 0.0,
            "run_s": run_s, "peak_rss_mb": max(rss, default=0.0),
            "ops_per_s": len(jobs) / (run_s or 1.0), "samples": attempted,
            # over the jobs' median times: the middle job, the slowest job
            "op_p50_us": percentile(job_times, 0.50) * 1e6,
            "op_p99_us": percentile(job_times, 0.99) * 1e6,
            "layers": layers, "rounds": rounds, "table_build_s": {},
            "job_samples": {" ".join(a): t for a, t in zip(jobs, times)}}


def run_queries(args, deadline: float) -> dict:
    """The seeded query stream in one closed-loop caller."""
    from gate import check_query
    from pegball import reference
    from workloads import BOUNDED_CASES, make_queries

    generating = {}
    for model, k in BOUNDED_CASES:
        table = reference.RD_GENERATING if model == "rd" else reference.PRD_GENERATING
        generating[(model, k)] = sorted(table[k])
    queries = make_queries(args.seed, generating)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    try:
        res = spawn({"kind": "queries", "queries": queries,
                     "seconds": args.seconds, "cache_dir": cache_dir,
                     "trace": args.trace,
                     "spans_path": str(WORK / "trace" / "queries.json")},
                    deadline)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if res is None:
        return {"attempted": 1, "failed": 1, "problems": ["query loop failed"]}
    ops = res["queries"]
    failed = 0
    problems = []
    for idx, answers in res["answers"].items():
        query = queries[int(idx)]
        for text, count in answers.items():
            if not check_query(query, json.loads(text)):
                failed += count
                problems.append(f"wrong answer {text} to {query}")
    return {"attempted": ops, "failed": failed, "problems": problems,
            "setup_s": res["setup_s"] + res["warm_s"], "run_s": res["run_s"],
            "peak_rss_mb": res["maxrss_mb"], "ops_per_s": res["ops_per_s"],
            "samples": ops, "op_p50_us": res["op_p50_s"] * 1e6,
            "op_p99_us": res["op_p99_s"] * 1e6,
            "layers": [res.get("layers", {})],
            "table_build_s": res["table_build_s"]}


def layer_metrics(summaries: list[dict], run_s: float,
                  table_build_s: dict, rounds: int) -> dict:
    """Per-layer metrics from the tracer summaries of every child, per round
    of the job list (the job rounds are alike, so counts stay whole)."""
    from tracer import LAYERS

    total: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    total = {key: value / rounds for key, value in total.items()}

    def ratio(num: str, den: str) -> float:
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total.get(f"{layer}.self_s", 0.0), "s")
        count = {"peg.PegPermutation": "constructed",
                 "peg.enumerate_clean_compact": "yielded",
                 "inflation.a_set_stream": "yielded"}.get(layer, "calls")
        if layer != "cli.run":
            out[f"{layer}.{count}"] = (total.get(f"{layer}.calls", 0), "count")
    for layer in ("basis.is_peg_basis_member", "inflation.grid_member",
                  "perm.contains_pattern"):
        out[f"{layer}.hit_ratio"] = (ratio(f"{layer}.hits", f"{layer}.calls"),
                                     "ratio")
    out["distance.distance_bounded.found_ratio"] = (
        ratio("distance.distance_bounded.found",
              "distance.distance_bounded.calls"), "ratio")
    for key in ("peg.proper_patterns.patterns_out", "distance.ball.states_out",
                "inflation.grid_enumerate.perms_out",
                "distance.peg_components_built", "trace.spans"):
        out[key] = (total.get(key, 0), "count")
    out["distance.table_build_s"] = (sum(table_build_s.values()), "s")
    out["trace.run_s"] = (run_s, "s")
    return out


def provenance(args) -> dict:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "pythonhashseed": HASH_SEED, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bases", "counts", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pegball" / "__init__.py").is_file():
        print(f"perfbench: no pegball sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # the gate and every child must not read or write a user's table cache
    os.environ.pop("PEGBALL_CACHE", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    (WORK / "trace").mkdir(parents=True, exist_ok=True)
    (WORK / "runs").mkdir(exist_ok=True)

    if args.workload == "queries":
        res = run_queries(args, deadline)
    else:
        res = run_jobs(args.workload, args, deadline)
    if args.trace:
        metrics = layer_metrics(res.get("layers", []), res.get("run_s", 0.0),
                                res.get("table_build_s", {}),
                                res.get("rounds", 1))
    else:
        metrics = {name: (res.get(name, 0.0), unit)
                   for name, unit in END_TO_END.items()}
    record = {"provenance": provenance(args),
              "attempted": res["attempted"], "failed": res["failed"],
              "error_rate": res["failed"] / res["attempted"],
              "samples": res.get("samples", 0),
              "table_build_s": res.get("table_build_s", {}),
              "job_samples": res.get("job_samples", {}),
              "problems": res["problems"],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "runs" / name).write_text(json.dumps(record, indent=1))
    for problem in res["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} error_rate={record['error_rate']} "
          f"samples={record['samples']} provenance="
          f"{json.dumps(record['provenance'])}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
