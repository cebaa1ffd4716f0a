"""Exactness gate: every job output and query answer is checked, untimed.

Values frozen in ``pegball.reference`` are compared directly (they are read
at call time, so a test can corrupt one).  Elsewhere an independent oracle
decides: bases by distance and one-point deletions, peg bases by
``distance_peg``, counts by a breadth-first count with the gate's own moves
and by agreement between methods, table lookups by the bounded search, long
distances by two meeting breadth-first balls, and witnesses and violations
by re-checking them another way.
"""

from __future__ import annotations

import functools
import itertools
import json

from pegball import (Decoration, Model, PegPermutation, distance,
                     distance_bounded, distance_peg, enumerate_clean_compact,
                     grid_enumerate, is_clean_compact, lower_bound,
                     oriented_prefix_reversal, oriented_reversal, parse_peg,
                     parse_perm, peg_pattern_contains)
from pegball import reference


def _deletions(p: tuple) -> set:
    """Patterns of p with one point removed."""
    out = set()
    for i in range(len(p)):
        rest = p[:i] + p[i + 1:]
        out.add(tuple(v - (v > p[i]) for v in rest))
    return out


def _peg_deletions(pp: PegPermutation) -> set:
    out = set()
    for i in range(len(pp)):
        base = pp.base[:i] + pp.base[i + 1:]
        base = tuple(v - (v > pp.base[i]) for v in base)
        out.add(PegPermutation(base, pp.decorations[:i] + pp.decorations[i + 1:]))
    return out


def check_basis(model: str, k: int, rows: list) -> list[str]:
    """`basis` output: frozen bases, then minimal exclusion by distance."""
    m = Model(model)
    members = {parse_perm(row["perm"]) for row in rows}
    text = {"".join(map(str, p)) for p in members}
    problems = []
    expected = reference.STANDARD_BASES.get((model, k))
    if (model, k) == ("rd", 2):
        expected = reference.RD_K2_BASIS
        sweep_only = {r["perm"].replace(" ", "") for r in rows
                      if not r["sources"]}
        if sweep_only != reference.RD_K2_BASIS_SWEEP_ONLY:
            problems.append(f"basis {model} k={k}: sweep-only members "
                            f"{sorted(sweep_only)}")
    if expected is not None and text != expected:
        problems.append(f"basis {model} k={k}: differs from reference by "
                        f"{sorted(text ^ expected)}")
    for p in members:
        if distance(m, p) <= k or any(distance(m, q) > k for q in _deletions(p)):
            problems.append(f"basis {model} k={k}: {p} is not minimal outside")
    return problems


# Completeness is checked up to this length (about a second at 5).
COMPLETE_TO = 5


def _peg_patterns(pp: PegPermutation):
    """Every peg pattern of pp but pp: each subsequence, rescaled, with each
    subset of its signs weakened to bullets."""
    n = len(pp)
    for size in range(n + 1):
        for positions in itertools.combinations(range(n), size):
            values = [pp.base[i] for i in positions]
            base = tuple(sorted(values).index(v) + 1 for v in values)
            kept = [pp.decorations[i] for i in positions]
            signed = [i for i, d in enumerate(kept) if d is not Decoration.DOT]
            for weak in range(2 ** len(signed)):
                decs = list(kept)
                for b, i in enumerate(signed):
                    if weak >> b & 1:
                        decs[i] = Decoration.DOT
                q = PegPermutation(base, tuple(decs))
                if q != pp:
                    yield q


def check_peg_basis(model: str, k: int, members: list,
                    bound: int) -> list[str]:
    """`peg-basis` output: frozen bases; distance_peg > k for each member and
    <= k for each clean compact one-point deletion; and every clean compact
    peg outside the ball, up to the output's length bound (at most
    COMPLETE_TO), contains a member.

    For reversals a member must have every peg pattern in the ball, clean
    compact or not, so there a clean compact peg outside the ball may
    instead contain a peg outside the ball that is not clean compact: its
    least pattern outside the ball is then such a peg, not a member.
    """
    m = Model(model)
    pegs = [parse_peg(s) for s in members]
    problems = []
    expected = reference.PEG_BASES.get((model, k))
    if expected is not None and set(members) != expected:
        problems.append(f"peg-basis {model} k={k}: differs from reference by "
                        f"{sorted(set(members) ^ expected)}")
    for pp in pegs:
        if not is_clean_compact(pp) or distance_peg(m, pp) <= k:
            problems.append(f"peg-basis {model} k={k}: {pp} is not outside")
        elif any(is_clean_compact(q) and len(q) and distance_peg(m, q) > k
                 for q in _peg_deletions(pp)):
            problems.append(f"peg-basis {model} k={k}: {pp} is not minimal")
    for n in range(1, min(bound, COMPLETE_TO) + 1):
        for pp in enumerate_clean_compact(n):
            if (distance_peg(m, pp) > k
                    and not any(peg_pattern_contains(b, pp) for b in pegs)
                    and not (m is Model.RD and any(
                        len(q) and not is_clean_compact(q)
                        and distance_peg(m, q) > k
                        for q in _peg_patterns(pp)))):
                problems.append(f"peg-basis {model} k={k}: {pp} is outside "
                                f"but contains no member")
    return problems


def _moves(model: str, p: tuple):
    n = len(p)
    if model == "rd":
        for i in range(n):
            for j in range(i + 1, n):
                yield p[:i] + p[i:j + 1][::-1] + p[j + 1:]
    else:
        for j in range(2, n + 1):
            yield p[:j][::-1] + p[j:]


def _bfs(model: str, start: tuple, radius: int) -> dict:
    dist = {start: 0}
    frontier = [start]
    for depth in range(1, radius + 1):
        new = []
        for p in frontier:
            for q in _moves(model, p):
                if q not in dist:
                    dist[q] = depth
                    new.append(q)
        frontier = new
    return dist


@functools.lru_cache(maxsize=None)
def ball_size(model: str, k: int, n: int) -> int:
    return len(_bfs(model, tuple(range(1, n + 1)), k))


def check_counts(model: str, k: int, method: str, counts: list) -> list[str]:
    """`enumerate` output: frozen counts, then a breadth-first ball count of
    each length by the gate's own moves."""
    problems = []
    for frozen_model, frozen_k, values in reference.BALL_COUNTS:
        if (frozen_model, frozen_k) == (model, k):
            if list(values[:len(counts)]) != counts[:len(values)]:
                problems.append(f"counts {model} k={k}: differ from reference")
    if (model, k) == ("prd", 2):
        if counts != [reference.prd_k2_count(n)
                      for n in range(1, len(counts) + 1)]:
            problems.append(f"counts prd k=2 {method}: differ from reference")
    sizes = [ball_size(model, k, n) for n in range(1, len(counts) + 1)]
    if sizes != counts:
        problems.append(f"counts {model} k={k} {method}: {counts} != {sizes}")
    return problems


def check_job(argv: list, stdout: str) -> list[str]:
    envelope = json.loads(stdout)
    model, k, result = envelope["model"], envelope["k"], envelope["result"]
    command = argv[0]
    if command == "basis":
        problems = check_basis(model, k, result["members"])
    elif command == "peg-basis":
        problems = check_peg_basis(model, k, result["members"],
                                   result["bound"])
    elif command == "enumerate":
        problems = check_counts(model, k, result["method"], result["counts"])
    else:
        raise ValueError(f"no gate for {command}")
    if "members" in result and result["count"] != len(result["members"]):
        problems.append(f"{command}: count field disagrees with members")
    return problems


def check_method_agreement(outputs: list[tuple[list, str]]) -> list[str]:
    """Count methods run on the same (model, k) agree on common lengths."""
    by_case: dict = {}
    for argv, stdout in outputs:
        envelope = json.loads(stdout)
        if envelope["command"] == "enumerate":
            key = (envelope["model"], envelope["k"])
            by_case.setdefault(key, []).append(envelope["result"])
    problems = []
    for (model, k), results in by_case.items():
        first = results[0]["counts"]
        for other in results[1:]:
            n = min(len(first), len(other["counts"]))
            if other["counts"][:n] != first[:n]:
                problems.append(f"counts {model} k={k}: {other['method']} "
                                f"disagrees with {results[0]['method']}")
    return problems


# --- queries -----------------------------------------------------------------

def exact_distance(model: str, p: tuple, bound: int) -> int | None:
    """Distance of p if it is <= bound, from two breadth-first balls that meet.

    A shortest path of length L <= bound passes through a state at distance
    ceil(bound/2) from p (or reaches the identity first), which the ball
    around the identity of radius floor(bound/2) then contains.
    """
    near_p = _bfs(model, p, (bound + 1) // 2)
    near_id = _bfs(model, tuple(sorted(p)), bound // 2)
    best = min((near_p[x] + near_id[x] for x in near_p.keys() & near_id.keys()),
               default=None)
    return best if best is not None and best <= bound else None


def _contains(b: tuple, p: tuple) -> bool:
    """Pattern containment by trying every position set."""
    order = sorted(range(len(b)), key=b.__getitem__)
    for positions in itertools.combinations(range(len(p)), len(b)):
        values = [p[i] for i in positions]
        if all(values[order[i]] < values[order[i + 1]]
               for i in range(len(b) - 1)):
            return True
    return False


def _peg_goal(pp: PegPermutation) -> bool:
    return (pp.base == tuple(range(1, len(pp) + 1))
            and all(d.value in "+." for d in pp.decorations))


def check_query(query: list, answer) -> bool:
    """True iff `answer` (decoded JSON) is the exact answer to `query`."""
    kind, model = query[0], query[1]
    m = Model(model)
    if kind in ("distance", "distance_cached"):
        p = parse_perm(query[2])
        return (isinstance(answer, int)
                and distance_bounded(m, p, answer) == answer)
    if kind == "distance_peg":
        pp = parse_peg(query[2])
        if not isinstance(answer, int) or answer < lower_bound(m, pp):
            return False
        if answer == 0:
            return _peg_goal(pp)
        n = len(pp)
        if m is Model.RD:
            moves = [oriented_reversal(pp, i, j)
                     for i in range(1, n + 1) for j in range(i, n + 1)]
        else:
            moves = [oriented_prefix_reversal(pp, j) for j in range(1, n + 1)]
        return (not _peg_goal(pp)
                and 1 + min(distance_peg(m, q) for q in moves) == answer)
    k, p = query[2], parse_perm(query[3])
    if kind == "bounded":
        return answer is not None and answer == exact_distance(model, p, k)
    member, d, found = answer
    if distance_bounded(m, p, d) != d or member != (d <= k) or found is None:
        return False
    if member:
        gens = (reference.RD_GENERATING if model == "rd"
                else reference.PRD_GENERATING)[k]
        return found in gens and p in grid_enumerate({parse_peg(found)}, len(p))
    violated = parse_perm(found)
    return ("".join(map(str, violated)) in reference.STANDARD_BASES[(model, k)]
            and _contains(violated, p))
