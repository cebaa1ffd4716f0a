"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is asserted with the ball-size law written as (n-1)^2 + 1: the
raw counts (three independent methods agree with brute-force BFS) are
1, 2, 5, 10, 17, 26, ... for n = 1, 2, 3, ..., so the quadratic law holds
with the shift recorded at reference.prd_k2_count, matching the stated
sequence values 10, 17, 26, 37 over the stated range.

Criterion 9 requires all nine property sub-suites to pass.  Its
reduced-pattern sub-suite checks that the all-bullet pegs on 2413 and 3142
are the only clean compact pegs of length 2..6 with no clean compact pattern
one shorter (see "Verification status" in the README).
"""

import time
from math import factorial

from pegball import reference
from pegball.basis import exceptional_check, m_set, peg_basis, standard_basis
from pegball.distance import (Model, ResourceLimitError, distance,
                              distance_peg)
from pegball.enumeration import CountMethod, count_ball
from pegball.generators import prd_generating_set, rd_generating_set
from pegball.inflation import a_set_stream
from pegball.peg import format_peg, parse_peg
from pegball.perm import parse_perm


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_1():
    """Anchor distances, each under a second with warm tables."""
    anchors = [
        (lambda: distance(Model.RD, parse_perm("3412")), 2),
        (lambda: distance(Model.RD, parse_perm("456123")), 3),
        (lambda: distance_peg(Model.RD, parse_peg("2+ 1+")), 3),
        (lambda: distance_peg(Model.RD, parse_peg("1+ 2- 3+")), 1),
    ]
    for fn, _ in anchors:
        fn()  # warm the tables
    ok, worst = True, 0.0
    for fn, want in anchors:
        t0 = time.perf_counter()
        got = fn()
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and got == want and dt < 1.0
    line = _report(1, ok, f"rd(3412)=2, rd(456123)=3, rd_peg(2+1+)=3, "
                          f"rd_peg(1+2-3+)=1; slowest warm call {worst:.3f}s")
    assert ok, line


def test_criterion_2():
    t0 = time.perf_counter()
    got1 = {format_peg(p) for p in rd_generating_set(1).members}
    got2 = {format_peg(p) for p in rd_generating_set(2).members}
    dt = time.perf_counter() - t0
    ok = (got1 == set(reference.RD_GENERATING[1])
          and got2 == set(reference.RD_GENERATING[2]) and dt < 10.0)
    line = _report(2, ok, f"rd generating sets k=1 (1 member) and k=2 "
                          f"(4 members) exact in {dt:.2f}s")
    assert ok, line


def test_criterion_3():
    t0 = time.perf_counter()
    ok = True
    for k, want in reference.PRD_GENERATING.items():
        got = {format_peg(p) for p in prd_generating_set(k).members}
        ok = ok and got == set(want)
    for k in range(1, 7):
        ok = ok and len(prd_generating_set(k).members) == factorial(k)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    line = _report(3, ok, f"prd generating sets exact for k=1..3 and "
                          f"|set|=k! for k<=6 in {dt:.2f}s")
    assert ok, line


def test_criterion_4():
    t0 = time.perf_counter()
    rd1 = {format_peg(p) for p in peg_basis(Model.RD, 1).members}
    prd1 = {format_peg(p) for p in peg_basis(Model.PRD, 1).members}
    dt = time.perf_counter() - t0
    ok = (rd1 == {"1- 2-", "2+ 1.", "2. 1+"}
          and prd1 == {"1. 2-", "2. 1+", "2+ 1.", "3. 1- 2.", "2- 3. 1.",
                       "2. 4. 1. 3.", "3. 1. 4. 2."}
          and dt < 30.0)
    line = _report(4, ok, f"peg bases rd k=1 (3 members) and prd k=1 "
                          f"(7 members) exact in {dt:.2f}s")
    assert ok, line


def test_criterion_5():
    t0 = time.perf_counter()
    ok = True
    for (model, k), want in reference.STANDARD_BASES.items():
        got = standard_basis(Model(model), k)
        ok = ok and got == {parse_perm(t) for t in want}
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    line = _report(5, ok, f"standard bases (rd,1), (prd,1), (prd,2) exact "
                          f"in {dt:.2f}s")
    assert ok, line


def test_criterion_6():
    beta = parse_peg(reference.FIGURE1_BETA)
    members = list(a_set_stream(beta, reference.FIGURE1_MAX_LENGTH))
    dists = {p: distance(Model.RD, p) for p in members}
    bottom = parse_perm(reference.FIGURE1_BOTTOM)
    covers = {parse_perm(t) for t in reference.FIGURE1_COVERS}
    minimal3 = parse_perm(reference.FIGURE1_MINIMAL_AT_3)
    ok = (members[0] == bottom and dists[bottom] == 2
          and {p for p in members if len(p) == 5} == covers
          and all(dists[c] == 2 for c in covers)
          and dists[minimal3] == 3)
    line = _report(6, ok, "fiber of 2+ 1+ up to length 6: bottom 3412 at "
                          "distance 2, covers 34512/45123 at 2, "
                          "456123 minimal at 3")
    assert ok, line


def test_criterion_7():
    ok = True
    pairs = 0
    for k in range(6):  # exceptional lengths n = k + 2 <= 7
        for rep in exceptional_check(k):
            pairs += 1
            ok = (ok and rep.n == k + 2 and rep.distance == rep.n
                  and rep.distance_ok and rep.in_basis_k
                  and rep.in_basis_k_plus_1)
    ok = ok and pairs == 12  # two kinds per parity and length
    line = _report(7, ok, "exceptional forms n<=7: distance = n and "
                          "membership in both adjacent prd peg bases")
    assert ok, line


def test_criterion_8():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 11):
        want = reference.prd_k2_count(n)  # (n-1)^2 + 1; see module docstring
        ok = ok and count_ball(Model.PRD, 2, n, CountMethod.GRID) == want
        ok = ok and count_ball(Model.PRD, 2, n, CountMethod.AVOID) == want
        if n <= 8:
            ok = ok and count_ball(Model.PRD, 2, n, CountMethod.BFS) == want
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    line = _report(8, ok, f"|B_2^(prd)(n)| = (n-1)^2+1 for n=4..10 via GRID "
                          f"and AVOID, = BFS for n<=8, in {dt:.2f}s")
    assert ok, line


def test_criterion_9(property_results):
    results = property_results
    for r in results:
        print(f"ACCEPTANCE 9 [{r.name}]: {'PASS' if r.passed else 'FAIL'}"
              f" — {r.detail}")
    failures = [r for r in results if not r.passed]
    ok = not failures
    line = _report(9, ok, "all nine property suites" if ok else
                   "failing: " + ", ".join(r.name for r in failures)
                   + "; see \"Verification status\" in the README")
    assert ok, line


def test_criterion_10():
    """Excluded targets stay excluded and guarded, not silently attempted."""
    try:
        peg_basis(Model.RD, 4)
        guarded = False
    except ResourceLimitError:
        guarded = True
    capped = m_set(Model.RD, parse_peg("2+ 1+"), 3)
    ok = guarded and capped.no_candidates and capped.members == frozenset()
    line = _report(10, ok, "large-k peg bases and uncapped M-set searches "
                           "are refused with explicit limits; property "
                           "suites stand in for them")
    assert ok, line
