"""Self-checks: recompute frozen reference values and test structural laws.

Two suites back the ``verify`` CLI subcommand.  The ``paper`` suite
recomputes every constant in :mod:`pegball.reference` from scratch and
compares; tests mutate those constants to prove the comparison bites.  The
``properties`` suite checks the invariants the algorithms rely on
(pattern-closure of balls, grid coverage, bound admissibility,
stabilization), exhaustively at small sizes and seeded-random above them.

Not every clean compact peg permutation of length n has a clean compact
pattern of length n-1: the all-bullet pegs on 2413 and 3142 have none (every
one-element deletion creates a strip, and an all-bullet peg has no
weakenings).  ``reduced-pattern`` checks that these two are the only such
pegs up to length 6, since the prefix-reversal peg basis bound rests on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations_with_replacement, permutations
from math import factorial

from . import reference
from .basis import (_bullet_ball_level, exceptional_check,
                    is_peg_basis_member, m_set, peg_basis, peg_basis_bound,
                    standard_basis)
from .distance import (Model, TableKind, _ball_level, ball, distance,
                       distance_peg, distance_peg_via_inflation, lower_bound,
                       pair_distance)
from .enumeration import CountMethod, count_ball, sequence
from .generators import generating_set, prd_generating_set, rd_inflate_step
from .inflation import (_inflations, _plan, grid_enumerate, grid_member,
                        legal_vectors)
from .peg import (Decoration, ExceptionalKind, PegPermutation,
                  _is_clean_compact_key, _peg_deletions, _peg_keys,
                  _peg_of_key, _peg_weakenings, clean_compact_proper_patterns,
                  enumerate_clean_compact, exceptional, format_peg,
                  is_clean_compact, parse_peg, peg_of, peg_pattern_contains,
                  peg_sort_key)
from .perm import (Perm, avoids_all, compose, contains_pattern, format_perm,
                   parse_perm, reversal)

_MAX_DETAIL = 4


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        body = f" ({self.detail})" if self.detail else ""
        return f"[{self.suite}] {self.name}: {status}{body}"


def _result(suite: str, name: str, failures: list[str], scope: str) -> CheckResult:
    if not failures:
        return CheckResult(suite, name, True, scope)
    head = "; ".join(failures[:_MAX_DETAIL])
    if len(failures) > _MAX_DETAIL:
        head += f"; ... {len(failures) - _MAX_DETAIL} more"
    return CheckResult(suite, name, False, head)


# ---------------------------------------------------------------------------
# paper suite: frozen values recomputed

def _check_distances(name: str, cases, oracle, parse) -> CheckResult:
    fails = [f"{model_name}({text}) = {got}, expected {want}"
             for model_name, text, want in cases
             for got in (oracle(Model(model_name), parse(text)),)
             if got != want]
    return _result("paper", name, fails, f"{len(cases)} exact values")


def _check_generating_sets() -> CheckResult:
    fails = []
    for model_name, table in (("rd", reference.RD_GENERATING),
                              ("prd", reference.PRD_GENERATING)):
        for k, want in sorted(table.items()):
            got = {format_peg(pp)
                   for pp in generating_set(Model(model_name), k).members}
            if got != set(want):
                fails.append(f"{model_name} k={k}: {sorted(got)}")
    for k in range(1, reference.PRD_GENERATING_COUNT_MAX_K + 1):
        got = len(prd_generating_set(k))
        if got != factorial(k):
            fails.append(f"|prd k={k}| = {got} != {k}!")
    return _result("paper", "generating-sets", fails,
                   f"exact sets; prd counts = k! for k <= "
                   f"{reference.PRD_GENERATING_COUNT_MAX_K}")


def _check_peg_bases() -> CheckResult:
    fails = []
    for (model_name, k), want in sorted(reference.PEG_BASES.items()):
        model = Model(model_name)
        members = peg_basis(model, k).members
        got = {format_peg(pp) for pp in members}
        if got != set(want):
            fails.append(f"{model_name} k={k}: {sorted(got)}")
        # the definition-level test is a second route to the sweep
        fails += [f"{model_name} k={k}: {format_peg(pp)} is no member by "
                  f"definition or exceeds the bound"
                  for pp in sorted(members, key=peg_sort_key)
                  if len(pp) > peg_basis_bound(model, k)
                  or not is_peg_basis_member(model, k, pp)]
    return _result("paper", "peg-bases", fails,
                   f"{len(reference.PEG_BASES)} bases, exact")


def _check_m_sets() -> CheckResult:
    fails = []
    for model_name, beta_text, want in reference.M_SETS:
        ms = m_set(Model(model_name), parse_peg(beta_text))
        if set(ms.members) != {parse_perm(t) for t in want}:
            fails.append(f"M_{{{beta_text}}} = "
                         f"{sorted(format_perm(p) for p in ms.members)}")
        elif ms.no_candidates:
            fails.append(f"M_{{{beta_text}}}: length cap hit")
    return _result("paper", "m-sets", fails,
                   f"{len(reference.M_SETS)} fibers, exact")


def _check_standard_bases() -> CheckResult:
    fails = []
    frozen = dict(reference.STANDARD_BASES)
    frozen["rd", 2] = reference.RD_K2_BASIS
    m_unions = {}
    for (model_name, k), texts in sorted(frozen.items()):
        model = Model(model_name)
        got, want = standard_basis(model, k), {parse_perm(t) for t in texts}
        if got != want:
            fails.append(f"{model_name} k={k}: missing "
                         f"{sorted(format_perm(p) for p in want - got)}, "
                         f"extra {sorted(format_perm(p) for p in got - want)}")
        # the paper's route cross-checks the sweep: every M-set witness lies
        # outside B_k, so it contains a member of the basis
        union = m_unions[model_name, k] = {
            g for beta in peg_basis(model, k).members
            for g in m_set(model, beta).members}
        fails += [f"{model_name} k={k}: M-set witness {format_perm(g)} is in "
                  f"B_k or avoids the basis" for g in sorted(union)
                  if distance(model, g) <= k or avoids_all(got, g)]
    # three members avoid the whole M-set union; only the ball sweep
    # recovers them
    for text in sorted(reference.RD_K2_BASIS_SWEEP_ONLY):
        if text not in reference.RD_K2_BASIS:
            fails.append(f"sweep member {text} missing from rd k=2 basis")
        if not avoids_all(m_unions["rd", 2], parse_perm(text)):
            fails.append(f"{text} unexpectedly contains an M-set witness")
    return _result("paper", "standard-bases", fails,
                   f"{len(frozen)} frozen bases, exact; every M-set witness "
                   f"contains a member")


def _check_fiber() -> CheckResult:
    from .inflation import a_set_stream

    beta = parse_peg(reference.FIGURE1_BETA)
    members = sorted(a_set_stream(beta, reference.FIGURE1_MAX_LENGTH), key=len)
    fails = []
    strays = [g for g in members if peg_of(g) != beta]
    if strays:
        fails.append(f"{len(strays)} members do not collapse to {beta}")
    bottom = parse_perm(reference.FIGURE1_BOTTOM)
    shortest = [g for g in members if len(g) == len(members[0])]
    if shortest != [bottom]:
        fails.append(f"bottom is {[format_perm(g) for g in shortest]}")
    if distance(Model.RD, bottom) != reference.FIGURE1_BOTTOM_DISTANCE:
        fails.append("bottom distance changed")
    covers = {g for g in members if len(g) == len(bottom) + 1}
    if covers != {parse_perm(t) for t in reference.FIGURE1_COVERS}:
        fails.append(f"covers are {sorted(format_perm(g) for g in covers)}")
    for g in covers:
        if distance(Model.RD, g) != reference.FIGURE1_COVER_DISTANCE:
            fails.append(f"cover {format_perm(g)} distance changed")
        if not contains_pattern(bottom, g):
            fails.append(f"cover {format_perm(g)} does not contain the bottom")
    top = parse_perm(reference.FIGURE1_MINIMAL_AT_3)
    if top not in members:
        fails.append(f"{reference.FIGURE1_MINIMAL_AT_3} missing from fiber")
    elif distance(Model.RD, top) != 3:
        fails.append(f"{reference.FIGURE1_MINIMAL_AT_3} not at distance 3")
    else:
        blockers = [g for g in members
                    if g != top and contains_pattern(g, top)
                    and distance(Model.RD, g) >= 3]
        if blockers:
            fails.append(f"{reference.FIGURE1_MINIMAL_AT_3} not minimal at 3")
    return _result("paper", "fiber", fails,
                   f"{len(members)} fiber members up to length "
                   f"{reference.FIGURE1_MAX_LENGTH}")


def _check_exceptional() -> CheckResult:
    fails = []
    kinds = {kind.value: kind for kind in ExceptionalKind}
    for kind_name, n, text in reference.EXCEPTIONAL_FORMS:
        got = format_peg(exceptional(kinds[kind_name], n))
        if got != text:
            fails.append(f"{kind_name}({n}) = {got}, expected {text}")
    for k in range(4):
        for report in exceptional_check(k):
            if not report.ok:
                fails.append(f"{report.kind.value}({report.n}): distance "
                             f"{report.distance}, basis membership "
                             f"({report.in_basis_k}, {report.in_basis_k_plus_1})")
    return _result("paper", "exceptional", fails,
                   "forms for n <= 5; distance and double basis membership "
                   "for k <= 3")


def _check_ball_counts() -> CheckResult:
    fails = []
    for model_name, k, want in reference.BALL_COUNTS:
        got = sequence(Model(model_name), k, len(want))
        if got != list(want):
            fails.append(f"{model_name} k={k}: {got}")
    for n in range(4, 11):
        want = reference.prd_k2_count(n)
        for method in (CountMethod.GRID, CountMethod.AVOID):
            got = count_ball(Model.PRD, 2, n, method)
            if got != want:
                fails.append(f"prd k=2 n={n} {method.value}: {got} != {want}")
        if n <= 8:
            got = count_ball(Model.PRD, 2, n, CountMethod.BFS)
            if got != want:
                fails.append(f"prd k=2 n={n} bfs: {got} != {want}")
    for model in (Model.RD, Model.PRD):
        for k in range(3):
            for n in range(1, 8):
                counts = {m.value: count_ball(model, k, n, m)
                          for m in CountMethod}
                if len(set(counts.values())) != 1:
                    fails.append(f"{model.value} k={k} n={n}: {counts}")
    cc2 = sum(1 for _ in enumerate_clean_compact(2))
    if cc2 != reference.CLEAN_COMPACT_COUNT_N2:
        fails.append(f"clean compact count at n=2: {cc2}")
    return _result("paper", "ball-counts", fails,
                   "frozen sequences; (n-1)^2+1 law for n <= 10; "
                   "three methods agree for k <= 2, n <= 7")


def paper_suite() -> list[CheckResult]:
    """Recompute every frozen reference value."""
    return [
        _check_distances("distances", reference.DISTANCES, distance,
                         parse_perm),
        _check_distances("peg-distances", reference.PEG_DISTANCES,
                         distance_peg, parse_peg),
        _check_generating_sets(),
        _check_peg_bases(),
        _check_m_sets(),
        _check_standard_bases(),
        _check_fiber(),
        _check_exceptional(),
        _check_ball_counts(),
    ]


# ---------------------------------------------------------------------------
# properties suite

def _all_pegs(m: int):
    return map(_peg_of_key, _peg_keys(m))


def _grid_upto(pp: PegPermutation, n_max: int) -> set[Perm]:
    return set().union(*(grid_enumerate((pp,), n) for n in range(1, n_max + 1)))


def _random_perm(rng: random.Random, n: int) -> Perm:
    return tuple(rng.sample(range(1, n + 1), n))


def _random_peg(rng: random.Random, n: int) -> PegPermutation:
    return PegPermutation(_random_perm(rng, n),
                          tuple(rng.choice(tuple(Decoration)) for _ in range(n)))


def _check_left_invariance(rng: random.Random) -> CheckResult:
    fails = []
    for _ in range(200):
        n = rng.randint(2, 5)
        p, q, a = (_random_perm(rng, n) for _ in range(3))
        for model in Model:
            base = pair_distance(model, p, q)
            shifted = pair_distance(model, compose(a, p), compose(a, q))
            if base != shifted:
                fails.append(f"{model.value}: d({p},{q})={base} but "
                             f"composed with {a} gives {shifted}")
    return _result("properties", "left-invariance", fails,
                   "200 random triples, n <= 5, both models")


def _check_down_set() -> CheckResult:
    # One-step closure implies full closure: any pattern relation factors
    # into single deletions followed by single sign-weakenings.  The check
    # reads the states and reductions of the basis sweep: standard balls as
    # all-bullet pegs, k <= 3 and n <= 6; peg balls k <= 2, n <= 4.
    fails, peg_level = [], partial(_ball_level, kind=TableKind.PEG)
    bullet_level = lambda model, k, n: set(_bullet_ball_level(model, k, n))
    for model in Model:
        for level, k_max, n_max in ((bullet_level, 3, 6),
                                    (peg_level, 2, 4)):
            for k in range(k_max + 1):
                balls = [level(model, k, n) for n in range(1, n_max + 1)]
                for n in range(2, n_max + 1):
                    for key in balls[n - 1]:
                        for q in _peg_deletions(key):
                            if q not in balls[n - 2]:
                                fails.append(f"{model.value} k={k}: deletion "
                                             f"{_peg_of_key(q)} of {_peg_of_key(key)} escapes")
                        for q in _peg_weakenings(key):
                            if q not in balls[n - 1]:
                                fails.append(f"{model.value} k={k}: weakening "
                                             f"{_peg_of_key(q)} of {_peg_of_key(key)} escapes")
    return _result("properties", "down-set", fails,
                   "standard balls k <= 3, n <= 6; peg balls k <= 2, n <= 4")


def _check_peg_dominates() -> CheckResult:
    fails = []
    for model in Model:
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                pp = peg_of(p)
                if distance(model, p) > distance_peg(model, pp):
                    fails.append(f"{model.value}({format_perm(p)}) > "
                                 f"{model.value}_peg({format_peg(pp)})")
    return _result("properties", "peg-dominates", fails,
                   "all permutations of length <= 7, both models")


def _check_lower_bounds() -> CheckResult:
    fails = []
    count = 0
    for model in Model:
        for m in range(1, 6):
            for pp in enumerate_clean_compact(m):
                count += 1
                if lower_bound(model, pp) > distance_peg(model, pp):
                    fails.append(f"{model.value} {format_peg(pp)}: bound "
                                 f"{lower_bound(model, pp)} exceeds distance")
    return _result("properties", "lower-bounds", fails,
                   f"{count} clean compact pegs of length <= 5")


def _inflation_set(pp: PegPermutation, n: int) -> set[Perm]:
    """Every pp[v] of length n: one plan, inflated by each legal vector."""
    plan = _plan(pp.base, pp.decorations)
    return {next(_inflations(plan, v, n)) for v in legal_vectors(pp, n)}


def _check_grid_member(rng: random.Random) -> CheckResult:
    small_pegs = [pp for m in (1, 2, 3) for pp in _all_pegs(m)]
    small_perms = [p for n in (1, 2, 3, 4, 5)
                   for p in permutations(range(1, n + 1))]
    pairs = [(pp, g) for pp in small_pegs for g in small_perms]
    pairs += [(_random_peg(rng, 4), _random_perm(rng, rng.randint(4, 7)))
              for _ in range(150)]
    pairs += [(_random_peg(rng, rng.randint(1, 3)),
               _random_perm(rng, rng.randint(6, 7))) for _ in range(100)]
    inflations = cache(_inflation_set)  # per (peg, length), for this run
    fails = [f"{format_peg(pp)} vs {format_perm(g)}" for pp, g in pairs
             if grid_member(pp, g) != (g in inflations(pp, len(g)))]
    return _result("properties", "grid-member", fails,
                   f"{len(pairs)} pairs: exhaustive |pp| <= 3 x |g| <= 5, "
                   "sampled up to |pp| = 4, |g| = 7")


def _check_plusone_cover() -> CheckResult:
    fails = []
    alphas: dict[str, PegPermutation] = {}
    for k in range(3):
        for pp in generating_set(Model.RD, k).members:
            alphas[format_peg(pp)] = pp
    for m in (1, 2, 3):
        for pp in _all_pegs(m):
            if is_clean_compact(pp) and Decoration.DOT not in pp.decorations:
                alphas.setdefault(format_peg(pp), pp)
    for key, alpha in sorted(alphas.items()):
        lhs = {reversal(g, i, j) for g in _grid_upto(alpha, 6)
               for i in range(1, len(g) + 1) for j in range(i, len(g) + 1)}
        rhs = set().union(*(
            _grid_upto(rd_inflate_step(alpha, I), 6)
            for I in combinations_with_replacement(range(1, len(alpha) + 1), 2)))
        if lhs != rhs:
            fails.append(f"{key}: {len(lhs - rhs)} missing, "
                         f"{len(rhs - lhs)} extra")
    return _result("properties", "plusone-cover", fails,
                   f"{len(alphas)} sign-only clean compact pegs, "
                   "permutations up to length 6")


def _check_maximal_generating() -> CheckResult:
    fails = []
    plans = ((Model.RD, (0, 1, 2), lambda k: max(2 * k + 1, 1)),
             (Model.PRD, (0, 1, 2, 3), lambda k: max(k + 1, 1)))
    for model, ks, max_len in plans:
        for k in ks:
            members: set[PegPermutation] = set()
            for n in range(1, max_len(k) + 1):
                members |= {pp for pp in ball(model, k, n, TableKind.PEG)
                            if is_clean_compact(pp)}
            maximal = {pp for pp in members
                       if not any(q != pp and peg_pattern_contains(pp, q)
                                  for q in members)}
            want = generating_set(model, k).members
            if maximal != want:
                fails.append(f"{model.value} k={k}: maximal = "
                             f"{sorted(format_peg(pp) for pp in maximal)}")
    return _result("properties", "maximal-generating", fails,
                   "rd k <= 2, prd k <= 3")


def _check_reduced_pattern() -> CheckResult:
    # The pegs with no clean compact pattern one shorter must be exactly the
    # recorded gaps; peg_basis_bound for prefix reversals rests on this.
    # Runs on peg states: length 6 alone has 240,592 pegs.  A weakening
    # turns a sign into a bullet, which can join strips but never split
    # them, so a clean compact pattern one shorter is a plain deletion.
    fails = []
    gaps = set()
    for n in range(2, 7):
        for key in filter(_is_clean_compact_key, _peg_keys(n)):
            has = any(map(_is_clean_compact_key, _peg_deletions(key)))
            if n > 4 and has:
                continue
            pp = _peg_of_key(key)
            if n <= 4 and has != any(len(q) == n - 1 for q in
                                     clean_compact_proper_patterns(pp)):
                fails.append(f"shortcut disagrees at {format_peg(pp)}")
            if not has:
                gaps.add(format_peg(pp))
    want = set(reference.REDUCED_PATTERN_GAPS)
    if gaps != want:
        fails.append(f"gaps {'; '.join(sorted(gaps))} != recorded "
                     f"{'; '.join(sorted(want))}")
    return _result("properties", "reduced-pattern", fails,
                   f"lengths 2..6: only {'; '.join(sorted(gaps))} have no "
                   "clean compact pattern one shorter")


def _check_via_inflation() -> CheckResult:
    max_total, max_n = 20, 8
    fails = []
    count = 0
    for model in Model:
        for m in (1, 2, 3):
            for pp in _all_pegs(m):
                count += 1
                d = distance_peg(model, pp)
                signed = sum(dec is not Decoration.DOT for dec in pp.decorations)
                values = []
                for n in range(1, max_n + 1):
                    if signed * n + len(pp) - signed > max_total:
                        break
                    values.append(distance_peg_via_inflation(model, pp, n))
                    if signed == 0:
                        break
                if any(b < a for a, b in zip(values, values[1:])):
                    fails.append(f"{model.value} {format_peg(pp)}: "
                                 f"not monotone {values}")
                elif d not in values:
                    fails.append(f"{model.value} {format_peg(pp)}: "
                                 f"never reaches {d}: {values}")
                elif values[values.index(d):] != [d] * (len(values) - values.index(d)):
                    fails.append(f"{model.value} {format_peg(pp)}: "
                                 f"unstable after reaching {d}: {values}")
    return _result("properties", "via-inflation", fails,
                   f"{count} pegs of length <= 3, both models")


def property_suite(seed: int = 0) -> list[CheckResult]:
    """Structural invariants, exhaustive at small sizes, seeded above."""
    rng = random.Random(seed)
    return [
        _check_left_invariance(rng),
        _check_down_set(),
        _check_peg_dominates(),
        _check_lower_bounds(),
        _check_grid_member(rng),
        _check_plusone_cover(),
        _check_maximal_generating(),
        _check_reduced_pattern(),
        _check_via_inflation(),
    ]


def run_suites(which: str = "all", seed: int = 0) -> list[CheckResult]:
    """Run the named suite ("paper", "properties", or "all")."""
    if which not in ("paper", "properties", "all"):
        raise ValueError(f"unknown suite: {which!r}")
    results: list[CheckResult] = []
    if which in ("paper", "all"):
        results.extend(paper_suite())
    if which in ("properties", "all"):
        results.extend(property_suite(seed))
    return results
