"""Clean compact peg bases of the balls, M-sets, and standard bases.

A clean compact peg permutation is a basis member of B-hat_k iff its own
distance exceeds k while every proper pattern in scope stays within k; the
scope is the full peg pattern order for reversals and the clean compact
ones for prefix reversals (see is_peg_basis_member).  Length bounds make
the search finite: 2k+1 for reversals (2 when k = 0) and max(k+2, 4) for
prefix reversals, where the exceptional families reach k+2 and the all-bullet
pegs on 2413 and 3142, which have no clean compact pattern one shorter, sit at
length 4 in every basis with k <= 3 (see peg_basis_bound).

The standard basis comes from a sweep of the ball levels to a proven length
(standard_basis_bound).  The M-sets (m_set), the paper's route, cross-check
it: three members of the reversal basis of B_2 avoid every M-set witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distance import (Model, ResourceLimitError, _frontier_bfs, _moves,
                       _peg_component, _peg_key, distance_bounded,
                       distance_peg)
from .inflation import a_set_stream
from .peg import (ExceptionalKind, PegPermutation, _linked,
                  clean_compact_proper_patterns, enumerate_clean_compact,
                  exceptional, is_clean_compact, peg_sort_key, proper_patterns)
from .perm import Perm, contains_pattern, identity

__all__ = [
    "PegBasis",
    "MSet",
    "ExceptionalReport",
    "DEFAULT_K_LIMIT",
    "peg_basis",
    "peg_basis_bound",
    "is_peg_basis_member",
    "exceptional_check",
    "m_set",
    "standard_basis_bound",
    "standard_basis",
]

DEFAULT_K_LIMIT = {Model.RD: 3, Model.PRD: 5}


@dataclass(frozen=True)
class PegBasis:
    model: Model
    k: int
    members: frozenset[PegPermutation]
    bound: int

    def sorted_members(self) -> list[PegPermutation]:
        return sorted(self.members, key=peg_sort_key)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MSet:
    model: Model
    beta: PegPermutation
    target_distance: int
    members: frozenset[Perm]
    cap: int
    cap_hit: bool


def peg_basis_bound(model: Model, k: int) -> int:
    """Maximum length a basis member can have.

    For prefix reversals k+2 bounds the members that have a clean compact
    pattern one shorter.  Two clean compact pegs have none: the all-bullet
    pegs on 2413 and 3142, whose only clean compact proper patterns are 1.
    and the empty peg (reference.REDUCED_PATTERN_GAPS, exhaustive for
    lengths up to 6).  Both have distance 4, so they are members for every
    k <= 3, and the bound is max(k+2, 4).  A scan screened by one-point
    deletions found no member of length 5 or 6 for k <= 1, nor of length 5
    for k = 2.

    >>> peg_basis_bound(Model.PRD, 1)
    4
    """
    return max(2 * k + 1, 2) if model is Model.RD else max(k + 2, 4)


def _deletion_outside(model: Model, k: int, pp: PegPermutation) -> bool:
    """Some clean compact one-point deletion of pp lies outside B-hat_k.

    Such a deletion is a proper pattern in scope for both models, so pp is
    then no basis member.  Works on raw tuples, so it screens candidates far
    more cheaply than is_peg_basis_member.
    """
    base, decs = pp.base, pp.decorations
    n = len(base)
    for i in range(n):
        v = base[i]
        b = tuple(x - (x > v) for x in base[:i] + base[i + 1:])
        d = decs[:i] + decs[i + 1:]
        if any(_linked(b[j], d[j], b[j + 1], d[j + 1]) for j in range(n - 2)):
            continue
        key = _peg_key(b, d)
        if _peg_component(model, key)[key] > k:
            return True
    return False


def is_peg_basis_member(model: Model, k: int, pp: PegPermutation) -> bool:
    """pp is a clean compact peg permutation minimal outside B-hat_k.

    The minimality scope differs by model.  For reversals every proper peg
    pattern must lie in the ball: the all-bullet weakening of a peg with base
    312 already has distance 2, which rules the peg out of the k = 1 basis
    even when its clean compact patterns are all cheap.  For prefix reversals
    only clean compact patterns count, so the exceptional permutations of
    length k+2 stay minimal (their all-bullet weakenings sit outside the ball
    but are not clean compact).

    >>> from .peg import parse_peg
    >>> is_peg_basis_member(Model.RD, 1, parse_peg("1- 2-"))
    True
    >>> is_peg_basis_member(Model.RD, 1, parse_peg("2+ 1+"))
    False
    >>> is_peg_basis_member(Model.RD, 1, parse_peg("3. 1- 2."))
    False
    >>> is_peg_basis_member(Model.PRD, 1, parse_peg("3. 1- 2."))
    True
    """
    if not is_clean_compact(pp):
        raise ValueError(f"not clean compact: {pp}")
    if distance_peg(model, pp) <= k:
        return False
    if model is Model.RD:
        pool = proper_patterns(pp)
    else:
        pool = clean_compact_proper_patterns(pp)
    patterns = sorted(pool, key=len, reverse=True)
    return all(len(qq) == 0 or distance_peg(model, qq) <= k for qq in patterns)


def peg_basis(model: Model, k: int, *, k_limit: int | None = None) -> PegBasis:
    """The complete clean compact peg basis of B-hat_k.

    >>> [str(pp) for pp in peg_basis(Model.RD, 1).sorted_members()]
    ['1- 2-', '2+ 1.', '2. 1+']
    >>> [str(pp) for pp in peg_basis(Model.PRD, 0).sorted_members()]
    ['1-', '2+ 1.', '2. 1+', '2. 4. 1. 3.', '3. 1. 4. 2.']
    """
    if k < 0:
        raise ValueError(f"negative k: {k}")
    limit = DEFAULT_K_LIMIT[model] if k_limit is None else k_limit
    if k > limit:
        raise ResourceLimitError(f"peg basis radius {k} exceeds limit", limit)
    bound = peg_basis_bound(model, k)
    members: set[PegPermutation] = set()
    for n in range(1, bound + 1):
        for pp in enumerate_clean_compact(n):
            base, decs = pp.base, pp.decorations
            # Removing a trailing maximum decorated + or bullet (or, for
            # reversals only, a leading 1 so decorated) keeps the rest clean
            # compact at the same distance, so no basis member has one.
            if n > 1 and base[-1] == n and decs[-1].value in "+.":
                continue
            if (model is Model.RD and n > 1 and base[0] == 1
                    and decs[0].value in "+."):
                continue
            if (not _deletion_outside(model, k, pp)
                    and is_peg_basis_member(model, k, pp)):
                members.add(pp)
    return PegBasis(model, k, frozenset(members), bound)


@dataclass(frozen=True)
class ExceptionalReport:
    kind: ExceptionalKind
    n: int
    pp: PegPermutation
    distance: int
    distance_ok: bool
    in_basis_k: bool
    in_basis_k_plus_1: bool

    @property
    def ok(self) -> bool:
        return self.distance_ok and self.in_basis_k and self.in_basis_k_plus_1


def exceptional_check(k: int) -> list[ExceptionalReport]:
    """Verify the exceptional prefix-reversal families at length n = k+2.

    Each must have distance n and be a basis member of both B-hat_k and
    B-hat_{k+1}; the basis tests use the local membership predicate, so no
    full basis is materialized.

    >>> [r.ok for r in exceptional_check(1)]
    [True, True]
    """
    n = k + 2
    kinds = ((ExceptionalKind.THETA_EVEN, ExceptionalKind.LAMBDA_EVEN)
             if n % 2 == 0 else
             (ExceptionalKind.THETA_ODD, ExceptionalKind.LAMBDA_ODD))
    out = []
    for kind in kinds:
        pp = exceptional(kind, n)
        d = distance_peg(Model.PRD, pp)
        out.append(ExceptionalReport(
            kind, n, pp, d, d == n,
            is_peg_basis_member(Model.PRD, k, pp),
            is_peg_basis_member(Model.PRD, k + 1, pp)))
    return out


def m_set(model: Model, beta: PegPermutation,
          length_cap: int | None = None) -> MSet:
    """Minimal permutations in A_beta realizing beta's peg distance d.

    Every member of A_beta has distance <= distance_peg(beta) (it is a grid
    member), so candidates up to length_cap (default len(beta) + 2d + 2) are
    screened with a bounded search, then filtered to pattern-minimal ones.

    >>> from .peg import parse_peg
    >>> sorted(m_set(Model.RD, parse_peg("1- 2-")).members)
    [(2, 1, 4, 3)]
    >>> sorted(m_set(Model.PRD, parse_peg("3. 1- 2.")).members)
    [(4, 2, 1, 3)]
    """
    target = distance_peg(model, beta)
    cap = len(beta) + 2 * (target + 1) if length_cap is None else length_cap
    candidates = [g for g in a_set_stream(beta, cap)
                  if distance_bounded(model, g, target) == target]
    members = [g for g in candidates
               if not any(len(h) < len(g) and contains_pattern(h, g)
                          for h in candidates)]
    return MSet(model, beta, target, frozenset(members), cap,
                cap_hit=not candidates)


def standard_basis_bound(model: Model, k: int) -> int:
    """Length past which the standard basis of B_k has no member.

    N = max(floor((ck+3)^2/4), 2ck+6), c = 2 for reversals and 1 for prefix
    reversals.  A breakpoint is an adjacent pair of entries whose values are
    not consecutive; strips are the maximal runs between breakpoints.

    (A) A reversal separates at most two adjacent pairs, a prefix reversal
    one, so a sorting of q in d moves separates at most c*d of q's adjacent
    pairs, every breakpoint among them (Kececioglu & Sankoff 1995).
    (B) If a sorting of q never separates adjacent entries x, y of a strip,
    each move reverses a block holding both or neither, so an entry inserted
    between them, valued between them, rides along: the same moves sort the
    longer permutation (Hannenhalli & Pevzner 1996: keep long strips whole).

    Let p of length n be a basis member: d(p) > k, but its one-point
    deletions have distance <= k.  Say p has s strips, the longest of
    length M, so n <= sM.  Deleting v can make only {v-1, v+1} consecutive.
    If M >= 3, delete an interior entry of a longest strip; its value
    neighbours flank it, so the deletion q keeps s strips.  A sorting of q
    in <= k moves separates its s-1 breakpoints and, by (B), the M-2 pairs
    of the shortened strip, or re-inserting the entry would give p at
    distance <= k.  By (A), s+M <= ck+3, so n <= sM <= floor((ck+3)^2/4).
    If M <= 2, delete an entry of a 2-strip (any entry when M = 1): its two
    pairs, at most one a breakpoint (two when M = 1), become one, and only
    {v-1, v+1} can join elsewhere, so q keeps s-3 breakpoints or more (n-4
    when M = 1).  By (A), s-3 <= ck, so n <= 2s <= 2ck+6.

    >>> [standard_basis_bound(Model.RD, k) for k in range(4)]
    [6, 10, 14, 20]
    >>> [standard_basis_bound(Model.PRD, k) for k in range(6)]
    [6, 8, 10, 12, 14, 16]
    """
    ck = (2 if model is Model.RD else 1) * k
    return max((ck + 3) ** 2 // 4, 2 * ck + 6)


def standard_basis(model: Model, k: int, length_cap: int | None = None,
                   *, k_limit: int | None = None) -> set[Perm]:
    """Basis of the pattern class B_k, by a sweep of the ball levels.

    Balls are closed downward, so a basis member of length n is some p in
    B_k(n-1) with n inserted, outside B_k(n), whose other one-point
    deletions lie in B_k(n-1).  Deleting p's entry i from the insertion at
    pos gives p's deletion at i with n-1 inserted at pos - (pos > i), so
    each ball member keeps a bit mask of the slots where inserting the next
    maximum stays in the ball.  The sweep stops at standard_basis_bound;
    length_cap can only shorten it.

    >>> sorted(standard_basis(Model.RD, 1), key=lambda p: (len(p), p))
    [(2, 3, 1), (3, 1, 2), (2, 1, 4, 3)]
    """
    if k < 0:
        raise ValueError(f"negative k: {k}")
    limit = DEFAULT_K_LIMIT[model] if k_limit is None else k_limit
    if k > limit:
        raise ResourceLimitError(f"basis radius {k} exceeds limit", limit)
    sweep_to = standard_basis_bound(model, k)
    if length_cap is not None:
        sweep_to = min(length_cap, sweep_to)
    found: set[Perm] = set()
    prev_slots, level = {(): 1}, {(1,)}  # B_k(0) with its slot mask, B_k(1)
    for n in range(2, sweep_to + 1):
        cur = _frontier_bfs([identity(n)], _moves(model, n), k)
        slots: dict[Perm, int] = {}
        for p in level:
            slots[p] = inside = sum(1 << pos for pos in range(n)
                                    if p[:pos] + (n,) + p[pos:] in cur)
            outside = ((1 << n) - 1) & ~inside
            for i in range(n - 1):
                if not outside:
                    break
                v = p[i]
                mask = prev_slots[tuple([x - (x > v)
                                         for x in p[:i] + p[i + 1:]])]
                # the deletion at i needs slot pos if pos <= i, else pos - 1
                low = (1 << (i + 1)) - 1
                outside &= (mask & low) | (mask << 1 & ~low)
            found.update(p[:pos] + (n,) + p[pos:] for pos in range(n)
                         if outside >> pos & 1)
        prev_slots, level = slots, cur
    return found
