"""Clean compact peg bases of the balls, M-sets, and standard bases.

A clean compact peg permutation is a basis member of B-hat_k iff its own
distance exceeds k while every proper pattern in scope stays within k; the
scope is the full peg pattern order for reversals and the clean compact
ones for prefix reversals (see is_peg_basis_member).  peg_basis sweeps the
levels of a down-set of pegs up to a length bound: 2k+1 for reversals (2
when k = 0) and max(k+2, 4) for prefix reversals, where the exceptional
families reach k+2 and the all-bullet pegs on 2413 and 3142, which have no
clean compact pattern one shorter, sit at length 4 in every basis with
k <= 3 (see peg_basis_bound).

The standard basis comes from a sweep of the ball levels to a proven length
(standard_basis_bound).  The M-sets (m_set), the paper's route, cross-check
it: three members of the reversal basis of B_2 avoid every M-set witness.
m_set_source names the M-set holding a standard basis member without
building any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distance import (Model, ResourceLimitError, _frontier_bfs,
                       _is_clean_compact_key, _moves, _peg_ball_level,
                       _peg_deletions, _peg_of_key, _peg_weakenings,
                       distance_bounded, distance_peg)
from .inflation import a_set_stream
from .peg import (ExceptionalKind, PegPermutation,
                  clean_compact_proper_patterns, exceptional,
                  is_clean_compact, peg_of, peg_sort_key, proper_patterns)
from .perm import Perm, identity, minimal_elements

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
    "m_set_source",
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


def is_peg_basis_member(model: Model, k: int, pp: PegPermutation) -> bool:
    """pp is a clean compact peg permutation minimal outside B-hat_k.

    The minimality scope differs by model.  For reversals every proper peg
    pattern must lie in the ball: the all-bullet weakening of a peg with base
    312 already has distance 2, which rules the peg out of the k = 1 basis
    even when its clean compact patterns are all cheap.  For prefix reversals
    only clean compact patterns count, so the exceptional permutations of
    length k+2 stay minimal (their all-bullet weakenings sit outside the ball
    but are not clean compact).  peg_basis does not call this definition;
    verify and exceptional_check do.

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
    """The complete clean compact peg basis of B-hat_k, by a sweep of levels.

    The members are the clean compact minimal elements outside a down-set D
    of the peg pattern order (is_peg_basis_member's test).  For reversals D
    is B-hat_k: a sorting of a peg, restricted to a one-point deletion or
    applied to a single-sign weakening, sorts it in as many moves or fewer.
    For prefix reversals only clean compact patterns are in scope, so D is
    the set of pegs whose clean compact patterns all lie in B-hat_k; a clean
    compact peg whose proper patterns lie in D is outside D iff its own
    distance exceeds k.

    A proper pattern of a peg lies below one of its one-point deletions or,
    at the same length, below one of its single-sign weakenings.  As D is
    a down-set, a peg is minimal outside D iff it lies outside D while all
    those one-step reductions lie in D.  Every peg of length n in D, or
    minimal outside it, deletes its maximum into D(n-1), so the candidates
    are D(n-1) with n inserted, decorated +, - or bullet, at every slot.  A
    weakening raises one byte of the state, so in descending state order a
    candidate's weakenings are decided before it.  A candidate whose
    reductions all lie in D joins D(n) if it lies in the ball or, for
    prefix reversals, is not clean compact (its clean compact patterns are
    then proper ones); otherwise, if clean compact, it is a member.

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
    below = {b""}  # D(0)
    for n in range(1, bound + 1):
        ball = _peg_ball_level(model, k, n)
        tops = [bytes((3 * n + code,)) for code in range(3)]
        level: set[bytes] = set()
        for c in sorted((q[:pos] + top + q[pos:] for q in below
                         for pos in range(n) for top in tops), reverse=True):
            if not (all(map(below.__contains__, _peg_deletions(c)))
                    and all(map(level.__contains__, _peg_weakenings(c)))):
                continue
            clean = _is_clean_compact_key(c)
            if c in ball or (model is Model.PRD and not clean):
                level.add(c)
            elif clean:
                members.add(_peg_of_key(c))
        below = level
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
    return MSet(model, beta, target, frozenset(minimal_elements(candidates)),
                cap, cap_hit=not candidates)


def m_set_source(pegs: PegBasis, p: Perm,
                 length_cap: int | None = None) -> PegPermutation | None:
    """The peg beta of pegs whose M-set holds p, or None.

    p is a member of the standard basis of B_k, k = pegs.k, and the M-sets
    are m_set(pegs.model, beta, length_cap) for beta in pegs.  p lies in
    beta's M-set iff beta = peg_of(p), len(p) is within that M-set's cap
    and p has distance d(beta).
    (1) For clean compact beta, a_set_stream(beta) holds exactly the p with
    peg_of(p) = beta.  An inflation with at least 2 on each sign and 1 on
    each bullet turns each entry into a block of consecutive values that
    runs the way of its sign.  Two adjacent blocks run on as one strip
    exactly when their entries in beta are linked (peg._linked), and beta
    has no linked pair; so the blocks are p's strips and collapse back to
    beta.  Conversely p is the inflation of peg_of(p) by its strip
    lengths.  So only peg_of(p) can hold p, and p is one of its M-set
    candidates iff the other two conditions hold.
    (2) m_set keeps the pattern-minimal candidates, and p is one: a shorter
    candidate inside p is a proper pattern of a basis member, so its
    distance is at most k, while every candidate has distance d(beta) > k.

    >>> pegs = peg_basis(Model.RD, 1)
    >>> str(m_set_source(pegs, (2, 1, 4, 3)))
    '1- 2-'
    >>> m_set_source(pegs, (2, 1, 4, 3), 3) is None
    True
    """
    beta = peg_of(p)
    if beta not in pegs.members:
        return None
    target = distance_peg(pegs.model, beta)
    cap = len(beta) + 2 * (target + 1) if length_cap is None else length_cap
    if len(p) <= cap and distance_bounded(pegs.model, p, target) == target:
        return beta
    return None


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
