"""Clean compact peg bases of the balls, M-sets, and standard bases.

Both bases are the minimal elements outside a down-set, found by one level
sweep over peg states (_sweep, which holds the proof); a standard
permutation enters it as the all-bullet peg on it.  A clean compact peg
permutation is a basis member of B-hat_k iff its own distance exceeds k
while every proper pattern in scope stays within k; the scope is the full
peg pattern order for reversals and the clean compact ones for prefix
reversals (see is_peg_basis_member).  The peg sweep stops at 2k+1 for
reversals (2 when k = 0) and max(k+2, 4) for prefix reversals
(peg_basis_bound), the standard one at a proven length
(standard_basis_bound).

The M-sets (m_set), the paper's route, cross-check the standard basis:
three members of the reversal basis of B_2 avoid every M-set witness.
m_set_source names the M-set holding a standard basis member without
building any.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

from .distance import (Model, ResourceLimitError, TableKind, _ball_level,
                       _check_model, _peg_distance, _standard_search,
                       distance_bounded, distance_peg)
from .inflation import a_set_stream
from .peg import (_FROM_BULLETS, _MAX_STATE_VALUE, _TO_BULLETS, ExceptionalKind,
                  PegPermutation, _is_clean_compact_key, _pattern_keys,
                  _peg_deletions, _peg_of_key, _peg_weakenings, exceptional,
                  is_clean_compact, peg_of, peg_sort_key)
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


def _check_radius(model: Model, k: int, k_limit: int | None, what: str) -> None:
    _check_model(model)
    if k < 0:
        raise ValueError(f"negative k: {k}")
    limit = DEFAULT_K_LIMIT[model] if k_limit is None else k_limit
    if k > limit:
        raise ResourceLimitError(f"{what} radius {k} exceeds limit", limit)


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
    no_candidates: bool


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
    _check_model(model)
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
    # longest first, then by state, so the early exit is deterministic
    keys = sorted(_pattern_keys(pp._key), key=lambda s: (-len(s), s))
    return all(_peg_distance(model, s) <= k for s in keys
               if model is Model.RD or _is_clean_compact_key(s))


def _sweep(ball: Callable[[int], Iterable[bytes]], bound: int,
           codes: Sequence[int],
           scope: Callable[[bytes], bool] | None = None) -> list[bytes]:
    """The minimal peg states outside a down-set D, up to length bound.

    ball(n) holds the ball's states of length n, and codes are the
    decorations the new maximum may take (+ 0, - 1, bullet 2).  D is the
    ball when scope is None, else the states whose patterns passing scope
    all lie in the ball.  The ball is a down-set (a sorting of a state,
    restricted to a one-point deletion or applied to a single-sign
    weakening, sorts it in as many moves or fewer), so D is one too.

    A proper pattern of a state lies below a one-point deletion or, at the
    same length, a single-sign weakening of it, so a state is minimal
    outside D iff it is outside D and those reductions are in D.  Deleting
    the maximum of a state in D(n), or minimal outside D, leaves some q in
    D(n-1); q keeps a mask with bit 3*pos + code set when n inserted at
    slot pos with that code is in D(n).  A state of the ball is in D; for
    the other candidates:
    - deleting q's entry i gives q's deletion at i with n-1 at pos, or at
      pos - 1 if pos > i: an AND with its shifted mask decides every slot;
    - weakening an entry of q gives the same slot and code on a weakening
      of q, which is greater, as one byte grows, so its mask is complete
      when q is taken in descending order;
    - weakening the new maximum gives the bullet at the same slot, decided
      first, as the bits are taken in descending order.
    A candidate outside the ball whose reductions are in D joins D(n) if it
    is outside the scope (its patterns in scope are then proper ones), and
    otherwise is minimal outside D.
    """
    if bound > _MAX_STATE_VALUE:
        raise ResourceLimitError(f"sweep length {bound} exceeds the state "
                                 f"encoding", _MAX_STATE_VALUE)
    signed = codes != (2,)  # all-bullet states have no weakenings to order
    found: list[bytes] = []
    below, below_masks = [b""], {}  # D(0); D(-1) has no masks
    for n in range(1, bound + 1):
        every = sum(1 << 3 * pos + code for pos in range(n) for code in codes)
        level = list(ball(n))
        masks: dict[bytes, int] = {}
        for c in level:  # the candidates in the ball, read off the ball
            top = max(c)
            pos = c.index(top)
            q = c[:pos] + c[pos + 1:]
            masks[q] = masks.get(q, 0) | 1 << 3 * pos + top % 3
        for q in sorted(below, reverse=True) if signed else below:
            joined = masks.get(q, 0)
            rest = every & ~joined
            for i, r in enumerate(_peg_deletions(q)):
                if not rest:
                    break
                mask = below_masks[r]
                low = (1 << 3 * i + 3) - 1  # the bits of slots up to i
                rest &= (mask & low) | (mask << 3 & ~low)
            for w in _peg_weakenings(q) if signed else ():
                rest &= masks[w]
            while rest:
                bit = rest.bit_length() - 1
                rest ^= 1 << bit
                pos, code = divmod(bit, 3)
                if code != 2 and not joined >> bit - code + 2 & 1:
                    continue  # its bullet weakening is outside D
                c = q[:pos] + bytes((3 * n + code,)) + q[pos:]
                if scope is not None and not scope(c):
                    joined |= 1 << bit
                    level.append(c)
                else:
                    found.append(c)
            masks[q] = joined
        below, below_masks = level, masks
    return found


def peg_basis(model: Model, k: int, *, k_limit: int | None = None) -> PegBasis:
    """The complete clean compact peg basis of B-hat_k, by _sweep.

    The members are the clean compact minimal pegs outside B-hat_k for
    reversals; for prefix reversals, outside the pegs whose clean compact
    patterns all lie in B-hat_k (is_peg_basis_member's test).

    >>> [str(pp) for pp in peg_basis(Model.RD, 1).sorted_members()]
    ['1- 2-', '2+ 1.', '2. 1+']
    >>> [str(pp) for pp in peg_basis(Model.PRD, 0).sorted_members()]
    ['1-', '2+ 1.', '2. 1+', '2. 4. 1. 3.', '3. 1. 4. 2.']
    """
    _check_radius(model, k, k_limit, "peg basis")
    bound = peg_basis_bound(model, k)
    found = _sweep(lambda n: _ball_level(model, k, n, TableKind.PEG), bound,
                   range(3), None if model is Model.RD else _is_clean_compact_key)
    return PegBasis(model, k, frozenset(
        _peg_of_key(c) for c in found if _is_clean_compact_key(c)), bound)


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
    kinds = [kind for kind in ExceptionalKind if kind.even == (n % 2 == 0)]
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
                cap, no_candidates=not candidates)


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
    _check_model(model)
    ck = (2 if model is Model.RD else 1) * k
    return max((ck + 3) ** 2 // 4, 2 * ck + 6)


def standard_basis(model: Model, k: int, length_cap: int | None = None,
                   *, k_limit: int | None = None) -> set[Perm]:
    """Basis of the pattern class B_k, by _sweep.

    A permutation enters the sweep as the all-bullet peg on it, so the ball
    is B_k, the new maximum is a bullet and every state found is a member.
    Its levels are the table search cut at radius k, encoded as they are read.
    The sweep stops at standard_basis_bound; length_cap can only shorten it.

    >>> sorted(standard_basis(Model.RD, 1), key=lambda p: (len(p), p))
    [(2, 3, 1), (3, 1, 2), (2, 1, 4, 3)]
    """
    _check_radius(model, k, k_limit, "basis")
    sweep_to = standard_basis_bound(model, k)
    if length_cap is not None:
        sweep_to = min(length_cap, sweep_to)
    found = _sweep(lambda n: _bullet_ball_level(model, k, n), sweep_to, (2,))
    return {tuple(c.translate(_FROM_BULLETS)) for c in found}


def _bullet_ball_level(model: Model, k: int, n: int) -> Iterable[bytes]:
    """B_k(n) as all-bullet peg states: the table search cut at radius k,
    encoded lazily as the states are read."""
    *_, level = _standard_search(model, identity(n), k)
    return map(bytes.translate, level, repeat(_TO_BULLETS))
