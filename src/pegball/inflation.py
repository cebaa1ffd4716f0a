"""Monotone inflations of peg permutations and grid-class membership.

An inflation vector assigns one nonnegative multiplicity per element. A +
element blows up into an ascending run of consecutive values, a - element
into a descending run, and a bullet is kept (1) or deleted (0). Runs are
rescaled so the result is a standard permutation.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import sub
from typing import Iterable, Iterator, Sequence

from .peg import (_CODES, DOT, MINUS, Decoration, PegPermutation, _closure,
                  _linked, _str_deletions, _str_key, is_clean_compact)
from .perm import Perm

__all__ = [
    "InflationVector",
    "is_legal",
    "check_legal",
    "legal_vectors",
    "monotone_inflate",
    "peg_monotone_inflate",
    "grid_member",
    "grid_member_peg",
    "grid_enumerate",
    "a_set_stream",
]

InflationVector = tuple[int, ...]


def is_legal(pp: PegPermutation, v: Sequence[int]) -> bool:
    """v has one entry per element, nonnegative, and 0/1 on bullets."""
    return len(v) == len(pp) and all(x >= 0 and (d is not DOT or x <= 1)
                                     for x, d in zip(v, pp.decorations))


def check_legal(pp: PegPermutation, v: Sequence[int]) -> None:
    if len(v) != len(pp):
        raise ValueError(f"vector length {len(v)} != peg length {len(pp)}")
    if not is_legal(pp, v):
        raise ValueError(f"illegal inflation vector {tuple(v)} for {pp}")


def monotone_inflate(pp: PegPermutation, v: Sequence[int]) -> Perm:
    """The standard permutation pp[v].

    >>> monotone_inflate(PegPermutation((3, 1, 2, 5, 4), "++.-."), (2, 0, 1, 3, 1))
    (2, 3, 1, 7, 6, 5, 4)
    >>> monotone_inflate(PegPermutation((2, 1), "++"), (2, 2))
    (3, 4, 1, 2)
    """
    check_legal(pp, v)
    return next(_inflations(_plan(pp.base, pp.decorations), v, sum(v)))


def peg_monotone_inflate(pp: PegPermutation, v: Sequence[int]) -> set[PegPermutation]:
    """All decorated inflations pp[v]_peg.

    A + element may blow up into any identity peg permutation (decorations
    drawn from {+, bullet}), a - element into any reverse identity peg
    permutation ({-, bullet}), and a surviving bullet stays a bullet.

    >>> sorted(str(q) for q in peg_monotone_inflate(PegPermutation((1,), "+"), (1,)))
    ['1+', '1.']
    >>> peg_monotone_inflate(PegPermutation((1,), "."), (0,)) == {PegPermutation((), ())}
    True
    """
    base = monotone_inflate(pp, v)
    pools = [(DOT,) if d is DOT else (d, DOT)
             for d, size in zip(pp.decorations, v) for _ in range(size)]
    return {PegPermutation(base, decs) for decs in itertools.product(*pools)}


def _grid_search(pp: PegPermutation, gb: Perm,
                 gd: tuple[Decoration, ...] | None) -> bool:
    """Segment gb into len(pp) consecutive blocks, one per element of pp.

    Each block is a run of consecutive values oriented per its element's
    decoration (bullets of size <= 1), and the blocks' value intervals stack
    in pp's base order.  With decorations gd, every entry of a block must
    also be a bullet or carry its element's decoration.

    The elements are placed left to right, each block longest first and the
    empty block last.  A block is placed only if its value interval lies on
    the side of every block already placed that the base order requires:
    above those of the smaller base values, below those of the larger.  The
    blocks partition gb's positions, so their value sets partition 1..n and
    each, being consecutive values, is an interval; disjoint intervals that
    cover 1..n and are pairwise ordered as the base is stack in base order.
    So a placement that uses every position is a segmentation, and the
    pairwise test is exactly the stacking.
    """
    m, n = len(pp), len(gb)
    base, decs = pp.base, pp.decorations
    # each placed block's values (low, high]; an empty block is (n, 0),
    # which bounds no other block
    low, high = [n] * m, [0] * m

    def rec(pos: int, idx: int) -> bool:
        if pos == n:  # the blocks left are empty
            return True
        if idx == m:
            return False
        d, a, b = decs[idx], gb[pos], base[idx]
        # the block's values must lie in (floor, ceil]
        floor, ceil = 0, n
        for k in range(idx):
            if base[k] < b:
                if high[k] > floor:
                    floor = high[k]
            elif low[k] < ceil:
                ceil = low[k]
        if floor < a <= ceil and (gd is None or gd[pos] in (DOT, d)):
            end = pos + 1
            if d is not DOT:
                # a block ascends by step 1 or descends by step -1
                step = -1 if d is MINUS else 1
                last = pos + (a - floor if step < 0 else ceil - a + 1)
                while (end < last and end < n and gb[end] - gb[end - 1] == step
                       and (gd is None or gd[end] in (DOT, d))):
                    end += 1
            while end > pos:
                low[idx], high[idx] = ((gb[end - 1] - 1, a) if d is MINUS
                                       else (a - 1, gb[end - 1]))
                if rec(end, idx + 1):
                    return True
                end -= 1
        low[idx], high[idx] = n, 0
        return rec(pos, idx + 1)

    return rec(0, 0)


def grid_member(pp: PegPermutation, g: Perm) -> bool:
    """True iff g is a monotone inflation of pp.

    The same search as grid_member_peg on g with every entry a bullet.

    >>> grid_member(PegPermutation((1, 2, 3), "+-+"), (1, 4, 3, 2))
    True
    >>> grid_member(PegPermutation((1, 2, 3), "+-+"), (2, 1, 4, 3))
    False
    """
    return _grid_search(pp, g, None)


def grid_member_peg(pp: PegPermutation, g: PegPermutation) -> bool:
    """True iff g is a decorated monotone inflation of pp.

    Blocks for + elements must carry decorations in {+, bullet}, blocks for
    - elements in {-, bullet}, and a surviving bullet must stay a bullet.

    >>> grid_member_peg(PegPermutation((1,), "+"), PegPermutation((1,), "."))
    True
    >>> grid_member_peg(PegPermutation((1, 2, 3), "+-+"), PegPermutation((1, 2), "--"))
    False
    """
    return _grid_search(pp, g.base, g.decorations)


def _compositions(caps: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    """Vectors v summing to total with 0 <= v[i] <= caps[i], in lexicographic
    order.  Uncapped, by stars and bars: v's partial sums before its last
    entry are the nondecreasing sequences over 0..total, taken in
    lexicographic order.  Capped, each entry takes in turn the values that
    leave a remainder the later caps can hold, so no vector is discarded."""
    if not caps:
        if total == 0:
            yield ()
        return
    if min(caps) >= total >= 0:
        for cuts in itertools.combinations_with_replacement(
                range(total + 1), len(caps) - 1):
            yield tuple(map(sub, cuts + (total,), (0,) + cuts))
        return
    # room[i]: the most that entries i.. can hold
    room = [*itertools.accumulate(reversed(caps), initial=0)][::-1]

    def fill(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == len(caps):
            yield ()
            return
        for x in range(max(left - room[i + 1], 0), min(caps[i], left) + 1):
            for rest in fill(i + 1, left - x):
                yield (x, *rest)

    if total <= room[0]:
        yield from fill(0, total)


def legal_vectors(pp: PegPermutation, total: int) -> Iterator[InflationVector]:
    """All legal inflation vectors for pp with entries summing to total."""
    return _compositions([1 if d is DOT else total for d in pp.decorations], total)


def _plan(base: Perm, decorations: Sequence[str]) -> tuple:
    """How a peg inflates: positions by base value, signed ones, falling ones."""
    return (tuple(sorted(range(len(base)), key=base.__getitem__)),
            tuple(i for i, d in enumerate(decorations) if d != DOT),
            tuple(d == MINUS for d in decorations))


def _inflations(plan: tuple, floor: Sequence[int], total: int) -> Iterator[Perm]:
    """The inflations of a peg by the vectors v >= floor summing to total
    that exceed floor on signs only, in lexicographic order of v: entry i
    becomes v[i] consecutive values, falling for a - entry, and the blocks
    stack in base-value order."""
    by_value, signed, falling = plan
    spare = total - sum(floor)
    sizes = list(floor)
    blocks = [range(0)] * len(floor)
    for extra in _compositions((spare,) * len(signed), spare):
        for i, x in zip(signed, extra):
            sizes[i] = floor[i] + x
        acc = 0
        for i in by_value:
            size = sizes[i]
            blocks[i] = (range(acc + size, acc, -1) if falling[i]
                         else range(acc + 1, acc + size + 1))
            acc += size
        yield tuple(itertools.chain.from_iterable(blocks))


def grid_enumerate(pegs: Iterable[PegPermutation], n: int) -> set[Perm]:
    """All length-n members of the union of the pegs' grid classes.

    Each distinct sub-peg (reached by one-point deletions, which rescale the
    base and keep the other decorations) is inflated once, by the legal
    vectors v >= its floor (_sub_pegs), which is 1 on bullets and 1 or 2 on
    signs.  With floors of 1 this is the union of pp[v] over the pegs pp and
    their legal vectors v of total n: with S the support of v and sigma the
    pattern of pp on S, a zero block adds no values and the other blocks
    keep their relative value order, so pp[v] = sigma[v restricted to S];
    conversely a positive vector of a sub-peg, padded with zeros on the
    deleted entries, is legal for pp.

    The skipped sub-pegs and the floors of 2 lose none of it: sigma[v] is
    emitted for every sub-peg sigma and every positive legal vector v, by
    induction on (length of sigma, number of - entries i with v[i] = 1) in
    lexicographic order.
    - sigma is skipped: it has adjacent entries in one strip (peg._linked),
      one of them signed.  Their blocks sit side by side with consecutive
      values, both running the strip's way, so they form one run, which the
      signed entry alone inflates to: sigma[v] is an inflation of sigma's
      deletion of the other entry, a shorter sub-peg.
    - Otherwise, if v >= sigma's floor, sigma[v] is emitted.
    - Otherwise some signed entry i has v[i] = 1 and floor 2.  In case (a)
      of _sub_pegs, i is - and tau, sigma with + at i, is a sub-peg; a block
      of one value runs both ways, so sigma[v] = tau[v], which has the same
      length and one - entry fewer inflated by 1.  In case (b), i read as a
      bullet is linked to an adjacent signed entry j; its one value extends
      j's run, so sigma[v] is the inflation of sigma's deletion of i, a
      shorter sub-peg, with j one longer.

    >>> sorted(grid_enumerate({PegPermutation((1, 2, 3), "+-+")}, 3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    >>> grid_enumerate({PegPermutation((1,), "+")}, 4)
    {(1, 2, 3, 4)}
    """
    out: set[Perm] = set()
    for plan, floor in _sub_pegs(frozenset(pegs)):
        if sum(floor) <= n:
            out.update(_inflations(plan, floor, n))
    return out


@cache
def _sub_pegs(pegs: frozenset[PegPermutation]) -> tuple[tuple, ...]:
    """The plans and floors of the sub-pegs grid_enumerate keeps, memoized
    per set.  The closure runs on peg states held as str (peg._str_key),
    which hold pegs of any length.

    A sub-peg with a signed entry linked to a neighbour is skipped.  The
    floor is 1 on each entry but a signed one of floor 2, which is (a) a -
    entry whose + twin (the same sub-peg with + there) is a sub-peg, or (b)
    an entry that, read as a bullet, is linked to an adjacent signed entry.
    At size 1 such an entry inflates as its twin does (a), or as the
    sub-peg without it, with the neighbour one longer (b); grid_enumerate
    proves that no inflation is lost.
    """
    closed = _closure({_str_key(pp.base, pp.decorations) for pp in pegs},
                      _str_deletions)
    kept = []
    for s in closed:
        pairs = [*map(_adjacent, s, s[1:])]
        if any(skip for skip, _, _ in pairs):
            continue
        floor = [1] * len(s)
        for i, (_, left, right) in enumerate(pairs):
            if left:
                floor[i] = 2
            if right:
                floor[i + 1] = 2
        decs = [_CODES[ord(c) % 3] for c in s]
        for i, d in enumerate(decs):  # a - code less 1 is the + code
            if d is MINUS and s[:i] + chr(ord(s[i]) - 1) + s[i + 1:] in closed:
                floor[i] = 2
        kept.append((_plan([ord(c) // 3 for c in s], decs), floor))
    return tuple(kept)


@cache
def _adjacent(x: str, y: str) -> tuple[bool, bool, bool]:
    """For adjacent entries x, y of a str state: whether they are linked
    with one of them signed (skip), and, both signed, whether x (then y)
    read as a bullet is linked to the other (floor 2 on it)."""
    v, d, w, e = ord(x) // 3, _CODES[ord(x) % 3], ord(y) // 3, _CODES[ord(y) % 3]
    signed = d is not DOT is not e
    return (_linked(v, d, w, e) and (d, e) != (DOT, DOT),
            signed and _linked(v, DOT, w, e), signed and _linked(v, d, w, DOT))


def a_set_stream(beta: PegPermutation, max_total_length: int) -> Iterator[Perm]:
    """The permutations whose peg is beta, up to the given length.

    These are the inflations of beta with multiplicity >= 2 on signed
    elements and exactly 1 on bullets, one per vector (the blocks are the
    strips: basis.m_set_source, (1)).  Emitted ascending by length, then
    lexicographically.

    >>> list(a_set_stream(PegPermutation((2, 1), "++"), 4))
    [(3, 4, 1, 2)]
    >>> next(a_set_stream(PegPermutation((1,), "."), 1))
    (1,)
    """
    if not is_clean_compact(beta):
        raise ValueError(f"not clean compact: {beta}")
    floor = [1 if d is DOT else 2 for d in beta.decorations]
    plan = _plan(beta.base, beta.decorations)
    for length in range(sum(floor), max_total_length + 1):
        yield from sorted(_inflations(plan, floor, length))
