"""Monotone inflations of peg permutations and grid-class membership.

An inflation vector assigns one nonnegative multiplicity per element. A +
element blows up into an ascending run of consecutive values, a - element
into a descending run, and a bullet is kept (1) or deleted (0). Runs are
rescaled so the result is a standard permutation.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import add
from typing import Iterable, Iterator, Sequence

from .peg import (DOT, MINUS, Decoration, PegPermutation, _closure,
                  is_clean_compact)
from .perm import Perm, _deletions

__all__ = [
    "InflationVector",
    "is_legal",
    "check_legal",
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
    return next(_inflations(pp.base, pp.decorations, v, sum(v)))


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


def _blocks_consistent(pp: PegPermutation,
                       blocks: Sequence[tuple[int, int] | None],
                       n: int) -> bool:
    """Nonempty block value intervals must stack to 1..n in base-value order."""
    nonempty = sorted((pp.base[i], lo, hi)
                      for i, b in enumerate(blocks) if b is not None
                      for lo, hi in [b])
    acc = 0
    for _, lo, hi in nonempty:
        if lo != acc + 1:
            return False
        acc = hi
    return acc == n


def _grid_search(pp: PegPermutation, gb: Perm,
                 gd: tuple[Decoration, ...] | None) -> bool:
    """Segment gb into len(pp) consecutive blocks, one per element of pp.

    Each block is a run of consecutive values oriented per its element's
    decoration (bullets of size <= 1), and the blocks' value intervals stack
    in pp's base order.  With decorations gd, every entry of a block must
    also be a bullet or carry its element's decoration.
    """
    m, n = len(pp), len(gb)
    decs = pp.decorations
    blocks: list[tuple[int, int] | None] = [None] * m

    def rec(pos: int, idx: int) -> bool:
        if idx == m:
            return pos == n and _blocks_consistent(pp, blocks, n)
        d = decs[idx]
        blocks[idx] = None
        if rec(pos, idx + 1):
            return True
        if pos == n or (gd is not None and gd[pos] not in (DOT, d)):
            return False
        step = -1 if d is MINUS else 1
        limit = 1 if d is DOT else n - pos
        end = pos + 1
        while True:
            # a block ascends by step 1 or descends by step -1
            blocks[idx] = ((gb[pos], gb[end - 1]) if step == 1
                           else (gb[end - 1], gb[pos]))
            if rec(end, idx + 1):
                return True
            if (end - pos >= limit or end == n
                    or gb[end] - gb[end - 1] != step
                    or (gd is not None and gd[end] not in (DOT, d))):
                blocks[idx] = None
                return False
            end += 1

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


def _compositions(caps: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """Vectors v summing to total with 0 <= v[i] <= caps[i]."""
    m = len(caps)

    def rec(idx: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if idx == m:
            if remaining == 0:
                yield ()
            return
        for size in range(min(caps[idx], remaining) + 1):
            for rest in rec(idx + 1, remaining - size):
                yield (size,) + rest

    return rec(0, total)


def legal_vectors(pp: PegPermutation, total: int) -> Iterator[InflationVector]:
    """All legal inflation vectors for pp with entries summing to total."""
    return _compositions([1 if d is DOT else total for d in pp.decorations],
                         total)


def _inflations(base: Perm, decorations: Sequence[str], floor: Sequence[int],
                total: int) -> Iterator[Perm]:
    """The inflations of base by the vectors v >= floor summing to total that
    exceed floor on signs only: entry i becomes v[i] consecutive values,
    falling for a - entry, and the blocks stack in base-value order."""
    spare = total - sum(floor)
    by_value = sorted(range(len(base)), key=base.__getitem__)
    start = [0] * len(base)
    for extra in _compositions([0 if d == DOT else spare for d in decorations],
                               spare):
        sizes = list(map(add, floor, extra))
        acc = 0
        for i in by_value:
            start[i], acc = acc, acc + sizes[i]
        yield tuple(itertools.chain.from_iterable(
            range(lo + size, lo, -1) if d == MINUS else range(lo + 1, lo + size + 1)
            for lo, size, d in zip(start, sizes, decorations)))


def grid_enumerate(pegs: Iterable[PegPermutation], n: int) -> set[Perm]:
    """All length-n members of the union of the pegs' grid classes.

    Each distinct sub-peg (reached by one-point deletions, which rescale the
    base and keep the other decorations) is inflated once, by the strictly
    positive legal vectors: 1 on bullets, at least 1 on signs.  That is the
    union of pp[v] over the pegs pp and their legal vectors v of total n:
    with S the support of v and sigma the pattern of pp on S, a zero block
    adds no values and the other blocks keep their relative value order, so
    pp[v] = sigma[v restricted to S]; conversely a positive vector of a
    sub-peg, padded with zeros on the deleted entries, is legal for pp.

    >>> sorted(grid_enumerate({PegPermutation((1, 2, 3), "+-+")}, 3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    >>> grid_enumerate({PegPermutation((1,), "+")}, 4)
    {(1, 2, 3, 4)}
    """
    out: set[Perm] = set()
    for base, decs in _sub_pegs(frozenset(pegs)):
        if len(base) <= n:
            out.update(_inflations(base, decs, [1] * len(base), n))
    return out


@cache
def _sub_pegs(pegs: frozenset[PegPermutation]) -> frozenset[tuple[Perm, str]]:
    """The pegs closed under one-point deletion as (base, decorations) tuples,
    which hold pegs of any length, unlike peg states; memoized per set."""
    return frozenset(_closure(
        {(pp.base, "".join(pp.decorations)) for pp in pegs},
        lambda peg: ((r, peg[1][:i] + peg[1][i + 1:])
                     for i, r in enumerate(_deletions(peg[0])))))


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
    for length in range(sum(floor), max_total_length + 1):
        yield from sorted(_inflations(beta.base, beta.decorations, floor, length))
