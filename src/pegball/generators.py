"""k-generating sets: clean compact peg permutations whose grid classes cover
the balls B_k, built by the inductive inflation constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

from .distance import Model, _check_model, distance_peg
from .inflation import monotone_inflate
from .peg import (DOT, MINUS, PLUS, PegPermutation, _oriented, _peg_key,
                  _peg_of_key, is_clean_compact, peg_sort_key)

__all__ = [
    "GeneratingSet",
    "rd_inflate_step",
    "rd_generating_set",
    "prd_inflate_step",
    "prd_generating_set",
    "generating_set",
    "is_generating",
]


@dataclass(frozen=True)
class GeneratingSet:
    model: Model
    k: int
    members: frozenset[PegPermutation]

    @cached_property
    def _sorted(self) -> tuple[PegPermutation, ...]:
        return tuple(sorted(self.members, key=peg_sort_key))

    def sorted_members(self) -> list[PegPermutation]:
        """Sorted once per instance; each call returns a fresh list."""
        return list(self._sorted)

    def __len__(self) -> int:
        return len(self.members)


def _inflated_reversal(pp: PegPermutation, v: list[int], i: int,
                       j: int) -> PegPermutation:
    """The oriented reversal at i..j of pp inflated by v, each inflated
    entry keeping its element's decoration; only the result becomes a peg."""
    decs = [d for d, size in zip(pp.decorations, v) for _ in range(size)]
    return _peg_of_key(_oriented(i - 1, j)(_peg_key(monotone_inflate(pp, v),
                                                    decs)))


def rd_inflate_step(pp: PegPermutation, I: tuple[int, int]) -> PegPermutation:
    """One inductive step of the reversal construction.

    Each selected element grows into a monotone pair (triple when i = j)
    oriented by its sign; the oriented reversal at positions i+1 .. j+1 then
    restores clean compactness.

    >>> from .peg import parse_peg
    >>> str(rd_inflate_step(parse_peg("1+ 2- 3+"), (1, 3)))
    '1+ 4- 3+ 2- 5+'
    >>> str(rd_inflate_step(parse_peg("1+ 2- 3+"), (2, 2)))
    '1+ 4- 3+ 2- 5+'
    >>> str(rd_inflate_step(parse_peg("1+"), (1, 1)))
    '1+ 2- 3+'
    """
    i, j = I
    n = len(pp)
    if not (1 <= i <= j <= n):
        raise ValueError(f"invalid index multiset {I} for length {n}")
    if not is_clean_compact(pp):
        raise ValueError(f"not clean compact: {pp}")
    if any(d is DOT for d in pp.decorations):
        raise ValueError(f"bullet decoration in {pp}")
    v = [1 + (pos == i) + (pos == j) for pos in range(1, n + 1)]
    return _inflated_reversal(pp, v, i + 1, j + 1)


def rd_generating_set(k: int) -> GeneratingSet:
    """All k-generating peg permutations for the reversal model.

    >>> [str(pp) for pp in rd_generating_set(1).sorted_members()]
    ['1+ 2- 3+']
    >>> len(rd_generating_set(2))
    4
    """
    if k < 0:
        raise ValueError(f"negative k: {k}")
    current = {PegPermutation((1,), (PLUS,))}
    for _ in range(k):
        nxt: set[PegPermutation] = set()
        for pp in current:
            n = len(pp)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    nxt.add(rd_inflate_step(pp, (i, j)))
        current = nxt
    return GeneratingSet(Model.RD, k, frozenset(current))


def prd_inflate_step(pp: PegPermutation, i: int) -> PegPermutation:
    """One inductive step of the prefix-reversal construction.

    Writing pp = alpha x^s beta with x^s the element at position i, the result
    is x^- alpha'^R (x+1)^+ beta' for s = +, and (x+1)^+ alpha'^R x^- beta'
    for s = -, where alpha', beta' increment entries above x and ^R is the
    oriented reversal.

    >>> from .peg import parse_peg
    >>> str(prd_inflate_step(parse_peg("1- 2+"), 1))
    '2+ 1- 3+'
    >>> str(prd_inflate_step(parse_peg("1- 2+"), 2))
    '2- 1+ 3+'
    >>> str(prd_inflate_step(parse_peg("2+ 1- 3+"), 3))
    '3- 1+ 2- 4+'
    """
    n = len(pp)
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for length {n}")
    if pp.decorations[i - 1] is DOT:
        raise ValueError(f"bullet decoration at position {i} of {pp}")
    # x^s grows into the pair x, x+1 running the way of s; the oriented
    # prefix reversal through its first entry then gives the result
    v = [1 + (pos == i) for pos in range(1, n + 1)]
    return _inflated_reversal(pp, v, 1, i)


def prd_generating_set(k: int) -> GeneratingSet:
    """All k-generating peg permutations for the prefix-reversal model.

    Exactly k! members, each of length k+1, each reached from a unique parent.

    >>> [str(pp) for pp in prd_generating_set(1).sorted_members()]
    ['1- 2+']
    >>> [str(pp) for pp in prd_generating_set(2).sorted_members()]
    ['2+ 1- 3+', '2- 1+ 3+']
    >>> len(prd_generating_set(4))
    24
    """
    if k < 1:
        raise ValueError(f"prefix-reversal generating sets start at k=1, got {k}")
    current = {PegPermutation((1, 2), (MINUS, PLUS))}
    for _ in range(k - 1):
        current = {prd_inflate_step(pp, i)
                   for pp in current for i in range(1, len(pp) + 1)}
    return GeneratingSet(Model.PRD, k, frozenset(current))


@cache
def generating_set(model: Model, k: int) -> GeneratingSet:
    """Built once per (model, k) and shared, being frozen; a bad model or k
    raises on every call."""
    _check_model(model)
    if model is Model.RD:
        return rd_generating_set(k)
    if k == 0:
        return GeneratingSet(Model.PRD, 0,
                             frozenset({PegPermutation((1,), (PLUS,))}))
    return prd_generating_set(k)


def _strengthenings(pp: PegPermutation):
    """Proper sign-strengthenings: some bullets replaced by signs."""
    pools = [(DOT, PLUS, MINUS) if d is DOT else (d,) for d in pp.decorations]
    for decs in product(*pools):
        if decs != pp.decorations:
            yield PegPermutation(pp.base, decs)


def is_generating(model: Model, k: int, pp: PegPermutation) -> bool:
    """Exact membership test for the k-generating set.

    RD: length 2k+1, clean compact, bullet-free, distance k. PRD: length
    k+1, clean compact, distance k, and maximal — no clean compact
    sign-strengthening stays within distance k (longer extensions are ruled
    out by the breakpoint bound, so equal-length strengthenings are the only
    candidates above pp).

    >>> from .peg import parse_peg
    >>> is_generating(Model.RD, 2, parse_peg("1+ 4- 3+ 2- 5+"))
    True
    >>> is_generating(Model.RD, 1, parse_peg("1+"))
    False
    >>> is_generating(Model.PRD, 2, parse_peg("2+ 1- 3+"))
    True
    """
    _check_model(model)
    if model is Model.RD:
        return (len(pp) == 2 * k + 1
                and is_clean_compact(pp)
                and all(d is not DOT for d in pp.decorations)
                and distance_peg(model, pp) == k)
    if len(pp) != k + 1 or not is_clean_compact(pp):
        return False
    if distance_peg(model, pp) != k:
        return False
    return not any(is_clean_compact(qq) and distance_peg(model, qq) <= k
                   for qq in _strengthenings(pp))
