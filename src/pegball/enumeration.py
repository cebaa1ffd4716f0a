"""Ball counting by three independent methods: direct BFS, grid-class
enumeration of the generating set, and pattern-avoidance growth from the
standard basis. They must agree wherever all are defined.
"""

from __future__ import annotations

from enum import Enum

from .basis import standard_basis
from .distance import (Model, ResourceLimitError, TableKind, _ball_level,
                       _check_model)
from .generators import generating_set
from .inflation import grid_enumerate
from .peg import _MAX_STATE_VALUE, _TO_BULLETS, _peg_deletions

__all__ = [
    "CountMethod",
    "DEFAULT_LIMIT_CLASS",
    "count_ball",
    "sequence",
]


class CountMethod(Enum):
    BFS = "bfs"
    GRID = "grid"
    AVOID = "avoid"


DEFAULT_LIMIT_CLASS = 12

# (model, k) -> (standard basis, [B_k(0), B_k(1), ...]) as all-bullet peg
# states, grown on demand
_CLASS_CACHE: dict[tuple[Model, int],
                   tuple[frozenset[bytes], list[set[bytes]]]] = {}


def _class_level(model: Model, k: int, n: int) -> set[bytes]:
    """Avoiders of the standard basis as all-bullet peg states, grown by
    inserting each new maximum (n <= peg._MAX_STATE_VALUE).

    The class is closed downward, so every length-m member arises from a
    length-(m-1) member by inserting the value m.  Such a candidate q avoids
    the basis iff q is not in it and every one-point deletion of q is in
    level m-1, as every proper pattern of q lies inside one of them.
    """
    basis, levels = _CLASS_CACHE.get((model, k), (None, [{b""}]))
    if basis is None and len(levels) <= n:
        basis = frozenset(bytes(b).translate(_TO_BULLETS)
                          for b in standard_basis(model, k))
    while len(levels) <= n:
        m = len(levels)
        below, top = levels[m - 1], bytes((m,)).translate(_TO_BULLETS)
        levels.append({q for p in below for pos in range(m)
                       for q in (p[:pos] + top + p[pos:],)
                       if q not in basis and below.issuperset(_peg_deletions(q))})
    _CLASS_CACHE[model, k] = basis, levels
    return levels[n]


def _class_limit(method: CountMethod, limit: int | None) -> int:
    """The longest length GRID or AVOID counts; AVOID's levels are states."""
    eff = DEFAULT_LIMIT_CLASS if limit is None else limit
    return min(eff, _MAX_STATE_VALUE) if method is CountMethod.AVOID else eff


def count_ball(model: Model, k: int, n: int,
               method: CountMethod = CountMethod.BFS, *,
               limit: int | None = None) -> int:
    """|B_k(n)| by the chosen method.

    >>> count_ball(Model.RD, 1, 3)
    4
    >>> count_ball(Model.PRD, 2, 4, CountMethod.GRID)
    10
    >>> count_ball(Model.PRD, 0, 5, CountMethod.AVOID)
    1
    """
    _check_model(model)
    if k < 0 or n < 0:
        raise ValueError(f"negative parameter: k={k}, n={n}")
    if method is CountMethod.BFS:
        return len(_ball_level(model, k, n, TableKind.STANDARD, limit))
    eff = _class_limit(method, limit)
    if n > eff:
        raise ResourceLimitError(f"length {n} exceeds {method.value} limit", eff)
    if method is CountMethod.GRID:
        members = generating_set(model, k).members
        return len(grid_enumerate(members, n))
    return len(_class_level(model, k, n))


def sequence(model: Model, k: int, n_max: int,
             method: CountMethod = CountMethod.BFS, *,
             limit: int | None = None) -> list[int]:
    """Counts for n = 1 .. n_max.

    >>> sequence(Model.RD, 1, 4)
    [1, 2, 4, 7]
    """
    top = _class_limit(method, limit) + 1  # the first length GRID or AVOID refuses
    if method is not CountMethod.BFS and n_max >= top:
        count_ball(model, k, top, method, limit=limit)  # raises before any count
    return [count_ball(model, k, n, method, limit=limit)
            for n in range(1, n_max + 1)]
