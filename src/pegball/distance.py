"""Exact reversal / prefix-reversal distances for standard and peg permutations.

One BFS engine serves both state kinds, bytes of one byte per entry.  It is
level-synchronous: each move is one translate mapping a whole frontier in one
C-level map, and filterfalse drops the seen states.  A search by reversals
from starts the mirror w0 s w0 fixes, pegs too, expands one of each pair.

- A standard state holds a permutation's values; a move is one translate
  relabelling them by a block reversal r, s -> r s, where moving positions
  gives s r.  From the identity, d moves of either kind reach the products
  of d reversals: both give the word length, the distance.  A positional
  path q = p r_1 ... r_d is a path inverse(q) = r_d ... r_1 inverse(p), as
  r = r^-1, so pair_distance(p, q) searches from inverse(p) to inverse(q).
- A peg state (the encoding owned by pegball.peg) moves alike, s -> r s by
  an oriented reversal r of values, though its distance d(s) is defined by
  moving positions (peg._oriented, s -> s r).  The two agree:
  1. s stands for the signed permutations giving each bullet entry a sign;
  2. a positional move takes a representative x to x r, and the identity
     represents the goal, so d(s) is the least word length of a
     representative (in the burnt-pancake graph for prefix reversals);
  3. flipping an entry's sign is a sign flip applied on either side, so
     r s stands for r times the representatives of s;
  4. moves are involutions, so d translates from the identity with bullets
     at s's positions reach exactly such pegs t with d(t) <= d.
  Value moves keep bullet positions: the peg states split by (length,
  bullet positions) into components of one goal.  Peg distances are
  memoized per model by state; a miss merges in the state's component.

Bounded iterative-deepening A* with breakpoint heuristics gives one-off
distances of permutations too long for tables.

A standard table is searched only as deep as its reads need: a miss runs
every check, then advances the search a layer at a time until the state is
in the dict.  Layers are whole and a mirror keeps depth, so after layer d
the dict is B_d, exact; an exception mid-search drops it.  A cache file
holds a whole table in rank (lexicographic) order under its CRC-32: a valid
file fills the dict; a missing or corrupt one is rewritten.

A warm read is one memo probe and one table read: distance() memoizes its
table per (model, n, cache_dir), where a hit is exactly a valid permutation
searched already, and distance_peg() reads the state its peg object encoded
once.  Only a miss reads PEGBALL_CACHE.  Model hashes by identity.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import (chain, combinations, compress, filterfalse,
                       permutations, product, repeat)
from math import factorial
from operator import itemgetter, not_
from pathlib import Path
from typing import Callable, Iterator

from .peg import (_FLIP_BYTES, DOT, MINUS, PegPermutation, _peg_key,
                  _peg_keys, _peg_of_key, strips)
from .perm import Perm, check_permutation, identity, inverse

__all__ = [
    "Model",
    "TableKind",
    "ResourceLimitError",
    "DistanceTable",
    "DEFAULT_LIMIT_STANDARD",
    "HARD_LIMIT_STANDARD",
    "DEFAULT_LIMIT_PEG",
    "HARD_LIMIT_PEG",
    "distance",
    "distance_peg",
    "pair_distance",
    "distance_bounded",
    "breakpoints",
    "lower_bound",
    "distance_peg_via_inflation",
    "ball",
    "build_table",
    "get_table",
    "cache_path",
    "clear_memory_cache",
]


class Model(Enum):
    RD = "rd"
    PRD = "prd"
    __hash__ = object.__hash__  # singletons; Enum hashes the name in Python


class TableKind(Enum):
    STANDARD = "standard"
    PEG = "peg"


DEFAULT_LIMIT_STANDARD = 9
HARD_LIMIT_STANDARD = 11
DEFAULT_LIMIT_PEG = 7
HARD_LIMIT_PEG = 8

_ENV_CACHE = "PEGBALL_CACHE"


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size limit."""

    def __init__(self, message: str, limit: int):
        super().__init__(f"{message} (limit {limit})")
        self.limit = limit


def _effective_limit(n: int, limit: int | None, kind: TableKind) -> None:
    if kind is TableKind.STANDARD:
        default, hard, what = (DEFAULT_LIMIT_STANDARD, HARD_LIMIT_STANDARD,
                               "permutation")
    else:
        default, hard, what = DEFAULT_LIMIT_PEG, HARD_LIMIT_PEG, "peg permutation"
    eff = min(default if limit is None else limit, hard)
    if n > eff:
        raise ResourceLimitError(f"{what} length {n} exceeds limit", eff)


# ---------------------------------------------------------------------------
# Moves

def _check_model(model: Model) -> None:
    if not isinstance(model, Model):
        raise TypeError(f"model must be a Model, not {model!r}")


@cache
def _blocks(model: Model, n: int, shortest: int) -> list[tuple[int, int]]:
    """The blocks [i, j) a move may reverse: any block for reversals, a
    prefix for prefix reversals, of at least shortest entries.  Memoized per
    (model, n, shortest); callers must not change the list."""
    _check_model(model)
    starts = range(n) if model is Model.RD else (0,)
    return [(i, j) for i in starts for j in range(i + shortest, n + 1)]


@cache
def _moves(model: Model, n: int, kind=TableKind.STANDARD) -> list[Callable]:
    """Each move on a frontier of states, one translate s -> r s by the
    reversal r of a block [i, j) of two entries or more (a peg's of one or
    more): values i+1..j become j..i+1, a peg byte 3v + c flipping its sign
    (methodcaller is 2.7x slower on 3.11).  Memoized; do not change it."""
    width, flip, least = (3, _FLIP_BYTES, 1) if kind is TableKind.PEG else (1, None, 2)
    return [lambda states, table=bytes.maketrans(
                bytes(range(width * (i + 1), width * (j + 1))),
                bytes(width * v + c for v in range(j, i, -1)
                      for c in range(width)).translate(flip)):
            map(bytes.translate, states, repeat(table))
            for i, j in _blocks(model, n, least)]


def _mirror(model: Model, n: int, kind=TableKind.STANDARD) -> Callable | None:
    """The mirror m(s) = w0 s w0 of a search by reversals, on a frontier:
    reverse each state, relabel value v as n+1-v (a peg byte 3v + c as
    3(n+1-v) + c).  m is an involution, and m(r s) = m(r) m(s) for r the
    (oriented) move on the values (i, j] and m(r) the one on (n-j, n-i]:
    moves commute with reversing a state, and v is in (i, j] iff n+1-v is
    in (n-j, n-i], when both sides take an entry v of s to n-i-j+v, sign
    flipped.  So m maps moves onto moves, and keeps distances from any start
    set it fixes.  Prefix reversals have none: m of one is a suffix one."""
    if model is not Model.RD:
        return None
    width = 3 if kind is TableKind.PEG else 1
    flip = bytes.maketrans(bytes(range(width, width * (n + 1))), bytes(
        width * (n + 1 - v) + c for v in range(1, n + 1) for c in range(width)))
    return lambda states: map(bytes.translate, map(
        itemgetter(slice(None, None, -1)), states), repeat(flip))


# ---------------------------------------------------------------------------
# BFS engines

_STANDARD_TABLES: dict[tuple[Model, int], dict[bytes, int]] = {}
_SEARCHES: dict[tuple[Model, int], Iterator[dict[bytes, int]]] = {}
# model -> peg state -> distance, for every state of each component searched
_PEG_DISTANCES: dict[Model, dict[bytes, int]] = {}
# (model, n, cache_dir) -> the table distance() reads, persisted to the
# directory (cache_dir, else PEGBALL_CACHE when made) if one was set
_READS: dict[tuple[Model, int, str | Path | None], dict[bytes, int]] = {}


def _frontier_bfs(model: Model, starts: list[bytes], max_depth: int | None = None,
                  kind=TableKind.STANDARD) -> Iterator[dict]:
    """One dict of distances from starts, of one kind and length, out to
    max_depth, yielded per layer.

    Once the frontier outgrows half the unvisited states, the search turns
    bottom-up (Beamer, Asanovic & Patterson 2012): an unvisited state joins
    the layer if a move maps it onto a seen state, exactly, as moves are
    involutions.  The unvisited states, those with a start's bullet
    positions (standard ones: the permutations), are kept in a list and
    selected with compress, so they become the keys.  When the mirror m
    maps the set of starts onto itself, pegs too, m keeps every layer
    (_mirror): a new state's mirror joins unexpanded, as r m(f), f on the
    frontier, is the mirror of m(r) f.
    """
    n = len(starts[0])
    moves, mirror = _moves(model, n, kind), _mirror(model, n, kind)
    if mirror and set(mirror(starts)) != set(starts):
        mirror = None
    if kind is TableKind.STANDARD:
        size, space = factorial(n), lambda: map(bytes, permutations(starts[0]))
    else:
        bullets = sorted({bytes(b % 3 == 2 for b in s) for s in starts})
        size = factorial(n) * sum(2 ** (n - sum(b)) for b in bullets)
        space = lambda: chain.from_iterable(_peg_keys(n, b) for b in bullets)
    dist = dict.fromkeys(starts, 0)
    seen = dist.__contains__
    frontier = list(dist)
    unvisited = None
    depth = 0
    yield dist
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        if unvisited is None and 2 * len(frontier) > size - len(dist):
            unvisited = list(filterfalse(seen, space()))
        layer: list = []
        if unvisited is None:
            for move in moves:
                # a move is a bijection, so one move yields no duplicates
                fresh = list(filterfalse(seen, move(frontier)))
                dist.update(zip(fresh, repeat(depth)))
                if mirror:  # new, or already in this layer
                    dist.update(zip(mirror(fresh), repeat(depth)))
                layer += fresh
        else:
            for move in moves:
                hits = list(map(seen, move(unvisited)))
                layer += compress(unvisited, hits)
                unvisited = list(compress(unvisited, map(not_, hits)))
            dist.update(zip(layer, repeat(depth)))
        frontier = layer
        yield dist


def _standard_table(model: Model, n: int, key: bytes | None = None,
                    ranked: bytes | None = None) -> dict:
    """The table of (model, n), searched until it holds the state key, or to
    its end; ranked, whole data in rank (lexicographic) order, fills it and
    ends its search instead.  An exception drops it, its search and reads."""
    table = _STANDARD_TABLES.get((model, n))
    if table is None and ranked is None:
        _SEARCHES[model, n] = _frontier_bfs(model, [bytes(identity(n))])
        table = _STANDARD_TABLES[model, n] = next(_SEARCHES[model, n])
    try:
        if table is None or (ranked and _SEARCHES.pop((model, n), None)):
            table = _STANDARD_TABLES.setdefault((model, n), {})
            table.update(zip(map(bytes, permutations(identity(n))), ranked))
        while key not in table and (model, n) in _SEARCHES:
            if next(_SEARCHES[model, n], None) is None:
                del _SEARCHES[model, n]
    except BaseException:
        for memo in (_STANDARD_TABLES, _SEARCHES):
            memo.pop((model, n), None)
        for read in [read for read in _READS if read[:2] == (model, n)]:
            del _READS[read]
        raise
    return table


def _peg_distance(model: Model, key: bytes) -> int:
    """The distance of the peg state key.  A miss merges in its component,
    searched from the identity with bullets at key's bullet positions."""
    try:
        return _PEG_DISTANCES[model][key]
    except KeyError:
        goal = _peg_key(identity(len(key)), ["." if b % 3 == 2 else "+" for b in key])
        *_, comp = _frontier_bfs(model, [goal], kind=TableKind.PEG)
        _PEG_DISTANCES.setdefault(model, {}).update(comp)
        return comp[key]


def clear_memory_cache() -> None:
    for memo in (_STANDARD_TABLES, _SEARCHES, _PEG_DISTANCES, _READS):
        memo.clear()


# ---------------------------------------------------------------------------
# Public distance oracles

def distance(model: Model, p: Perm, *, limit: int | None = None,
             cache_dir: str | Path | None = None) -> int:
    """Exact distance of p from the identity of its length.

    Moves are involutions, so this also equals the sorting distance of p.
    The table persists to cache_dir, else to PEGBALL_CACHE as read at the
    first call per (model, len(p)) since import or clear_memory_cache().

    >>> distance(Model.RD, (3, 4, 1, 2))
    2
    >>> distance(Model.PRD, (4, 2, 1, 3))
    3
    """
    p = tuple(p)
    n = len(p)
    try:
        d = _READS.get((model, n, cache_dir), {}).get(bytes(p))
    except (TypeError, ValueError):  # no byte string: check_permutation decides
        d = None
    if d is not None and n <= (DEFAULT_LIMIT_STANDARD if limit is None
                               else min(limit, HARD_LIMIT_STANDARD)):
        return d
    check_permutation(p)
    _effective_limit(n, limit, TableKind.STANDARD)
    directory = cache_dir if cache_dir is not None else os.environ.get(_ENV_CACHE)
    if directory and (model, n, directory) not in _READS:
        get_table(model, n, cache_dir=directory, limit=limit)
    key = bytes(map(int, p))  # values equal to 1..n, as True or 2.0
    table = _READS[model, n, cache_dir] = _standard_table(model, n, key)
    return table[key]


def distance_peg(model: Model, pp: PegPermutation, *,
                 limit: int | None = None) -> int:
    """Exact oriented (prefix) reversal distance of pp from its identity.

    The goal is the identity base with every non-bullet element decorated +;
    bullet values never change under oriented reversals, so this single state
    is the only reachable identity peg permutation.

    >>> from .peg import parse_peg
    >>> distance_peg(Model.RD, parse_peg("2+ 1+"))
    3
    >>> distance_peg(Model.RD, parse_peg("1+ 2- 3+"))
    1
    >>> distance_peg(Model.PRD, parse_peg("3. 1- 2."))
    3
    """
    n = len(pp.base)
    if n > (DEFAULT_LIMIT_PEG if limit is None else min(limit, HARD_LIMIT_PEG)):
        _effective_limit(n, limit, TableKind.PEG)
    return _peg_distance(model, pp._key)


def pair_distance(model: Model, p: Perm, q: Perm) -> int:
    """BFS distance between two permutations of one length, at most 9."""
    p, q = (tuple(map(int, check_permutation(tuple(x)))) for x in (p, q))
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} != {len(q)}")
    _effective_limit(len(p), None, TableKind.STANDARD)
    goal = bytes(inverse(q))
    return next(d[goal] for d in _frontier_bfs(model, [bytes(inverse(p))])
                if goal in d)


# ---------------------------------------------------------------------------
# Breakpoints and lower bounds

def breakpoints(pp: PegPermutation) -> int:
    """Adjacent pairs not inside a common strip.

    >>> from .peg import parse_peg
    >>> breakpoints(parse_peg("2- 3+ 1. 4+"))
    3
    >>> breakpoints(parse_peg("1+ 2+ 3+"))
    0
    """
    return max(len(strips(pp)) - 1, 0)  # the empty peg has no strip


def lower_bound(model: Model, pp: PegPermutation) -> int:
    """Breakpoint lower bound on distance_peg(model, pp).

    RD: a reversal repairs at most two breakpoints. PRD: a prefix reversal
    repairs at most one strip boundary, counting a sentinel after the last
    element that only a trailing maximum decorated + or bullet can join.

    >>> from .peg import parse_peg
    >>> lower_bound(Model.PRD, parse_peg("2. 1+"))
    2
    >>> lower_bound(Model.RD, parse_peg("2+ 5- 4+ 1. 3-"))
    2
    """
    _check_model(model)
    n = len(pp)
    if n == 0:
        return 0
    bp = breakpoints(pp)
    if model is Model.RD:
        return (bp + 1) // 2
    ends_with_max = pp.base[-1] == n and pp.decorations[-1] is not MINUS
    return bp if ends_with_max else bp + 1


# ---------------------------------------------------------------------------
# Bounded search for long permutations

def distance_bounded(model: Model, p: Perm, bound: int) -> int | None:
    """Exact distance if it is <= bound, else None.

    Iterative-deepening A* (Korf 1985) under the breakpoint bounds of
    Kececioglu & Sankoff (1995), with no table, so p may be far longer than the
    BFS limits.  A breakpoint of s is a pair (f_x, f_x+1) of its frame
    f = (L, s_1, ..., s_n, n+1) that differs by other than 1, with L = 0 for
    reversals and -1, adjacent to no value, for prefix reversals; brk_x marks
    it.  Only the identity has none, or only the one at L (past L its frame
    would rise by 1s, never turning back, to n + 1); a move repairs at most
    two, or one, so h = ceil(bp/2), or bp - 1, never exceeds the distance.

    Delta rule: reversing the block [i, j) of s reverses f_i+1..f_j, so the
    child's frame is the parent's with that slice reversed, and its break
    vector the parent's with brk_i+1..brk_j-1 reversed and brk_i, brk_j set
    to the new pairs (f_i, f_j) and (f_i+1, f_j+1); for a prefix reversal
    i = 0, and both pairs at L are breaks.  The search hands both down by
    slicing and counts a child's breakpoints from its parent's by four
    comparisons, entering only children with g + 1 + h <= limit: those with
    delta <= room, the breaks the child may have beyond its parent's.

    Candidates: a node is entered only when h <= r, so room >= -2 for
    reversals and >= -1 for prefix reversals.  At room >= 0 every block is
    tested.  At a negative room only blocks that can pass are, and in (i, j)
    order, so the passing children and their order, hence the search tree
    and the answer, are those of a search that tests every block:

    - reversal, room -2: delta = -2 needs brk_i and brk_j both set;
    - reversal, room -1: delta <= -1 needs an end x with brk_x set and a new
      pair that is no break.  If it is (f_i, f_j), the other end is the
      position of f_x +- 1; if (f_i+1, f_j+1), it is the position of
      f_x+1 +- 1, less one;
    - prefix reversal, room -1: (L, f_j) stays a break and brk_0 is set, so
      delta = -1 needs brk_j set and f_j+1 = f_1 +- 1: at most two j.

    A child passing with no move left has the identity's breakpoints, so it
    is the identity; no shallower node is, as the first limit max(h, 1) <=
    distance and all smaller failed.

    >>> distance_bounded(Model.RD, (4, 5, 6, 1, 2, 3), 3)
    3
    >>> distance_bounded(Model.PRD, (1, 3, 2), 1) is None
    True
    """
    _check_model(model)
    p = check_permutation(tuple(p))
    n = len(p)
    rd = model is Model.RD

    def dfs(f: tuple, brk: tuple, bp: int, r: int) -> bool:
        # f frames a non-identity state with bp breaks brk, and h <= r:
        # a path of r moves?
        room = (2 * r - 2 if rd else r) - bp
        if room >= 0:
            blocks = _blocks(model, n, 2)
        elif not rd:
            blocks = [(0, j) for j in sorted(f.index(v) - 1 for v in
                                             (f[1] - 1, f[1] + 1) if v)
                      if j >= 2 and brk[j]]
        elif room == -2:
            blocks = [(i, j) for i, j in
                      combinations(compress(range(n + 1), brk), 2) if j - i >= 2]
        else:
            ends = set()
            for x in compress(range(n + 1), brk):
                for v, shift in ((f[x] - 1, 0), (f[x] + 1, 0),
                                 (f[x + 1] - 1, 1), (f[x + 1] + 1, 1)):
                    if 0 <= v <= n + 1:
                        y = f.index(v) - shift
                        ends.add((x, y) if x < y else (y, x))
            blocks = sorted((i, j) for i, j in ends
                            if i >= 0 and j <= n and j - i >= 2)
        for i, j in blocks:
            new_i = abs(f[i] - f[j]) != 1
            new_j = abs(f[i + 1] - f[j + 1]) != 1
            delta = new_i + new_j - brk[i] - brk[j]
            if delta <= room and (r == 1 or dfs(
                    f[:i + 1] + f[j:i:-1] + f[j + 1:],
                    brk[:i] + (new_i,) + brk[j - 1:i:-1] + (new_j,) + brk[j + 1:],
                    bp + delta, r - 1)):
                return True
        return False

    f = (0 if rd else -1, *p, n + 1)
    # from a list: a tuple built from a generator is grown by resizing, not
    # drawn from CPython's per-size free list, yet joins that list when
    # freed; one per call fills the lists (2,000 per size), megabytes
    brk = tuple([abs(a - b) != 1 for a, b in zip(f, f[1:])])
    bp = sum(brk)
    if bp == (0 if rd else 1):  # the identity
        return 0
    for limit in range(max((bp + 1) // 2 if rd else bp - 1, 1), bound + 1):
        if dfs(f, brk, bp, limit):
            return limit
    return None


def distance_peg_via_inflation(model: Model, pp: PegPermutation, N: int) -> int:
    """Distance of the inflation of pp with N on signed elements, 1 on bullets.

    Always <= distance_peg(model, pp) because every grid member is; equality
    holds once N exceeds the relevant generating-permutation length.

    >>> from .peg import parse_peg
    >>> distance_peg_via_inflation(Model.RD, parse_peg("2+ 1+"), 2)
    2
    >>> distance_peg_via_inflation(Model.RD, parse_peg("2+ 1+"), 6)
    3
    """
    from .inflation import monotone_inflate

    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    max_total = 64
    v = tuple(1 if d is DOT else N for d in pp.decorations)
    if sum(v) > max_total:
        raise ResourceLimitError(
            f"inflated length {sum(v)} exceeds limit", max_total)
    g = monotone_inflate(pp, v)
    d = distance_bounded(model, g, distance_peg(model, pp))
    if d is None:
        raise RuntimeError("grid member exceeded its peg distance bound")
    return d


# ---------------------------------------------------------------------------
# Balls and tables

def ball(model: Model, k: int, n: int, kind: TableKind = TableKind.STANDARD,
         *, limit: int | None = None):
    """All states of length n at distance <= k.

    >>> sorted(ball(Model.RD, 1, 3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    >>> ball(Model.PRD, 0, 2) == {(1, 2)}
    True
    """
    level = _ball_level(model, k, n, kind, limit)
    return set(map(tuple if kind is TableKind.STANDARD else _peg_of_key, level))


def _ball_level(model: Model, k: int, n: int, kind: TableKind,
                limit: int | None = None) -> dict[bytes, int]:
    """The states of length n within distance k of the identity, or for peg
    states, of one of its 2^n decorations by + and bullet."""
    if k < 0:
        raise ValueError(f"negative radius: {k}")
    _effective_limit(n, limit, kind)
    goals = ([bytes(identity(n))] if kind is TableKind.STANDARD else
             [_peg_key(identity(n), decs) for decs in product("+.", repeat=n)])
    return [*_frontier_bfs(model, goals, k, kind)][-1]  # the last yield: B_k


@dataclass(frozen=True)
class DistanceTable:
    """Complete distance table for one (model, kind, length)."""

    model: Model
    kind: TableKind
    n: int
    data: bytes

    def header(self) -> str:
        return (f"PEGBALL-DIST v2 {self.model.value} {self.kind.value} "
                f"{self.n} {zlib.crc32(self.data):08x}")

    def save(self, path: str | Path) -> None:
        """Write atomically: temp file in the target directory, then rename.

        The file's mode is 0666 less the umask, so a shared cache works.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self.header().encode() + b"\n")
                fh.write(self.data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "DistanceTable":
        with open(path, "rb") as fh:
            header = fh.readline().decode().strip()
            data = fh.read()
        fields = header.split()
        if len(fields) != 6 or fields[0] != "PEGBALL-DIST" or fields[1] != "v2":
            raise ValueError(f"bad table header: {header!r}")
        if zlib.crc32(data) != int(fields[5], 16):
            raise ValueError(f"checksum mismatch in {header!r}")
        model, kind, n = Model(fields[2]), TableKind(fields[3]), int(fields[4])
        expected = factorial(n) * (3 ** n if kind is TableKind.PEG else 1)
        if len(data) != expected:
            raise ValueError(
                f"table size {len(data)} != expected {expected} for {header!r}")
        # rank 0 is the identity; the probe swaps (prefix reversal of length
        # 2) or flips (oriented move on the first element) its first entry
        if kind is TableKind.PEG:
            probe = 3 ** (n - 1) if n >= 1 else 0
        else:
            probe = factorial(n - 1) if n >= 2 else 0
        if data[0] != 0 or (probe and data[probe] != 1):
            raise ValueError(f"identity or neighbour entry wrong in {header!r}")
        return cls(model, kind, n, data)


def build_table(model: Model, n: int, kind: TableKind = TableKind.STANDARD,
                *, limit: int | None = None) -> DistanceTable:
    """Every state of the given kind with its exact distance, in rank order.

    Standard states are ranked lexicographically; a peg state ranks by its
    base, then by its decorations with + < - < bullet.

    >>> list(build_table(Model.RD, 3).data)
    [0, 1, 1, 2, 2, 1]
    """
    _effective_limit(n, limit, kind)
    if kind is TableKind.STANDARD:
        data = bytes(map(_standard_table(model, n).__getitem__,
                         map(bytes, permutations(identity(n)))))
    else:
        data = bytes(_peg_distance(model, s) for s in _peg_keys(n))
    return DistanceTable(model, kind, n, data)


def cache_path(cache_dir: str | Path, model: Model, kind: TableKind,
               n: int) -> Path:
    _check_model(model)
    return Path(cache_dir) / f"{model.value}-{kind.value}-{n}.dist"


def get_table(model: Model, n: int, kind: TableKind = TableKind.STANDARD, *,
              cache_dir: str | Path | None = None,
              limit: int | None = None) -> DistanceTable:
    """The table, read from or written to the cache directory if one is set.

    The directory comes from the argument or PEGBALL_CACHE, read on every
    call here but by distance() only at its first call per (model, n) since
    import or clear_memory_cache().  A valid standard file fills the
    in-memory table that distance() reads, unless that table is already
    whole; without one, the file is written from the whole table.
    Either way distance() then skips the directory for this (model, n).  A
    corrupt cache file is rebuilt, not trusted.
    """
    _effective_limit(n, limit, kind)  # before any file is read
    directory = cache_dir if cache_dir is not None else os.environ.get(_ENV_CACHE)
    if not directory:
        return build_table(model, n, kind, limit=limit)
    path = cache_path(directory, model, kind, n)
    try:
        table = DistanceTable.load(path)
    except (ValueError, OSError):
        table = None
    if table is None or (table.model, table.kind, table.n) != (model, kind, n):
        table = build_table(model, n, kind, limit=limit)
        table.save(path)
    if kind is TableKind.STANDARD:
        _READS[model, n, directory] = _standard_table(model, n,
                                                      ranked=table.data)
    return table
