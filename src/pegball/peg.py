"""Peg permutations: permutations decorated with +, - or the bullet.

The bullet is rendered "." in canonical ASCII; the UTF-8 characters for the
bullet and the minus sign are accepted on input. Text grammar: tokens
separated by single spaces, each token a decimal value immediately followed
by its decoration, e.g. "3+ 4. 1- 5- 2+".

This module owns the peg state, the encoding the searches run on: bytes,
one byte 3*value + code per entry.  Pattern closures, clean compact
enumeration and oriented moves run on states alone; the PegPermutation
functions decode their results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from operator import add
from typing import Callable, Iterator, Sequence

from .perm import (ParseError, Perm, _occurs, check_permutation, inverse,
                   pattern_of)

__all__ = [
    "Decoration",
    "PegPermutation",
    "StripDirection",
    "Strip",
    "ExceptionalKind",
    "strips",
    "perm_strips",
    "is_clean_compact",
    "is_compact",
    "peg_of",
    "oriented_reversal",
    "oriented_prefix_reversal",
    "peg_pattern_contains",
    "proper_patterns",
    "clean_compact_proper_patterns",
    "exceptional",
    "min_inflation",
    "enumerate_clean_compact",
    "parse_peg",
    "format_peg",
    "peg_sort_key",
]


class Decoration(str, Enum):
    PLUS = "+"
    MINUS = "-"
    DOT = "."

    @classmethod
    def from_char(cls, ch: str) -> "Decoration":
        if ch in ("•", "∙"):
            ch = "."
        elif ch in ("−", "–"):
            ch = "-"
        try:
            return cls(ch)
        except ValueError:
            raise ParseError(f"unknown decoration: {ch!r}") from None

    @property
    def order(self) -> int:
        """Canonical sort order: + < - < bullet."""
        return ("+", "-", ".").index(self.value)


PLUS = Decoration.PLUS
MINUS = Decoration.MINUS
DOT = Decoration.DOT

_FLIP = {PLUS: MINUS, MINUS: PLUS, DOT: DOT}


class StripDirection(Enum):
    INC = "inc"
    DEC = "dec"
    SINGLETON = "singleton"


Strip = tuple[int, int, StripDirection]

_STRIP_DECORATION = {StripDirection.INC: PLUS, StripDirection.DEC: MINUS,
                     StripDirection.SINGLETON: DOT}


@dataclass(frozen=True)
class PegPermutation:
    """A permutation with one decoration per element.

    Its peg state, _key, is encoded on first use and is no part of equality,
    hashing or repr; a peg too long for a state raises only when asked.

    >>> pp = PegPermutation((2, 1), ("+", "."))
    >>> str(pp)
    '2+ 1.'
    >>> len(pp)
    2
    """

    base: Perm
    decorations: tuple[Decoration, ...]

    def __post_init__(self) -> None:
        base = tuple(self.base)
        decs = tuple(Decoration.from_char(d) if not isinstance(d, Decoration) else d
                     for d in self.decorations)
        check_permutation(base)
        if len(decs) != len(base):
            raise ValueError(
                f"{len(decs)} decorations for a permutation of length {len(base)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "decorations", decs)

    def __len__(self) -> int:
        return len(self.base)

    def __str__(self) -> str:
        return format_peg(self)

    def bullet_values(self) -> frozenset[int]:
        """Values carrying the bullet; invariant under oriented reversals."""
        return frozenset(v for v, d in zip(self.base, self.decorations) if d is DOT)

    @cached_property
    def _key(self) -> bytes:
        return _peg_key(self.base, self.decorations)


def _linked(v1: int, d1: Decoration, v2: int, d2: Decoration) -> bool:
    """Adjacent pair belongs to a common strip; decorations may be chars."""
    if v2 == v1 + 1:
        return d1 != MINUS and d2 != MINUS
    if v2 == v1 - 1:
        return d1 != PLUS and d2 != PLUS
    return False


# Peg states: the codes are the positions in _CODES.  Outside this module,
# only distance, basis._sweep, enumeration._class_level and verify read them,
# and inflation._sub_pegs their str form.
_CODES: tuple[Decoration, ...] = (PLUS, MINUS, DOT)
# the largest value a state byte holds with every code: 3 * 84 + 2 = 254
_MAX_STATE_VALUE = 84
_ENCODE = bytes.maketrans("".join(_CODES).encode(), bytes(range(3)))
_KEY_BYTES = range(3, 3 * _MAX_STATE_VALUE + 3)
_VALUES = bytes(range(_MAX_STATE_VALUE + 1))
_TRIPLE = bytes.maketrans(_VALUES, bytes(range(0, 3 * _MAX_STATE_VALUE + 3, 3)))
# a standard state (its values) to its all-bullet peg state, v to 3v + 2, and
# back; other modules convert between the two only through these tables
_TO_BULLETS = bytes.maketrans(_VALUES, bytes(range(2, 3 * _MAX_STATE_VALUE + 3, 3)))
_FROM_BULLETS = bytes.maketrans(_TO_BULLETS[:len(_VALUES)], _VALUES)
_FLIP_BYTES = bytes.maketrans(
    bytes(_KEY_BYTES),
    bytes(b - b % 3 + _CODES.index(_FLIP[_CODES[b % 3]]) for b in _KEY_BYTES))
# adjacent state bytes whose entries share a strip (consecutive values only)
_LINKED = frozenset(
    (a, b) for v in range(1, _MAX_STATE_VALUE)
    for c, d in itertools.product(range(3), repeat=2)
    for a, b in ((3 * v + c, 3 * v + 3 + d), (3 * v + 3 + d, 3 * v + c))
    if _linked(a // 3, _CODES[a % 3], b // 3, _CODES[b % 3]))


def _peg_key(base: Perm, decorations: Sequence[str]) -> bytes:
    """The peg state of base decorated by decorations (members or chars)."""
    if len(base) > _MAX_STATE_VALUE:
        raise ValueError(f"peg states hold at most {_MAX_STATE_VALUE} entries")
    return bytes(map(add, bytes(base).translate(_TRIPLE),
                     "".join(decorations).encode().translate(_ENCODE)))


def _peg_of_key(key: bytes) -> PegPermutation:
    """The peg of a state, carrying that state."""
    pp = PegPermutation(tuple(b // 3 for b in key),
                        tuple(_CODES[b % 3] for b in key))
    vars(pp)["_key"] = key
    return pp


@cache
def _drop(v: int) -> bytes:
    """The translation that renumbers the values above v once v is deleted."""
    return bytes(range(3 * v + 3)) + bytes(range(3 * v, 253))


def _peg_deletions(key: bytes) -> Iterator[bytes]:
    """The one-point deletions of a peg state."""
    for i, b in enumerate(key):
        yield (key[:i] + key[i + 1:]).translate(_drop(b // 3))


def _str_key(base: Perm, decorations: Sequence[str]) -> str:
    """The peg state as a str, one character per entry, which holds any
    length (inflation._sub_pegs closes pegs of any length)."""
    return "".join(chr(3 * v + _CODES.index(d)) for v, d in zip(base, decorations))


@cache
def _str_drop(v: int, m: int) -> str:
    """_drop(v) for the str states of length m."""
    return "".join(map(chr, [*range(3 * v + 3), *range(3 * v, 3 * m)]))


def _str_deletions(key: str) -> Iterator[str]:
    """The one-point deletions of a str state."""
    for i, c in enumerate(key):
        yield (key[:i] + key[i + 1:]).translate(_str_drop(ord(c) // 3, len(key)))


def _peg_weakenings(key: bytes) -> Iterator[bytes]:
    """The peg state with one sign weakened to a bullet, for each sign.
    Each is greater than key, as one byte grows."""
    for i, b in enumerate(key):
        if b % 3 != 2:
            yield key[:i] + bytes((b - b % 3 + 2,)) + key[i + 1:]


def _is_clean_compact_key(key: bytes) -> bool:
    return _LINKED.isdisjoint(zip(key, key[1:]))


def _closure(keys: set, step: Callable) -> set:
    """keys and every state that repeated steps reach from them."""
    out = level = set(keys)
    while level:
        level = {r for s in level for r in step(s)} - out
        out |= level
    return out


def _pattern_keys(key: bytes) -> set[bytes]:
    """The states strictly below key in pattern order: the weakenings of its
    deletions, as every pattern relation factors into one-point deletions
    followed by single-sign weakenings.  A step shortens a state or grows a
    byte, so no step returns to key."""
    return _closure(_closure({key}, _peg_deletions), _peg_weakenings) - {key}


def _peg_keys(n: int) -> Iterator[bytes]:
    """Every peg state of length n in rank order: base lexicographic, then
    codes with + < - < bullet."""
    for base in itertools.permutations(range(3, 3 * n + 3, 3)):
        yield from map(bytes, itertools.product(*(range(t, t + 3) for t in base)))


def _oriented(i: int, j: int) -> Callable[[bytes], bytes]:
    """The oriented move on states: reverse the block [i, j), flip its signs."""
    return lambda s: s[:i] + s[i:j][::-1].translate(_FLIP_BYTES) + s[j:]


def strips(pp: PegPermutation) -> list[Strip]:
    """Maximal runs of consecutive values with compatible decorations.

    Increasing strips require every decoration in {+, .}, decreasing ones
    every decoration in {-, .}. Positions are 1-based and inclusive.

    >>> strips(parse_peg("3+ 4. 1- 5- 2+"))[0]
    (1, 2, <StripDirection.INC: 'inc'>)
    >>> strips(parse_peg("3. 2. 1."))
    [(1, 3, <StripDirection.DEC: 'dec'>)]
    """
    return _strips(pp.base, pp.decorations)


def perm_strips(p: Perm) -> list[Strip]:
    """Strips of a standard permutation: maximal runs of consecutive values.

    These are the strips of the all-bullet peg on p.

    >>> perm_strips((3, 2, 4, 5, 1, 6, 7, 8))
    [(1, 2, <StripDirection.DEC: 'dec'>), (3, 4, <StripDirection.INC: 'inc'>), (5, 5, <StripDirection.SINGLETON: 'singleton'>), (6, 8, <StripDirection.INC: 'inc'>)]
    """
    return _strips(p, (DOT,) * len(p))


def _strips(base: Perm, decs: tuple[Decoration, ...]) -> list[Strip]:
    n = len(base)
    out: list[Strip] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and _linked(base[j], decs[j], base[j + 1], decs[j + 1]):
            j += 1
        if j == i:
            direction = StripDirection.SINGLETON
        elif base[i + 1] == base[i] + 1:
            direction = StripDirection.INC
        else:
            direction = StripDirection.DEC
        out.append((i + 1, j + 1, direction))
        i = j + 1
    return out


def is_clean_compact(pp: PegPermutation) -> bool:
    """All strips have length 1.

    >>> is_clean_compact(parse_peg("2+ 5- 4+ 1. 3-"))
    True
    >>> is_clean_compact(parse_peg("3. 4. 1- 5- 2+"))
    False
    """
    return len(strips(pp)) == len(pp)


def is_compact(pp: PegPermutation) -> bool:
    """Strips of length >= 2 consist only of bullet-decorated elements.

    >>> is_compact(parse_peg("3. 4. 1- 5- 2+"))
    True
    >>> is_compact(parse_peg("3+ 4. 1- 5- 2+"))
    False
    """
    return all(direction is StripDirection.SINGLETON
               or all(d is DOT for d in pp.decorations[start - 1:end])
               for start, end, direction in strips(pp))


def peg_of(p: Perm) -> PegPermutation:
    """Collapse each strip of p to its minimum; the result is clean compact.

    >>> str(peg_of((3, 2, 4, 5, 1, 6, 7, 8)))
    '2- 3+ 1. 4+'
    >>> str(peg_of((3, 4, 1, 2)))
    '2+ 1+'
    >>> str(peg_of((1, 2, 3)))
    '1+'
    """
    if not p:
        raise ValueError("peg of the empty permutation is undefined")
    runs = perm_strips(p)
    minima = [min(p[start - 1], p[end - 1]) for start, end, _ in runs]
    return PegPermutation(pattern_of(minima, range(len(minima))),
                          tuple(_STRIP_DECORATION[d] for _, _, d in runs))


def oriented_reversal(pp: PegPermutation, i: int, j: int) -> PegPermutation:
    """Reverse base positions i..j and swap + and - inside the segment.

    >>> str(oriented_reversal(parse_peg("3+ 1+ 2- 5. 4+"), 2, 4))
    '3+ 5. 2+ 1- 4+'
    >>> str(oriented_reversal(parse_peg("1+ 2+"), 1, 2))
    '2- 1-'
    """
    if not (1 <= i <= j <= len(pp)):
        raise IndexError(f"reversal indices out of range: i={i}, j={j}, n={len(pp)}")
    return _peg_of_key(_oriented(i - 1, j)(pp._key))


def oriented_prefix_reversal(pp: PegPermutation, j: int) -> PegPermutation:
    return oriented_reversal(pp, 1, j)


def peg_pattern_contains(sigma: PegPermutation, tau: PegPermutation) -> bool:
    """True iff sigma is a peg pattern of tau.

    There must be a subsequence of tau order-isomorphic to sigma's base such
    that wherever sigma is decorated + (resp. -), the matched element of tau
    is decorated + (resp. -); sigma's bullets impose nothing. In particular,
    weakening any subset of tau's signs to bullets yields a pattern of tau.

    >>> peg_pattern_contains(parse_peg("1+ 2. 3+"), parse_peg("1+ 2- 3+"))
    True
    >>> peg_pattern_contains(parse_peg("1+ 2- 3+"), parse_peg("1+ 2. 3+"))
    False
    """
    return _occurs(sigma.base, tau.base,
                   [None if d is DOT else d for d in sigma.decorations],
                   tau.decorations)


def proper_patterns(pp: PegPermutation) -> set[PegPermutation]:
    """All peg permutations strictly below pp in pattern order.

    Every subsequence of pp, rescaled, with every subset of the retained signs
    weakened to bullets; the empty peg permutation is always included.

    >>> sorted(str(q) for q in proper_patterns(parse_peg("2+ 1.")))
    ['', '1+', '1.', '2. 1.']
    """
    return set(map(_peg_of_key, _pattern_keys(pp._key)))


def clean_compact_proper_patterns(pp: PegPermutation) -> set[PegPermutation]:
    """All clean compact peg permutations strictly below pp in pattern order.

    >>> sorted(str(q) for q in clean_compact_proper_patterns(parse_peg("2+ 1.")))
    ['', '1+', '1.']
    """
    return {_peg_of_key(s)
            for s in _pattern_keys(pp._key)
            if _is_clean_compact_key(s)}


class ExceptionalKind(Enum):
    THETA_EVEN = "theta_even"
    LAMBDA_EVEN = "lambda_even"
    THETA_ODD = "theta_odd"
    LAMBDA_ODD = "lambda_odd"

    @property
    def even(self) -> bool:
        return self in (ExceptionalKind.THETA_EVEN, ExceptionalKind.LAMBDA_EVEN)


def exceptional(kind: ExceptionalKind, n: int) -> PegPermutation:
    """The four parametric families of prefix-reversal peg basis permutations.

    Each Λ form is the inverse of the Θ form of its parity: Θ's entry at
    position i with value v becomes Λ's entry at position v with value i,
    with the same decoration.  Θ marks its value 1, so Λ marks its first
    entry.

    >>> str(exceptional(ExceptionalKind.THETA_ODD, 3))
    '3. 1- 2.'
    >>> str(exceptional(ExceptionalKind.LAMBDA_EVEN, 2))
    '2+ 1.'
    >>> str(exceptional(ExceptionalKind.LAMBDA_ODD, 5))
    '3- 4. 2. 5. 1.'
    """
    parity, least = ("even", 2) if kind.even else ("odd", 3)
    if n % 2 != least % 2 or n < least:
        raise ValueError(f"{kind.name} requires {parity} n >= {least}, got {n}")
    if kind.even:
        base, sign = (*range(n, 0, -2), 1, *range(3, n, 2)), PLUS
    else:
        base, sign = (*range(n, 2, -2), 1, *range(2, n, 2)), MINUS
    if kind in (ExceptionalKind.LAMBDA_EVEN, ExceptionalKind.LAMBDA_ODD):
        return PegPermutation(inverse(base), (sign,) + (DOT,) * (n - 1))
    return PegPermutation(base, tuple(sign if v == 1 else DOT for v in base))


def min_inflation(pp: PegPermutation) -> Perm:
    """Inflate bullets by 1 and signed elements by 2.

    For clean compact pp this is the pattern-minimal permutation whose peg
    is pp.

    >>> min_inflation(parse_peg("3. 1- 2."))
    (4, 2, 1, 3)
    >>> min_inflation(parse_peg("2- 3. 1."))
    (3, 2, 4, 1)
    """
    from .inflation import monotone_inflate

    v = tuple(1 if d is DOT else 2 for d in pp.decorations)
    return monotone_inflate(pp, v)


def enumerate_clean_compact(n: int) -> Iterator[PegPermutation]:
    """Every clean compact peg permutation of length n, exactly once.

    Order: lexicographic on the base, then on decorations with + < - < bullet.

    >>> [str(pp) for pp in enumerate_clean_compact(1)]
    ['1+', '1-', '1.']
    >>> sum(1 for _ in enumerate_clean_compact(2))
    10
    """
    if n < 0:
        raise ValueError(f"negative length: {n}")
    yield from map(_peg_of_key, filter(_is_clean_compact_key, _peg_keys(n)))


def parse_peg(text: str) -> PegPermutation:
    """Parse peg text such as "3+ 4. 1- 5- 2+" (UTF-8 bullet/minus accepted).

    >>> parse_peg("2+ 1•").base
    (2, 1)
    """
    text = text.strip()
    if not text:
        return PegPermutation((), ())
    base: list[int] = []
    decs: list[Decoration] = []
    for tok in text.split():
        value, dec = tok[:-1], tok[-1:]
        if not value.isdigit():
            raise ParseError(f"bad peg token: {tok!r}")
        base.append(int(value))
        decs.append(Decoration.from_char(dec))
    try:
        return PegPermutation(tuple(base), tuple(decs))
    except ValueError as exc:
        raise ParseError(f"bad peg permutation {text!r}: {exc}") from None


def format_peg(pp: PegPermutation) -> str:
    """Canonical ASCII rendering, bullet as '.'.

    >>> format_peg(PegPermutation((3, 1, 2), (".", "-", ".")))
    '3. 1- 2.'
    """
    return " ".join(f"{v}{d.value}" for v, d in zip(pp.base, pp.decorations))


def peg_sort_key(pp: PegPermutation):
    """Deterministic order: length, base lex, decorations with + < - < bullet."""
    return (len(pp), pp.base, tuple(d.order for d in pp.decorations))
