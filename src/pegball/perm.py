"""Standard permutations in one-line notation.

A permutation of length n is a tuple of the integers 1..n. The empty tuple is
the (only) permutation of length 0. All operations are pure functions on
tuples; nothing here mutates its arguments.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "Perm",
    "ParseError",
    "identity",
    "is_permutation",
    "check_permutation",
    "inverse",
    "reversal",
    "prefix_reversal",
    "compose",
    "pattern_of",
    "contains_pattern",
    "avoids_all",
    "minimal_elements",
    "parse_perm",
    "format_perm",
]

Perm = tuple[int, ...]


class ParseError(ValueError):
    """Malformed permutation or peg permutation text."""


def identity(n: int) -> Perm:
    """The identity permutation of length n.

    >>> identity(4)
    (1, 2, 3, 4)
    >>> identity(0)
    ()
    """
    if n < 0:
        raise ValueError(f"negative length: {n}")
    return tuple(range(1, n + 1))


def is_permutation(p: Iterable[int]) -> bool:
    """True iff p is a permutation of {1..n} in one-line notation.

    >>> is_permutation((3, 1, 2))
    True
    >>> is_permutation((1, 3))
    False
    """
    t = tuple(p)
    return sorted(t) == list(range(1, len(t) + 1))


def check_permutation(p: Perm) -> Perm:
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def inverse(p: Perm) -> Perm:
    """Group inverse: inverse(p)[v-1] is the position (1-based) of value v.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def reversal(p: Perm, i: int, j: int) -> Perm:
    """Reverse the segment of p at positions i..j (1-based, inclusive).

    >>> reversal((2, 1, 4, 3), 1, 4)
    (3, 4, 1, 2)
    >>> reversal((3, 4, 1, 2), 1, 3)
    (1, 4, 3, 2)
    """
    if not (1 <= i <= j <= len(p)):
        raise IndexError(f"reversal indices out of range: i={i}, j={j}, n={len(p)}")
    return p[: i - 1] + p[i - 1 : j][::-1] + p[j:]


def prefix_reversal(p: Perm, j: int) -> Perm:
    """Reverse the prefix of length j (the pancake flip).

    >>> prefix_reversal((1, 3, 2), 3)
    (2, 3, 1)
    >>> prefix_reversal((4, 2, 1, 3), 4)
    (3, 1, 2, 4)
    """
    return reversal(p, 1, j)


def compose(s: Perm, p: Perm) -> Perm:
    """Functional composition: compose(s, p)(i) = s(p(i)).

    >>> compose((2, 1), (2, 1))
    (1, 2)
    """
    if len(s) != len(p):
        raise ValueError(f"length mismatch: {len(s)} vs {len(p)}")
    return tuple(s[v - 1] for v in p)


def pattern_of(p: Perm, positions: Iterable[int]) -> Perm:
    """The pattern (rescaled subsequence) of p at the given 0-based positions.

    >>> pattern_of((3, 2, 4, 1), (0, 2, 3))
    (2, 3, 1)
    """
    values = [p[i] for i in positions]
    ranks = sorted(values)
    return tuple(ranks.index(v) + 1 for v in values)


def contains_pattern(sigma: Perm, tau: Perm) -> bool:
    """True iff some subsequence of tau is order-isomorphic to sigma.

    Backtracking over sigma's entries in order, each step one comparison:
    the value matched to the next entry must lie strictly between the values
    matched to the earlier entries nearest to it in value.

    >>> contains_pattern((2, 3, 1), (3, 2, 4, 1))
    True
    >>> contains_pattern((2, 1, 4, 3), (4, 5, 6, 1, 2, 3))
    False
    >>> contains_pattern((), (3, 1, 2))
    True
    """
    return _occurs(sigma, tau)


def _occurs(sigma: Perm, tau: Perm, need: Sequence | None = None,
            marks: Sequence = ()) -> bool:
    """The search behind contains_pattern and peg.peg_pattern_contains: with
    need, the match of sigma[i] must also carry the mark need[i] in marks,
    unless need[i] is None."""
    k, n = len(sigma), len(tau)
    if k > n:
        return False
    if k == 0:
        return True
    # lo[i] and hi[i] are the earlier entries of sigma nearest below and
    # above sigma[i] in value, else k and k + 1, which hold the bounds 0 and
    # k + 1 of sigma's values in ext and 0 and n + 1 of tau's values in got
    ext = [*sigma, 0, k + 1]
    lo, hi = [], []
    for i, v in enumerate(sigma):
        below, above = k, k + 1
        for j in range(i):
            if ext[below] < sigma[j] < v:
                below = j
            elif v < sigma[j] < ext[above]:
                above = j
        lo.append(below)
        hi.append(above)
    got = [0] * k + [0, n + 1]
    at = [0] * k  # the position in tau matched to each entry of sigma
    si = ti = 0
    while True:
        low, high = got[lo[si]], got[hi[si]]
        mark = need[si] if need else None
        while ti <= n - k + si:
            t = tau[ti]
            if low < t < high and (mark is None or marks[ti] is mark):
                break
            ti += 1
        else:
            if si == 0:
                return False
            si -= 1
            ti = at[si] + 1
            continue
        got[si], at[si] = tau[ti], ti
        si += 1
        if si == k:
            return True
        ti += 1


def avoids_all(basis: Iterable[Perm], p: Perm) -> bool:
    """True iff no element of basis is a pattern of p.

    >>> avoids_all({(2, 1, 4, 3), (2, 3, 1), (3, 1, 2)}, (3, 2, 1))
    True
    >>> avoids_all({(2, 3, 1)}, (2, 3, 1))
    False
    """
    return not any(contains_pattern(b, p) for b in basis)


def minimal_elements(perms: Iterable[Perm]) -> set[Perm]:
    """The elements containing no other element of the set as a proper pattern.

    >>> sorted(minimal_elements({(2, 3, 1), (3, 2, 4, 1)}))
    [(2, 3, 1)]
    """
    pool = set(perms)
    return {p for p in pool if not any(
        q != p and len(q) < len(p) and contains_pattern(q, p) for q in pool)}


def parse_perm(text: str) -> Perm:
    """Parse one-line notation: space-separated, or compact digits when n <= 9.

    >>> parse_perm("3 4 1 2")
    (3, 4, 1, 2)
    >>> parse_perm("3412")
    (3, 4, 1, 2)
    >>> parse_perm("")
    ()
    """
    text = text.strip()
    if not text:
        return ()
    try:
        if " " in text:
            entries = tuple(int(tok) for tok in text.split())
        elif text.isdigit():
            entries = tuple(int(ch) for ch in text)
        else:
            entries = (int(text),)
    except ValueError:
        raise ParseError(f"cannot parse permutation: {text!r}") from None
    if not is_permutation(entries):
        raise ParseError(f"not a permutation of 1..{len(entries)}: {text!r}")
    return entries


def format_perm(p: Perm) -> str:
    """Canonical text form: space-separated values.

    >>> format_perm((3, 4, 1, 2))
    '3 4 1 2'
    """
    return " ".join(str(v) for v in p)
