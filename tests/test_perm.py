from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegball.perm import (ParseError, avoids_all, compose, contains_pattern,
                          format_perm, identity, inverse, is_permutation,
                          minimal_elements, parse_perm, pattern_of, reversal)

perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))).map(tuple)


def test_identity_and_checks():
    assert identity(4) == (1, 2, 3, 4)
    assert identity(0) == ()
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((0, 1))


def test_reversal_is_one_indexed_and_inclusive():
    assert reversal((1, 2, 3, 4), 2, 4) == (1, 4, 3, 2)
    assert reversal((1, 2, 3), 2, 2) == (1, 2, 3)
    assert reversal((3, 1, 2), 1, 2) == (1, 3, 2)  # a pancake flip
    with pytest.raises(IndexError):
        reversal((1, 2), 0, 1)
    with pytest.raises(IndexError):
        reversal((1, 2), 1, 3)


@given(perms)
def test_reversal_involution(p):
    n = len(p)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert reversal(reversal(p, i, j), i, j) == p


@given(perms)
def test_inverse_and_compose(p):
    assert compose(p, inverse(p)) == identity(len(p))
    assert compose(inverse(p), p) == identity(len(p))


def test_compose_applies_right_argument_first():
    # compose(s, p)(i) = s(p(i))
    s, p = (2, 3, 1), (1, 3, 2)
    assert compose(s, p) == (2, 1, 3)


def test_pattern_of_rescales():
    assert pattern_of((4, 6, 2, 5, 1, 3), (1, 3, 4)) == (3, 2, 1)
    assert pattern_of((4, 6, 2, 5, 1, 3), ()) == ()


def test_contains_pattern_direction():
    # first argument is the pattern, second the host
    assert contains_pattern((2, 3, 1), (3, 4, 1, 2))
    assert not contains_pattern((3, 4, 1, 2), (2, 3, 1))
    assert not contains_pattern((3, 2, 1), (1, 2, 3, 4))
    assert contains_pattern((), (2, 1))
    assert contains_pattern((), ())


@given(perms)
def test_pattern_containment_reflexive_and_monotone(p):
    assert contains_pattern(p, p)
    if len(p) > 1:
        q = pattern_of(p, range(len(p) - 1))
        assert contains_pattern(q, p)


def test_contains_pattern_matches_subsequence_oracle():
    small = [p for n in range(5) for p in permutations(range(1, n + 1))]
    for t in (p for n in range(7) for p in permutations(range(1, n + 1))):
        for s in small:
            want = any(pattern_of(t, c) == s
                       for c in combinations(range(len(t)), len(s)))
            assert contains_pattern(s, t) == want, (s, t)


def test_avoids_all():
    basis = {(1, 3, 2), (2, 3, 1)}
    assert avoids_all(basis, (4, 3, 2, 1))
    assert not avoids_all(basis, (1, 4, 2, 3))


def test_minimal_elements():
    # 3241 contains 231 (at 3,4,1) and drops out; 2143 avoids both
    # length-3 members (its only patterns are 213 and 132) and stays.
    pool = {(2, 3, 1), (3, 2, 4, 1), (3, 1, 2), (2, 1, 4, 3)}
    assert minimal_elements(pool) == {(2, 3, 1), (3, 1, 2), (2, 1, 4, 3)}
    assert minimal_elements(set()) == set()


def test_parse_perm_formats():
    assert parse_perm("3 4 1 2") == (3, 4, 1, 2)
    assert parse_perm("3412") == (3, 4, 1, 2)
    assert parse_perm("1") == (1,)
    assert parse_perm("") == ()
    assert parse_perm(" 2 1 ") == (2, 1)


@pytest.mark.parametrize("text", ["31x2", "1 2 2", "0 1", "122", "1 2 4"])
def test_parse_perm_rejects(text):
    with pytest.raises(ParseError):
        parse_perm(text)


@given(perms)
def test_perm_text_round_trip(p):
    assert parse_perm(format_perm(p)) == p
