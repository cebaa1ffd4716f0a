from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegball.distance import Model
from pegball.generators import generating_set
from pegball.perm import ParseError, pattern_of
from pegball.peg import (_MAX_STATE_VALUE, Decoration, ExceptionalKind,
                         PegPermutation, StripDirection, _FLIP,
                         _is_clean_compact_key, _oriented, _peg_deletions,
                         _peg_key, _peg_of_key, _peg_weakenings,
                         clean_compact_proper_patterns,
                         enumerate_clean_compact, exceptional, format_peg,
                         is_clean_compact, oriented_prefix_reversal,
                         oriented_reversal,
                         parse_peg, peg_of, peg_pattern_contains,
                         perm_strips, proper_patterns, strips)

pegs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.permutations(tuple(range(1, n + 1))),
        st.lists(st.sampled_from("+-."), min_size=n, max_size=n)))


def _peg(base, decs):
    return PegPermutation(tuple(base), tuple(decs))


def test_parse_and_format():
    pp = parse_peg("3+ 4. 1- 5- 2+")
    assert pp.base == (3, 4, 1, 5, 2)
    assert format_peg(pp) == "3+ 4. 1- 5- 2+"
    assert parse_peg("2+ 1•") == parse_peg("2+ 1.")
    assert parse_peg("") == PegPermutation((), ())
    assert format_peg(PegPermutation((), ())) == ""


@pytest.mark.parametrize("text", ["1x", "2+ 2-", "0+", "2+", "1+ 3-"])
def test_parse_peg_rejects(text):
    with pytest.raises(ParseError):
        parse_peg(text)


@given(pegs)
def test_peg_text_round_trip(args):
    pp = _peg(*args)
    assert parse_peg(format_peg(pp)) == pp


def _all_pegs(n):
    return [_peg(base, decs) for base in permutations(range(1, n + 1))
            for decs in product("+-.", repeat=n)]


def test_peg_pattern_contains_matches_proper_patterns():
    small = [pp for n in range(4) for pp in _all_pegs(n)]
    for t in (pp for n in range(5) for pp in _all_pegs(n)):
        below = proper_patterns(t)
        for s in small:
            assert peg_pattern_contains(s, t) == (s == t or s in below), (s, t)


def test_perm_strips_are_maximal_unit_step_runs():
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            runs, i = [], 0
            while i < n:
                j = i  # the run's last index
                step = p[i + 1] - p[i] if i + 1 < n else 0
                while abs(step) == 1 and j + 1 < n and p[j + 1] - p[j] == step:
                    j += 1
                runs.append((i + 1, j + 1, StripDirection.SINGLETON if j == i
                             else StripDirection.INC if step == 1
                             else StripDirection.DEC))
                i = j + 1
            assert perm_strips(p) == runs, p


def test_strips_split_on_direction_and_decoration():
    # 2+ 3+ is an ascending strip; 1. alone; 5- 4- descending.
    got = strips(parse_peg("2+ 3+ 1. 5- 4-"))
    assert [(i, j) for i, j, _ in got] == [(1, 2), (3, 3), (4, 5)]
    # a + inside a descending run blocks linking
    assert len(strips(parse_peg("2+ 1+"))) == 2
    # bullets link in either direction
    assert len(strips(parse_peg("1. 2."))) == 1
    assert len(strips(parse_peg("2. 1."))) == 1


def test_clean_compact_and_compact():
    assert is_clean_compact(parse_peg("2. 4. 1. 3."))
    assert not is_clean_compact(parse_peg("1. 3. 2."))
    assert not is_clean_compact(parse_peg("1+ 2+"))
    assert is_clean_compact(parse_peg("1- 2-"))


def test_peg_of_collapses_strips():
    assert format_peg(peg_of((4, 5, 6, 1, 2, 3))) == "2+ 1+"
    assert format_peg(peg_of((5, 6, 4, 1, 2, 3))) == "3+ 2. 1+"
    assert format_peg(peg_of((2, 1, 5, 3, 4))) == "1- 3. 2+"
    assert format_peg(peg_of((1, 2, 3))) == "1+"
    assert format_peg(peg_of((3, 1, 2))) == "2. 1+"
    assert format_peg(peg_of((2, 4, 1, 3))) == "2. 4. 1. 3."


@given(st.permutations(tuple(range(1, 8))))
def test_peg_of_is_clean_compact(p):
    assert is_clean_compact(peg_of(tuple(p)))


def test_oriented_reversal_flips_signs_not_bullets():
    assert format_peg(oriented_reversal(parse_peg("2. 1-"), 1, 2)) == "1+ 2."
    assert format_peg(oriented_reversal(parse_peg("3+ 1- 2."), 2, 2)) == "3+ 1+ 2."
    assert format_peg(oriented_prefix_reversal(parse_peg("3+ 1- 2."), 2)) == "1+ 3- 2."
    # the bullet values name a peg's distance component
    pp = parse_peg("3+ 1- 2. 5. 4+")
    assert pp.bullet_values() == frozenset({2, 5})
    assert {oriented_reversal(pp, i, j).bullet_values()
            for i in range(1, 6) for j in range(i, 6)} == {frozenset({2, 5})}
    assert parse_peg("1+ 2-").bullet_values() == frozenset()


def test_peg_pattern_contains_weakening_direction():
    # a bullet in the pattern matches any decoration in the host
    assert peg_pattern_contains(parse_peg("3. 1. 2."), parse_peg("3. 1- 2."))
    # a sign in the pattern requires the same sign in the host
    assert not peg_pattern_contains(parse_peg("3. 1- 2."), parse_peg("3. 1. 2."))
    assert not peg_pattern_contains(parse_peg("1+"), parse_peg("1-"))
    assert peg_pattern_contains(parse_peg("1."), parse_peg("1-"))
    # subsequence embedding on the base
    assert peg_pattern_contains(parse_peg("2+ 1."), parse_peg("3+ 1. 2."))
    assert not peg_pattern_contains(parse_peg("2+ 1."), parse_peg("1. 2+"))


def test_proper_patterns_of_2plus_1dot():
    got = sorted(format_peg(q) for q in proper_patterns(parse_peg("2+ 1.")))
    assert got == ["", "1+", "1.", "2. 1."]


def test_proper_patterns_of_long_generating_peg():
    pp = parse_peg("1+ 8- 7+ 6- 5+ 4- 3+ 2- 9+")
    assert pp in generating_set(Model.RD, 4).members
    below = proper_patterns(pp)
    assert pp not in below
    assert all(peg_pattern_contains(q, pp) for q in below)
    deletions = {PegPermutation(
        pattern_of(pp.base, [j for j in range(9) if j != i]),
        pp.decorations[:i] + pp.decorations[i + 1:]) for i in range(9)}
    assert deletions <= below


def test_clean_compact_proper_patterns_filter():
    pp = parse_peg("2+ 1.")
    cc = clean_compact_proper_patterns(pp)
    assert cc == {q for q in proper_patterns(pp) if is_clean_compact(q)}
    # the all-bullet pegs on 2413/3142 have no clean compact pattern one
    # shorter (each deletion creates a strip; bullets cannot weaken further)
    for text in ("2. 4. 1. 3.", "3. 1. 4. 2."):
        pats = clean_compact_proper_patterns(parse_peg(text))
        assert not any(len(q) == 3 for q in pats)


def test_exceptional_forms():
    forms = {
        (ExceptionalKind.THETA_EVEN, 2): "2. 1+",
        (ExceptionalKind.LAMBDA_EVEN, 2): "2+ 1.",
        (ExceptionalKind.THETA_ODD, 3): "3. 1- 2.",
        (ExceptionalKind.LAMBDA_ODD, 3): "2- 3. 1.",
        (ExceptionalKind.THETA_EVEN, 4): "4. 2. 1+ 3.",
        (ExceptionalKind.LAMBDA_EVEN, 4): "3+ 2. 4. 1.",
        (ExceptionalKind.THETA_ODD, 5): "5. 3. 1- 2. 4.",
        (ExceptionalKind.LAMBDA_ODD, 5): "3- 4. 2. 5. 1.",
    }
    for (kind, n), text in forms.items():
        assert format_peg(exceptional(kind, n)) == text
        assert is_clean_compact(exceptional(kind, n))


@pytest.mark.parametrize("kind,n", [
    (ExceptionalKind.THETA_EVEN, 3), (ExceptionalKind.THETA_ODD, 4),
    (ExceptionalKind.THETA_EVEN, 0), (ExceptionalKind.LAMBDA_ODD, 1),
])
def test_exceptional_rejects_bad_parity(kind, n):
    with pytest.raises(ValueError):
        exceptional(kind, n)


def test_enumerate_clean_compact_counts():
    assert [sum(1 for _ in enumerate_clean_compact(n)) for n in (1, 2, 3, 4)] \
        == [3, 10, 82, 936]


def test_enumerate_clean_compact_is_exhaustive_at_2():
    got = set(enumerate_clean_compact(2))
    assert len(got) == 10
    assert all(is_clean_compact(pp) and len(pp) == 2 for pp in got)
    assert parse_peg("1+ 2+") not in got
    assert parse_peg("1- 2-") in got


def test_decoration_parsing():
    assert Decoration.from_char("+") is Decoration.PLUS
    assert Decoration.from_char("•") is Decoration.DOT
    assert Decoration.from_char("−") is Decoration.MINUS
    assert Decoration.from_char("–") is Decoration.MINUS
    with pytest.raises(ParseError):
        Decoration.from_char("?")


def test_peg_state_reductions_match_pegs():
    for n in range(5):
        for base in permutations(range(1, n + 1)):
            for decs in product("+-.", repeat=n):
                pp = PegPermutation(base, decs)
                key = _peg_key(base, decs)
                deletions = [PegPermutation(
                    tuple(v - (v > base[i]) for v in base[:i] + base[i + 1:]),
                    decs[:i] + decs[i + 1:]) for i in range(n)]
                weakenings = [PegPermutation(base, decs[:i] + (".",)
                                             + decs[i + 1:])
                              for i in range(n) if decs[i] != "."]
                assert list(map(_peg_of_key, _peg_deletions(key))) == deletions
                assert list(map(_peg_of_key, _peg_weakenings(key))) == \
                    weakenings
                assert all(w > key for w in _peg_weakenings(key))
                assert _is_clean_compact_key(key) == is_clean_compact(pp)


def test_peg_state_round_trip_to_the_largest_value():
    n = _MAX_STATE_VALUE
    assert n == 84
    for d in "+-.":  # every value with every decoration
        pp = PegPermutation(tuple(range(n, 0, -1)), (d,) * n)
        assert _peg_of_key(_peg_key(pp.base, pp.decorations)) == pp
    with pytest.raises(ValueError):
        _peg_key(tuple(range(1, n + 2)), "." * (n + 1))


def test_oriented_move_reverses_and_flips_signs():
    for pp in (pp for n in range(5) for pp in _all_pegs(n)):
        key = _peg_key(pp.base, pp.decorations)
        for i in range(len(pp)):
            for j in range(i + 1, len(pp) + 1):
                want = PegPermutation(
                    pp.base[:i] + pp.base[i:j][::-1] + pp.base[j:],
                    pp.decorations[:i]
                    + tuple(_FLIP[d] for d in pp.decorations[i:j][::-1])
                    + pp.decorations[j:])
                assert _peg_of_key(_oriented(i, j)(key)) == want


def test_carried_state_is_the_encoding():
    from pegball.basis import peg_basis

    def states_agree(pps):
        for pp in pps:
            assert pp._key == _peg_key(pp.base, pp.decorations), pp

    states_agree([parse_peg("3+ 1- 4. 2+"), parse_peg("")])
    states_agree(_peg_of_key(_peg_key(pp.base, pp.decorations))
                 for n in range(4) for pp in _all_pegs(n))
    pp = parse_peg("3+ 1- 5. 2+ 4-")
    states_agree(oriented_reversal(pp, i, j)
                 for i in range(1, 6) for j in range(i, 6))
    for model, k in ((Model.RD, 1), (Model.PRD, 2)):
        states_agree(peg_basis(model, k).members)


def test_state_takes_no_part_in_equality():
    for text in ("3+ 1- 4. 2+", "1.", ""):
        pp, fresh = parse_peg(text), parse_peg(text)
        assert pp._key == _peg_key(fresh.base, fresh.decorations)
        assert "_key" not in vars(fresh)
        assert pp == fresh and hash(pp) == hash(fresh)
        assert repr(pp) == repr(fresh) and {pp} == {fresh}
        decoded = _peg_of_key(pp._key)
        assert decoded == fresh and hash(decoded) == hash(fresh)
