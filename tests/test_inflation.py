import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegball import inflation
from pegball.distance import Model
from pegball.generators import generating_set
from pegball.inflation import (_compositions, _sub_pegs, a_set_stream,
                               check_legal, grid_enumerate, grid_member,
                               is_legal, legal_vectors, monotone_inflate)
from pegball.peg import PegPermutation, format_peg, parse_peg, peg_of


def _all_pegs(m_max):
    return [PegPermutation(base, decs) for m in range(m_max + 1)
            for base in itertools.permutations(range(1, m + 1))
            for decs in itertools.product("+-.", repeat=m)]


def test_is_legal():
    b = parse_peg("2+ 1+")
    assert is_legal(b, (0, 0))
    assert is_legal(b, (5, 2))
    assert not is_legal(b, (2, -1))
    assert not is_legal(b, (1, 2, 3))
    dot = parse_peg("1.")
    assert is_legal(dot, (0,)) and is_legal(dot, (1,))
    assert not is_legal(dot, (2,))


def test_check_legal_messages():
    b = parse_peg("2+ 1+")
    check_legal(b, (3, 0))
    with pytest.raises(ValueError, match="length"):
        check_legal(b, (1, 2, 3))
    with pytest.raises(ValueError, match="illegal"):
        check_legal(b, (2, -1))


def test_monotone_inflate():
    assert monotone_inflate(PegPermutation((3, 1, 2, 5, 4), "++.-."),
                            (2, 0, 1, 3, 1)) == (2, 3, 1, 7, 6, 5, 4)
    assert monotone_inflate(PegPermutation((2, 1), "++"), (2, 2)) == (3, 4, 1, 2)
    assert monotone_inflate(PegPermutation((2, 1), "-+"), (2, 2)) == (4, 3, 1, 2)
    assert monotone_inflate(PegPermutation((1,), "."), (0,)) == ()


def test_monotone_inflate_matches_peg_of():
    # inflating with >=2 everywhere is a section of peg_of
    for b in (parse_peg("2+ 1+"), parse_peg("3. 1- 2."), parse_peg("1- 3. 2+")):
        v = tuple(1 if d == "." else 2 for d in format_peg(b)[1::3])
        p = monotone_inflate(b, v)
        assert peg_of(p) == b


def test_legal_vectors_count():
    b = parse_peg("2+ 1+")
    vs = list(legal_vectors(b, 6))
    assert len(vs) == 7
    assert all(sum(v) == 6 and is_legal(b, v) for v in vs)
    assert list(legal_vectors(parse_peg("1."), 2)) == []


def test_compositions_match_product_filter():
    for caps in ([], [0], [0, 0], [3], [2, 0, 3], [1, 1, 1, 4], [5, 5, 5],
                 [1, 3, 0, 2]):
        for total in range(7):
            want = [v for v in itertools.product(*(range(c + 1) for c in caps))
                    if sum(v) == total]
            assert list(_compositions(caps, total)) == want, (caps, total)


def test_legal_vectors_match_product_filter():
    # in lexicographic order, and none for a negative total
    for pp in _all_pegs(3):
        for total in range(-1, 7):
            want = [v for v in itertools.product(
                        *(range(2 if d == "." else total + 1)
                          for d in format_peg(pp)[1::3]))
                    if sum(v) == total]
            assert list(legal_vectors(pp, total)) == want, (pp, total)
    assert len(list(legal_vectors(parse_peg("1. 2. 3. 4+"), 7))) == 8


def test_vector_and_stream_order():
    pp = parse_peg("2+ 4. 1- 3+")
    assert list(legal_vectors(pp, 3)) == [
        (0, 0, 0, 3), (0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 3, 0), (0, 1, 0, 2),
        (0, 1, 1, 1), (0, 1, 2, 0), (1, 0, 0, 2), (1, 0, 1, 1), (1, 0, 2, 0),
        (1, 1, 0, 1), (1, 1, 1, 0), (2, 0, 0, 1), (2, 0, 1, 0), (2, 1, 0, 0),
        (3, 0, 0, 0)]
    assert list(a_set_stream(pp, 9)) == [
        (3, 4, 7, 2, 1, 5, 6), (3, 4, 5, 8, 2, 1, 6, 7),
        (3, 4, 8, 2, 1, 5, 6, 7), (4, 5, 8, 3, 2, 1, 6, 7),
        (3, 4, 5, 6, 9, 2, 1, 7, 8), (3, 4, 5, 9, 2, 1, 6, 7, 8),
        (3, 4, 9, 2, 1, 5, 6, 7, 8), (4, 5, 6, 9, 3, 2, 1, 7, 8),
        (4, 5, 9, 3, 2, 1, 6, 7, 8), (5, 6, 9, 4, 3, 2, 1, 7, 8)]


def test_grid_member():
    b = parse_peg("2+ 1+")
    assert grid_member(b, (3, 4, 1, 2))
    assert grid_member(b, (3, 1, 2))
    assert grid_member(b, (1, 2, 3))  # v = (0, 3)
    assert not grid_member(b, (3, 2, 1))
    assert grid_member(b, ())


def test_grid_member_matches_inflation_sets():
    # every peg of length <= 3 against every permutation of length <= 6
    perms = [p for n in range(7) for p in itertools.permutations(range(1, n + 1))]
    for pp in _all_pegs(3):
        plain = {monotone_inflate(pp, v)
                 for n in range(7) for v in legal_vectors(pp, n)}
        assert {p for p in perms if grid_member(pp, p)} == plain, pp


def test_grid_enumerate():
    got = sorted(grid_enumerate({PegPermutation((1, 2, 3), "+-+")}, 3))
    assert got == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    assert grid_enumerate({PegPermutation((1,), "+")}, 4) == {(1, 2, 3, 4)}


def test_grid_enumerate_matches_grid_member():
    gens = {parse_peg("1+ 2- 3+"), parse_peg("2+ 1+")}
    for n in (1, 2, 3, 4, 5):
        got = grid_enumerate(gens, n)
        want = {p for p in map(tuple, itertools.permutations(range(1, n + 1)))
                if any(grid_member(g, p) for g in gens)}
        assert got == want


@pytest.mark.parametrize("model,k", [(Model.RD, k) for k in range(4)]
                         + [(Model.PRD, k) for k in range(6)])
def test_grid_enumerate_matches_grid_member_filter(model, k):
    # an oracle that shares no inflation code with grid_enumerate
    gens = generating_set(model, k).sorted_members()
    for n in range(7):
        want = {p for p in itertools.permutations(range(1, n + 1))
                if any(grid_member(g, p) for g in gens)}
        assert grid_enumerate(gens, n) == want, n


def test_grid_enumerate_skips_linked_sub_pegs():
    # 1+ 2+ and 2. 1- are one run each; 2. 1. is not, as bullets stay single
    for text, kept in (("1+ 2+", 2), ("2. 1-", 3), ("2. 1.", 3)):
        assert len(_sub_pegs(frozenset({parse_peg(text)}))) == kept, text
    assert grid_enumerate({parse_peg("1+ 2+")}, 4) == {(1, 2, 3, 4)}
    assert grid_enumerate({parse_peg("2. 1-")}, 4) == {(4, 3, 2, 1)}


def test_sub_peg_floors():
    def floors(text):
        subs = _sub_pegs(frozenset({parse_peg(text)}))
        return sorted((len(plan[0]), floor) for plan, floor in subs)

    # 1- has its twin 1+ (a); the - of 1+ 2- and the + of 2- 1+, read as
    # bullets, extend their neighbour's run (b)
    assert floors("1+ 2-") == floors("2- 1+") == [
        (0, []), (1, [1]), (1, [2]), (2, [1, 2])]
    # (a) for 1-, and (b) for the 1- of 1- 2+; the bullet keeps 1
    assert floors("1- 3. 2+") == [
        (0, []), (1, [1]), (1, [1]), (1, [2]),
        (2, [1, 1]), (2, [1, 1]), (2, [2, 1]), (3, [1, 1, 1])]


def _grid_union_oracle(pegs, n):
    return {monotone_inflate(pp, v) for pp in pegs for v in legal_vectors(pp, n)}


@st.composite
def _run_pegs(draw):
    """Pegs of length <= 6 whose bases are runs of consecutive values, so
    that adjacent entries are often linked, with a - / + twin beside some."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=6))
    while sum(sizes) > 6:
        sizes.pop()
    rank = draw(st.permutations(range(len(sizes))))
    starts = [sum(sizes[j] for j in range(len(sizes)) if rank[j] < rank[i])
              for i in range(len(sizes))]
    base = []
    for start, size in zip(starts, sizes):
        run = range(start + 1, start + size + 1)
        base.extend(run if draw(st.booleans()) else reversed(run))
    decs = draw(st.lists(st.sampled_from("+-."), min_size=len(base),
                         max_size=len(base)))
    pegs = {PegPermutation(tuple(base), decs)}
    minus = [i for i, d in enumerate(decs) if d == "-"]
    if minus and draw(st.booleans()):
        i = draw(st.sampled_from(minus))
        pegs.add(PegPermutation(tuple(base), decs[:i] + ["+"] + decs[i + 1:]))
    return pegs


@settings(max_examples=300, deadline=None)
@given(_run_pegs(), st.integers(0, 7))
def test_grid_enumerate_matches_legal_vector_union_on_random_pegs(pegs, n):
    assert grid_enumerate(pegs, n) == _grid_union_oracle(pegs, n)


@pytest.mark.parametrize("model,k,n_max,made", [
    (Model.RD, 3, 6, 1141), (Model.PRD, 4, 8, 2791)])
def test_grid_enumerate_inflation_count(monkeypatch, model, k, n_max, made):
    # the floors leave about one inflation per permutation; with floors of 1
    # the same sub-pegs make 3,562 and 6,134
    gens = generating_set(model, k).members  # built before counting
    count = 0

    def counted(*args):
        nonlocal count
        for p in inflate(*args):
            count += 1
            yield p

    inflate = inflation._inflations
    monkeypatch.setattr(inflation, "_inflations", counted)
    total = sum(len(grid_enumerate(gens, n)) for n in range(1, n_max + 1))
    assert (count, total) == (made, {3: 685, 4: 2658}[k])


@pytest.mark.parametrize("model,k,n_max", [
    (Model.RD, 0, 8), (Model.RD, 1, 8), (Model.RD, 2, 8), (Model.RD, 3, 6),
    (Model.PRD, 0, 6), (Model.PRD, 1, 6), (Model.PRD, 2, 6), (Model.PRD, 3, 6),
    (Model.PRD, 4, 6), (Model.PRD, 5, 6)])
def test_grid_enumerate_matches_legal_vector_union(model, k, n_max):
    gens = generating_set(model, k).members
    for n in range(n_max + 1):
        assert grid_enumerate(gens, n) == _grid_union_oracle(gens, n), n


def test_grid_enumerate_edge_cases():
    gens = {parse_peg("1+ 2- 3+"), parse_peg("2. 1.")}
    assert grid_enumerate(gens, 0) == {()}
    assert grid_enumerate({parse_peg("1.")}, 0) == {()}
    assert grid_enumerate(set(), 0) == set()
    assert grid_enumerate(set(), 3) == set()
    assert grid_enumerate(iter(gens), 2) == _grid_union_oracle(gens, 2)
    empty = PegPermutation((), ())
    assert grid_enumerate({empty}, 0) == {()}
    assert grid_enumerate({empty}, 1) == set()
    # an all-bullet peg holds only its own patterns, none longer
    bullets = parse_peg("2. 4. 1. 3.")
    for n in range(6):
        assert grid_enumerate({bullets}, n) == _grid_union_oracle({bullets}, n)
    assert grid_enumerate({bullets}, 4) == {(2, 4, 1, 3)}
    assert grid_enumerate({bullets}, 5) == set()


def test_grid_enumerate_long_pegs():
    # longer than a peg state byte can hold (values up to 84)
    n_long = 100
    up = PegPermutation(tuple(range(1, n_long + 1)), "+" * n_long)
    down = PegPermutation(tuple(range(1, n_long + 1)), "-" * n_long)
    assert grid_enumerate({up}, 5) == {(1, 2, 3, 4, 5)}
    for n in range(5):
        short = PegPermutation(tuple(range(1, n + 1)), "-" * n)
        assert grid_enumerate({down}, n) == _grid_union_oracle({short}, n)
    falling = PegPermutation(tuple(range(n_long, 0, -1)), "." * n_long)
    assert grid_enumerate({falling}, n_long) == {falling.base}
    assert grid_enumerate({falling}, 3) == {(3, 2, 1)}


def test_a_set_stream():
    got = [p for p in a_set_stream(parse_peg("2+ 1+"), 6)]
    assert got == [(3, 4, 1, 2), (3, 4, 5, 1, 2), (4, 5, 1, 2, 3),
                   (3, 4, 5, 6, 1, 2), (4, 5, 6, 1, 2, 3), (5, 6, 1, 2, 3, 4)]
    assert all(peg_of(p) == parse_peg("2+ 1+") for p in got)
    assert next(a_set_stream(parse_peg("1."), 1)) == (1,)
    with pytest.raises(ValueError, match="clean compact"):
        next(a_set_stream(parse_peg("1+ 2+"), 3))
