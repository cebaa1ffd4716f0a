from math import factorial

import pytest

from pegball import generators, reference
from pegball.distance import Model, ball, distance_peg
from pegball.generators import (GeneratingSet, generating_set, is_generating,
                                prd_generating_set, rd_generating_set,
                                rd_inflate_step)
from pegball.inflation import grid_member
from pegball.peg import format_peg, is_clean_compact, parse_peg, peg_sort_key


def test_rd_frozen_sets():
    for k, want in reference.RD_GENERATING.items():
        got = {format_peg(pp) for pp in rd_generating_set(k).members}
        assert got == set(want)


def test_prd_frozen_sets():
    for k, want in reference.PRD_GENERATING.items():
        got = {format_peg(pp) for pp in prd_generating_set(k).members}
        assert got == set(want)


def test_prd_counts_and_shape():
    for k in range(1, reference.PRD_GENERATING_COUNT_MAX_K + 1):
        gs = prd_generating_set(k)
        assert len(gs.members) == factorial(k)
        assert all(len(pp) == k + 1 for pp in gs.members)
        # each member parks the maximum at the end, ascending and signed +
        assert all(pp.base[-1] == k + 1 and str(pp).endswith("+")
                   for pp in gs.members)
        assert all(is_clean_compact(pp) for pp in gs.members)


def test_rd_shape():
    for k in range(3):
        gs = rd_generating_set(k)
        assert all(len(pp) == 2 * k + 1 for pp in gs.members)
        assert all(is_clean_compact(pp) for pp in gs.members)
        assert all("." not in format_peg(pp) for pp in gs.members)
        assert all(distance_peg(Model.RD, pp) == k for pp in gs.members)


def test_generating_set_dispatch():
    assert {str(p) for p in generating_set(Model.PRD, 0).members} == {"1+"}
    assert {str(p) for p in generating_set(Model.RD, 0).members} == {"1+"}
    assert generating_set(Model.RD, 1).members \
        == rd_generating_set(1).members
    assert generating_set(Model.PRD, 2).members \
        == prd_generating_set(2).members


def test_bad_k():
    with pytest.raises(ValueError):
        generating_set(Model.RD, -1)
    with pytest.raises(ValueError):
        prd_generating_set(0)


def test_generating_set_memoized():
    for k in range(4):
        gs = generating_set(Model.RD, k)
        assert generating_set(Model.RD, k) is gs
        assert gs.sorted_members() == rd_generating_set(k).sorted_members()
    for k in range(1, 4):
        gs = generating_set(Model.PRD, k)
        assert generating_set(Model.PRD, k) is gs
        assert gs.sorted_members() == prd_generating_set(k).sorted_members()
    for _ in range(2):  # an invalid k raises on every call
        for model in Model:
            with pytest.raises(ValueError):
                generating_set(model, -1)


def test_sorted_members_sorts_once(monkeypatch):
    calls = []
    monkeypatch.setattr(generators, "peg_sort_key",
                        lambda pp: calls.append(pp) or peg_sort_key(pp))
    gs = GeneratingSet(Model.RD, 2, rd_generating_set(2).members)
    first = gs.sorted_members()
    assert first == sorted(gs.members, key=peg_sort_key)
    assert len(calls) == len(gs)
    first.clear()  # the list is the caller's own
    assert gs.sorted_members() == sorted(gs.members, key=peg_sort_key)
    assert len(calls) == len(gs)


def test_rd_inflate_step():
    assert str(rd_inflate_step(parse_peg("1+"), (1, 1))) == "1+ 2- 3+"
    assert str(rd_inflate_step(parse_peg("1+ 2- 3+"), (1, 3))) \
        == "1+ 4- 3+ 2- 5+"
    assert str(rd_inflate_step(parse_peg("1+ 2- 3+"), (2, 2))) \
        == "1+ 4- 3+ 2- 5+"


def test_rd_inflate_step_closure():
    # every k=2 member arises from the k=1 member by one step
    parent = parse_peg("1+ 2- 3+")
    children = {rd_inflate_step(parent, (i, j))
                for i in range(1, 4) for j in range(i, 4)}
    assert children == rd_generating_set(2).members


def test_is_generating():
    assert is_generating(Model.RD, 2, parse_peg("1+ 4- 3+ 2- 5+"))
    assert not is_generating(Model.RD, 1, parse_peg("1+"))
    assert not is_generating(Model.RD, 1, parse_peg("1+ 2+ 3+"))
    assert is_generating(Model.PRD, 2, parse_peg("2+ 1- 3+"))
    assert not is_generating(Model.PRD, 2, parse_peg("2. 1- 3+"))
    # clean compact at distance 2, but its strengthening 2+ 1- 3+ stays
    # within distance 2
    assert not is_generating(Model.PRD, 2, parse_peg("2+ 1. 3+"))
    # clean compact of length 3, at distance 3
    assert not is_generating(Model.PRD, 2, parse_peg("1+ 2- 3+"))
    assert is_generating(Model.RD, 0, parse_peg("1+"))


def test_ball_is_union_of_generator_grids():
    gens = generating_set(Model.RD, 1).members
    for n in (2, 3, 4, 5):
        for p in ball(Model.RD, 1, n):
            assert any(grid_member(g, p) for g in gens)
    gens = generating_set(Model.PRD, 2).members
    for p in ball(Model.PRD, 2, 4):
        assert any(grid_member(g, p) for g in gens)
