import pytest

from pegball import enumeration, inflation, reference
from pegball.distance import Model, ResourceLimitError, ball
from pegball.enumeration import (CountMethod, _class_level, count_ball,
                                 sequence)
from pegball.peg import _FROM_BULLETS, _MAX_STATE_VALUE


def test_frozen_sequences():
    for model, k, want in reference.BALL_COUNTS:
        assert sequence(Model(model), k, len(want)) == list(want)


def test_doctest_anchors():
    assert count_ball(Model.RD, 1, 3) == 4
    assert count_ball(Model.PRD, 2, 4, CountMethod.GRID) == 10
    assert count_ball(Model.PRD, 0, 5, CountMethod.AVOID) == 1
    assert sequence(Model.RD, 1, 4) == [1, 2, 4, 7]


def test_grid_sequence_builds_sub_peg_closure_once():
    inflation._sub_pegs.cache_clear()
    assert sequence(Model.RD, 3, 6, CountMethod.GRID) == \
        sequence(Model.RD, 3, 6)
    assert inflation._sub_pegs.cache_info().misses == 1


@pytest.mark.parametrize("model", [Model.RD, Model.PRD])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_methods_agree(model, k):
    for n in range(1, 8):
        bfs = count_ball(model, k, n, CountMethod.BFS)
        grid = count_ball(model, k, n, CountMethod.GRID)
        avoid = count_ball(model, k, n, CountMethod.AVOID)
        assert bfs == grid == avoid, (model, k, n)


@pytest.mark.parametrize("model,k", [(Model.RD, 0), (Model.RD, 1),
                                     (Model.RD, 2), (Model.PRD, 0),
                                     (Model.PRD, 1), (Model.PRD, 2),
                                     (Model.PRD, 3)])
def test_avoid_levels_are_bfs_balls(model, k):
    for n in range(9):
        assert {tuple(s.translate(_FROM_BULLETS))
                for s in _class_level(model, k, n)} == ball(model, k, n), n


def test_prd_k2_quadratic_law():
    for n in range(4, 11):
        want = reference.prd_k2_count(n)
        assert want == (n - 1) ** 2 + 1
        assert count_ball(Model.PRD, 2, n, CountMethod.GRID) == want
        assert count_ball(Model.PRD, 2, n, CountMethod.AVOID) == want


def test_sequence_matches_count_ball():
    got = sequence(Model.RD, 2, 6, CountMethod.GRID)
    assert got == [count_ball(Model.RD, 2, n, CountMethod.GRID)
                   for n in range(1, 7)]


def test_bad_arguments():
    with pytest.raises(ValueError):
        count_ball(Model.RD, -1, 3)
    with pytest.raises(ValueError):
        count_ball(Model.RD, 1, -1)
    assert count_ball(Model.RD, 1, 0) == 1  # the empty permutation
    assert sequence(Model.RD, 1, 0) == []


def test_resource_limits():
    # BFS inherits the table limit; the closed-class methods stop at 12
    with pytest.raises(ResourceLimitError):
        count_ball(Model.RD, 1, 10)
    with pytest.raises(ResourceLimitError):
        count_ball(Model.RD, 1, 13, CountMethod.GRID)
    with pytest.raises(ResourceLimitError):
        count_ball(Model.RD, 1, 13, CountMethod.AVOID)
    assert count_ball(Model.RD, 1, 12, CountMethod.GRID) \
        == count_ball(Model.RD, 1, 12, CountMethod.AVOID)


def test_avoid_limit_is_the_state_encoding():
    # the levels are peg states, so no limit lets AVOID past their length
    enumeration._CLASS_CACHE.pop((Model.RD, 1), None)
    with pytest.raises(ResourceLimitError) as exc:
        count_ball(Model.RD, 1, _MAX_STATE_VALUE + 1, CountMethod.AVOID,
                   limit=100)
    assert exc.value.limit == _MAX_STATE_VALUE
    # a sequence past the limit fails before it grows a level
    with pytest.raises(ResourceLimitError) as exc:
        sequence(Model.RD, 1, 90, CountMethod.AVOID, limit=100)
    assert exc.value.limit == _MAX_STATE_VALUE
    assert (Model.RD, 1) not in enumeration._CLASS_CACHE
    assert count_ball(Model.RD, 1, 13, CountMethod.AVOID, limit=13) \
        == count_ball(Model.RD, 1, 13, CountMethod.GRID, limit=13)
