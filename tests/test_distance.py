import hashlib
import itertools
import os
import random
import re
import stat
import sys
import zlib
from collections import Counter, deque
from dataclasses import replace
from math import factorial
from types import SimpleNamespace

import pytest

from pegball import reference
from pegball.basis import (peg_basis, peg_basis_bound, standard_basis,
                           standard_basis_bound)
from pegball.distance import (_PEG_DISTANCES, _READS, _SEARCHES,
                              _STANDARD_TABLES, DistanceTable, Model,
                              ResourceLimitError, TableKind, _frontier_bfs,
                              _mirror, _moves, _peg_distance,
                              _standard_search, _standard_table, ball,
                              breakpoints, build_table,
                              cache_path, clear_memory_cache, distance,
                              distance_bounded, distance_peg,
                              distance_peg_via_inflation, get_table,
                              lower_bound, pair_distance)
from pegball.enumeration import CountMethod, count_ball
from pegball.generators import generating_set, is_generating
from pegball.inflation import monotone_inflate
from pegball.peg import (PegPermutation, _peg_key, _peg_of_key, format_peg,
                         oriented_prefix_reversal, oriented_reversal,
                         parse_peg)
from pegball.perm import identity, parse_perm, prefix_reversal, reversal


@pytest.mark.parametrize("model,text,want", sorted(reference.DISTANCES))
def test_reference_distances(model, text, want):
    assert distance(Model(model), parse_perm(text)) == want


@pytest.mark.parametrize("model,text,want", sorted(reference.PEG_DISTANCES))
def test_reference_peg_distances(model, text, want):
    assert distance_peg(Model(model), parse_peg(text)) == want


def test_distance_basics():
    assert distance(Model.RD, ()) == 0
    assert distance(Model.RD, (1, 2, 3, 4)) == 0
    assert distance(Model.RD, (2, 1)) == 1
    assert distance(Model.PRD, (2, 1)) == 1
    assert distance(Model.PRD, (1, 3, 2)) == 3


def test_distance_resource_limits():
    with pytest.raises(ResourceLimitError):
        distance(Model.RD, tuple(range(10, 0, -1)))  # default limit is 9
    with pytest.raises(ResourceLimitError):
        distance(Model.RD, (5, 4, 3, 2, 1), limit=4)
    with pytest.raises(ResourceLimitError):
        distance(Model.RD, tuple(range(12, 0, -1)), limit=12)  # hard cap 11


def test_pair_distance():
    p = (3, 4, 1, 2)
    assert pair_distance(Model.RD, p, identity(4)) == distance(Model.RD, p)
    assert pair_distance(Model.RD, p, p) == 0
    assert pair_distance(Model.PRD, (2, 1, 3), (1, 2, 3)) == 1
    with pytest.raises(ValueError):
        pair_distance(Model.RD, (1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        pair_distance(Model.RD, (1, 1, 2), (1, 2, 1))
    with pytest.raises(ValueError):
        pair_distance(Model.RD, (1, 2, 3), (1, 2, 4))


def test_pair_distance_length_limit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no BFS may run past the length limit")

    monkeypatch.setattr(sys.modules[distance.__module__], "_frontier_bfs",
                        refuse)
    p = identity(12)
    with pytest.raises(ResourceLimitError, match=r"\(limit 9\)"):
        pair_distance(Model.RD, p, p[::-1])


def test_breakpoints():
    assert breakpoints(parse_peg("2- 3+ 1. 4+")) == 3
    assert breakpoints(parse_peg("1+ 2+ 3+")) == 0
    assert breakpoints(parse_peg("")) == 0


def test_lower_bound():
    assert lower_bound(Model.PRD, parse_peg("2. 1+")) == 2
    assert lower_bound(Model.RD, parse_peg("2+ 5- 4+ 1. 3-")) == 2
    assert lower_bound(Model.RD, parse_peg("1+")) == 0
    # admissible against the frozen exact values
    for model, text, want in reference.PEG_DISTANCES:
        assert lower_bound(Model(model), parse_peg(text)) <= want


def test_distance_bounded():
    assert distance_bounded(Model.RD, (4, 5, 6, 1, 2, 3), 3) == 3
    assert distance_bounded(Model.PRD, (1, 3, 2), 1) is None
    assert distance_bounded(Model.RD, (1, 2, 3), 0) == 0
    # agrees with BFS wherever both run
    for model, text, want in reference.DISTANCES:
        assert distance_bounded(Model(model), parse_perm(text), want) == want
        if want:
            assert distance_bounded(Model(model), parse_perm(text), want - 1) is None


@pytest.mark.parametrize("model", list(Model))
def test_distance_bounded_matches_tables_to_length_7(model):
    for n in range(8):
        for s, d in _standard_table(model, n).items():
            p = tuple(s)
            assert distance_bounded(model, p, d) == d, p
            assert d == 0 or distance_bounded(model, p, d - 1) is None, p


def _meet_in_the_middle(model, p):
    """Distance of p, by growing a ball around p and one around the identity,
    the one of smaller radius first, until they meet: while the balls of
    radii a and b are disjoint the distance exceeds a + b."""
    balls = [{p: 0}, {identity(len(p)): 0}]
    frontiers = [[p], [identity(len(p))]]
    radii = [0, 0]
    while not balls[0].keys() & balls[1].keys():
        side = 0 if radii[0] <= radii[1] else 1
        radii[side] += 1
        layer = []
        for s in frontiers[side]:
            for q in _standard_neighbours(model, s):
                if q not in balls[side]:
                    balls[side][q] = radii[side]
                    layer.append(q)
        frontiers[side] = layer
    common = balls[0].keys() & balls[1].keys()
    return min(balls[0][q] + balls[1][q] for q in common)


def _inflate(peg, sizes):
    """peg with each entry grown into a monotone run of the given size, the
    run increasing for + and decreasing for -."""
    pp = parse_peg(peg)
    starts = {v: 1 + sum(s for w, s in zip(pp.base, sizes) if w < v)
              for v in pp.base}
    out = []
    for v, d, size in zip(pp.base, pp.decorations, sizes):
        run = list(range(starts[v], starts[v] + size))
        out += run[::-1] if d.value == "-" else run
    return tuple(out)


@pytest.mark.parametrize("model,peg,sizes", [
    ("rd", "1+ 2- 3+", (4, 5, 3)),
    ("rd", "1+ 4- 3+ 2- 5+", (3, 2, 4, 3, 2)),
    ("rd", "1+ 4+ 2- 3- 5+", (2, 4, 3, 3, 4)),
    ("rd", "1+ 3- 4- 2+ 5+", (1, 3, 5, 4, 3)),
    ("prd", "2+ 1- 3+", (5, 4, 4)),
    ("prd", "3- 1+ 2- 4+", (3, 4, 3, 3)),
    ("prd", "2+ 3- 1- 4+", (4, 4, 4, 3)),
    ("prd", "1- 3+ 2+ 4+", (2, 5, 4, 5)),
])
def test_distance_bounded_on_long_inflations(model, peg, sizes):
    gens = (reference.RD_GENERATING if model == "rd"
            else reference.PRD_GENERATING)
    assert any(peg in members for members in gens.values())
    m, p = Model(model), _inflate(peg, sizes)
    assert 12 <= len(p) <= 16
    d = _meet_in_the_middle(m, p)
    assert distance_bounded(m, p, d) == d
    assert distance_bounded(m, p, d + 2) == d
    assert distance_bounded(m, p, d - 1) is None


def _reference_bounded(model, p, bound):
    """The IDA* that builds every child: each node rebuilds its frame and
    breaks and tests every block, in (i, j) order."""
    n, rd = len(p), model is Model.RD
    if p == identity(n):
        return 0
    left = 0 if rd else -1
    blocks = [(i, j) for i in (range(n) if rd else (0,))
              for j in range(i + 2, n + 1)]

    def dfs(s, r):
        f = (left, *s, n + 1)
        brk = [abs(a - b) != 1 for a, b in zip(f, f[1:])]
        room = (2 * r - 2 if rd else r) - sum(brk)
        for i, j in blocks:
            delta = ((abs(f[i] - f[j]) != 1) + (abs(f[i + 1] - f[j + 1]) != 1)
                     - brk[i] - brk[j])
            if delta <= room and (r == 1 or dfs(s[:i] + s[i:j][::-1] + s[j:],
                                                r - 1)):
                return True
        return False

    bp = sum(abs(a - b) != 1 for a, b in zip((left, *p), (*p, n + 1)))
    for limit in range(max((bp + 1) // 2 if rd else bp - 1, 1), bound + 1):
        if dfs(p, limit):
            return limit
    return None


def _assert_bounded_matches_reference(model, p, d_max):
    d = _reference_bounded(model, p, d_max)
    assert d is not None, p
    for bound in range(d + 2):
        assert (distance_bounded(model, p, bound)
                == _reference_bounded(model, p, bound)), (p, bound)


@pytest.mark.parametrize("model,k_max", [(Model.RD, 2), (Model.PRD, 3)])
def test_distance_bounded_matches_reference_on_long_inflations(model, k_max):
    # nearly every node meets the bound with no room to spare (room < 0)
    rng = random.Random(18)
    for k in range(k_max + 1):
        for pp in generating_set(model, k).sorted_members():
            for _ in range(6):
                length = rng.randint(12, 20)
                cuts = sorted(rng.sample(range(1, length), len(pp) - 1))
                p = monotone_inflate(pp, [b - a for a, b in
                                          zip([0, *cuts], [*cuts, length])])
                _assert_bounded_matches_reference(model, p, k)


@pytest.mark.parametrize("model", list(Model))
def test_distance_bounded_matches_reference_on_long_scrambles(model):
    # the breakpoint bound is often short of the distance here, so deeper
    # limits search nodes with room >= 0
    rng = random.Random(18)
    for _ in range(20):
        p = list(range(1, rng.randint(12, 16) + 1))
        n = len(p)
        for _ in range(4):
            i, j = (sorted(rng.sample(range(n), 2)) if model is Model.RD
                    else (0, rng.randint(1, n - 1)))
            p[i:j + 1] = p[i:j + 1][::-1]
        _assert_bounded_matches_reference(model, tuple(p), 4)


def test_ball():
    assert sorted(ball(Model.RD, 1, 3)) == \
        [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    assert ball(Model.PRD, 0, 2) == {(1, 2)}
    for model, k, seq in reference.BALL_COUNTS:
        for n, want in enumerate(seq, start=1):
            if n <= 6:
                assert len(ball(Model(model), k, n)) == want


def _assert_bellman(dist, states, goals, neighbours):
    """dist holds exactly states, 0 at the goals and 1 + the least neighbour
    distance elsewhere: the unique solution, so the exact distances to the
    goal of each component when it holds one."""
    assert dist.keys() == set(states)
    for s in states:
        assert dist[s] == (0 if s in goals else
                           1 + min(dist[t] for t in neighbours(s))), s


def _standard_neighbours(model, p):
    n = len(p)
    if model is Model.RD:
        return [reversal(p, i, j)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [prefix_reversal(p, j) for j in range(2, n + 1)]


@pytest.mark.parametrize("model", list(Model))
def test_frontier_bfs_matches_per_state_bfs(model):
    # the engine relabels values; the Bellman check moves positions
    for n in range(9):
        *_, table = _standard_search(model, identity(n))  # turns bottom-up
        _assert_bellman({tuple(s): d for s, d in table.items()},
                        itertools.permutations(identity(n)),
                        {identity(n)}, lambda p: _standard_neighbours(model, p))
        # unfolded: the table search takes the mirror for reversals
        *_, top_down = _frontier_bfs([bytes(identity(n))], _moves(model, n))
        assert top_down == table, n


def _positional_bfs(model, p):
    """Distances from p by moves of positions, one state at a time."""
    dist, queue = {p: 0}, deque([p])
    while queue:
        s = queue.popleft()
        for t in _standard_neighbours(model, s):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return dist


@pytest.mark.parametrize("model", list(Model))
def test_pair_distance_matches_positional_bfs(model):
    for n in range(6):
        perms = list(itertools.permutations(identity(n)))
        for p in perms:
            want = _positional_bfs(model, p)
            assert [pair_distance(model, p, q) for q in perms] == \
                [want[q] for q in perms], p
    # values check_permutation accepts: floats and True compare equal to ints
    assert pair_distance(model, (2.0, 1.0), (1, 2)) == 1
    assert pair_distance(model, (1, 2), [2.0, 1.0]) == 1
    assert pair_distance(model, (True,), (1,)) == 0


def _oriented_neighbours(model, pp):
    n = len(pp)
    if model is Model.RD:
        return [oriented_reversal(pp, i, j)
                for i in range(1, n + 1) for j in range(i, n + 1)]
    return [oriented_prefix_reversal(pp, j) for j in range(1, n + 1)]


@pytest.mark.parametrize("model", list(Model))
def test_peg_components_satisfy_bellman(model):
    # a miss relabels values; the Bellman check moves positions, across the
    # components, which keep bullet positions, not bullet values
    for n in range(5):
        pegs = [PegPermutation(base, decs)
                for base in itertools.permutations(identity(n))
                for decs in itertools.product("+-.", repeat=n)]
        goals, dist = set(), {}
        for decs in itertools.product("+.", repeat=n):
            goal = PegPermutation(identity(n), decs)
            bullets = [d == "." for d in decs]
            # one miss merges exactly the pegs with bullets at the goal's
            # positions into the memo
            clear_memory_cache()
            assert _peg_distance(model, goal._key) == 0
            comp = {_peg_of_key(key): d
                    for key, d in _PEG_DISTANCES[model].items()}
            assert comp.keys() == {pp for pp in pegs if bullets == [
                d == "." for d in pp.decorations]}, goal
            goals.add(goal)
            dist.update(comp)
        _assert_bellman(dist, pegs, goals,
                        lambda pp: _oriented_neighbours(model, pp))


@pytest.mark.parametrize("model", list(Model))
def test_ball_is_table_down_set(model):
    for n in range(1, 8):
        table = _standard_table(model, n)
        for k in range(max(table.values()) + 1):
            assert ball(model, k, n) == {tuple(s) for s, d in table.items()
                                         if d <= k}


# sha256 of build_table(model, n).data for n = 0..8, as recorded before the
# searches were folded by the reversal mirror
TABLE_SHA256 = {
    "rd": (
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        "535308a31c85f387e8057951f6fe4294204d72c95311bd5bfb6d9d2d8c4d68f8",
        "0ffb3cd50dafecc2548a5c673cdc682f29248f379f31d20765df2b67fcbd1e25",
        "087e5e3d879b66cfd6c23f77b073ce9b3b2338c2ba913500912c2b0f5b436fd9",
        "847ecf71795ee66b50ba6e6a7bc5bc1a43827529ef028228d6c6e491f27a53d5",
        "2fe7ff60bcadff613655ad52904718c53e64aba8078718bfebc31a10debc99b9",
        "4b52a0639cd9c1f3c3305ccea45ffa76544e7f6f727a00afaec68af9584b188a",
    ),
    "prd": (
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        "f58eebac8e2cf8d5b72b953ae30fd33108835205ae64025e482c95846d99a390",
        "2387b3a30a86b09be150e560667acf6ee8c6997a6fbcf2c721e65c33a9ff8cb2",
        "f36e2b2ae1ae0a37ce3df8f01413638f85f588054f310a29d137ac85bcdccd6c",
        "e84d236658bbae696f153cd1ed7e3e7ba8acdf1281cd730733c88a6b87ebc762",
        "57b6c45ab88d1e9692fb8094184cb8c463025ed3ae9a3e175361edb0be696aed",
        "ec30fa2a001183c6557a908732d90eb2e70c3146a6ee5f92a7a27881aaedc3ec",
    ),
}


# and for n = 9, recorded before tables were searched only as deep as read
TABLE_SHA256_N9 = {
    "rd": "a0be774f5bc7fb1ac3040ee6ef0f2e031e592d464dbbee524139208be801a90f",
    "prd": "916806a7e456144438cfc85fac9f79e61fb86b3b57dd0166f51f3e71ed2e9ecb",
}


@pytest.mark.parametrize("model", list(Model))
def test_table_digests(model):
    for n, want in enumerate(TABLE_SHA256[model.value]):
        assert hashlib.sha256(build_table(model, n).data).hexdigest() == want, n


def test_reversal_mirror_maps_the_moves_onto_the_moves():
    for n in range(8):
        states = list(map(bytes, itertools.permutations(identity(n))))
        mirror = _mirror(Model.RD, n)
        # m(s) = w0 s w0: position i holds n+1 minus the entry at n+1-i
        assert list(mirror(states)) == [bytes(n + 1 - v for v in reversed(s))
                                        for s in states]
        assert list(mirror([bytes(identity(n))])) == [bytes(identity(n))]
        moves = _moves(Model.RD, n)
        images = {tuple(move(states)) for move in moves}
        conjugates = {tuple(mirror(move(list(mirror(states)))))
                      for move in moves}
        assert len(images) == len(moves) and conjugates == images, n


def test_prefix_reversals_get_no_mirror():
    assert all(_mirror(Model.PRD, n) is None for n in range(12))
    # conjugating a prefix reversal by w0 gives a suffix reversal, a move
    # only when it reverses everything
    for n in range(3, 8):
        states = list(map(bytes, itertools.permutations(identity(n))))
        mirror = _mirror(Model.RD, n)
        moves = _moves(Model.PRD, n)
        images = {tuple(move(states)) for move in moves}
        conjugates = {tuple(mirror(move(list(mirror(states)))))
                      for move in moves}
        assert len(images) == len(moves) and len(conjugates & images) == 1, n
    # and the mirror pair 132, 213 lies at different distances
    assert distance(Model.PRD, (1, 3, 2)) == 3
    assert distance(Model.PRD, (2, 1, 3)) == 1


@pytest.mark.parametrize("model", list(Model))
def test_layer_sizes_n9(model):
    layers = Counter(_standard_table(model, 9).values())
    got = tuple(layers[d] for d in range(len(layers)))
    assert got == reference.LAYER_SIZES_N9[model.value]


def test_peg_ball():
    goals = ball(Model.RD, 0, 2, kind=TableKind.PEG)
    assert {format_peg(q) for q in goals} == {"1+ 2+", "1+ 2.", "1. 2+", "1. 2."}
    assert len(ball(Model.RD, 1, 2, kind=TableKind.PEG)) == 12


@pytest.mark.parametrize("model", list(Model))
def test_peg_ball_is_distance_down_set(model):
    for n in range(1, 5):
        pegs = [PegPermutation(base, decs)
                for base in itertools.permutations(identity(n))
                for decs in itertools.product("+-.", repeat=n)]
        for k in range(4):
            assert ball(model, k, n, TableKind.PEG) == \
                {pp for pp in pegs if distance_peg(model, pp) <= k}, (n, k)


@pytest.mark.parametrize("model", list(Model))
def test_peg_table_order(model):
    for n in range(5):
        want = bytes(distance_peg(model, PegPermutation(b, d))
                     for b in itertools.permutations(identity(n))
                     for d in itertools.product("+-.", repeat=n))
        assert build_table(model, n, TableKind.PEG).data == want, n


def _read(table):
    """A standard table's entries by permutation: rank order is lexicographic."""
    return dict(zip(itertools.permutations(identity(table.n)), table.data))


def test_build_table_and_lookup():
    t = build_table(Model.RD, 4)
    assert t.model is Model.RD and t.kind is TableKind.STANDARD and t.n == 4
    assert t.header() == (f"PEGBALL-DIST v2 rd standard 4 "
                          f"{zlib.crc32(t.data):08x}")
    assert _read(t)[3, 4, 1, 2] == 2
    assert _read(t)[1, 2, 3, 4] == 0
    assert max(t.data) == 3


def test_table_save_load_round_trip(tmp_path):
    t = build_table(Model.PRD, 3)
    path = tmp_path / "t.dist"
    t.save(path)
    assert path.read_bytes().startswith(b"PEGBALL-DIST v2 prd standard 3 ")
    u = DistanceTable.load(path)
    assert u.model is t.model and u.kind is t.kind and u.n == t.n
    assert _read(u) == _read(t) == {
        tuple(s): d for s, d in _standard_table(Model.PRD, 3).items()}


def test_table_save_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        build_table(Model.RD, 3).save(tmp_path / "t.dist")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "t.dist").stat().st_mode) == 0o644
    assert [f.name for f in tmp_path.iterdir()] == ["t.dist"]


def test_table_load_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.dist"
    path.write_bytes(b"PEGBALL-DIST v1 rd standard 3\nxx")
    with pytest.raises(ValueError):
        DistanceTable.load(path)
    path.write_bytes(b"not a table")
    with pytest.raises(ValueError):
        DistanceTable.load(path)


def test_table_load_checks_identity_and_neighbour(tmp_path):
    # each corrupt file is signed with its own checksum, so the check named
    # in the message is the one that refuses it, and get_table rebuilds it
    for table, probe in ((build_table(Model.RD, 4), 6),
                         (build_table(Model.PRD, 2, TableKind.PEG), 3)):
        path = cache_path(tmp_path, table.model, table.kind, table.n)
        table.save(path)
        assert DistanceTable.load(path).data == table.data
        corrupt = []
        for rank in (0, probe):
            raw = bytearray(table.data)
            raw[rank] ^= 1
            corrupt.append((bytes(raw), "identity or neighbour entry wrong"))
        corrupt.append((table.data[:-1], "table size"))
        for data, message in corrupt:
            replace(table, data=data).save(path)
            with pytest.raises(ValueError, match=message):
                DistanceTable.load(path)
            clear_memory_cache()
            assert get_table(table.model, table.n, table.kind,
                             cache_dir=tmp_path).data == table.data
            assert DistanceTable.load(path).data == table.data


def test_get_table_rebuilds_flipped_cache_file(tmp_path):
    clear_memory_cache()
    t = get_table(Model.PRD, 5, cache_dir=tmp_path)
    path = cache_path(tmp_path, Model.PRD, TableKind.STANDARD, 5)
    raw = bytearray(path.read_bytes())
    raw[len(t.header()) + 1] = 3  # the identity's entry
    path.write_bytes(bytes(raw))
    clear_memory_cache()
    assert get_table(Model.PRD, 5, cache_dir=tmp_path).data == t.data
    assert DistanceTable.load(path).data == t.data


def test_distance_rebuilds_cache_file_with_flipped_middle_byte(tmp_path):
    clear_memory_cache()
    p = (4, 2, 5, 6, 1, 3)  # rank 400 in lexicographic order
    assert distance(Model.RD, p, cache_dir=tmp_path) == 4
    path = cache_path(tmp_path, Model.RD, TableKind.STANDARD, 6)
    raw = bytearray(path.read_bytes())
    header_len = raw.index(b"\n") + 1
    raw[header_len + 400] = 3
    path.write_bytes(bytes(raw))
    clear_memory_cache()
    assert distance(Model.RD, p, cache_dir=tmp_path) == 4
    assert DistanceTable.load(path).data == build_table(Model.RD, 6).data
    # a file in the format before the checksum is rebuilt too
    old = path.read_bytes()
    path.write_bytes(b"PEGBALL-DIST v1 rd standard 6\n" + old[header_len:])
    with pytest.raises(ValueError):
        DistanceTable.load(path)
    clear_memory_cache()
    assert distance(Model.RD, p, cache_dir=tmp_path) == 4
    assert path.read_bytes() == old


def test_get_table_memo_per_cache_dir(tmp_path):
    clear_memory_cache()
    get_table(Model.RD, 4, cache_dir=tmp_path / "a")
    get_table(Model.RD, 4)
    get_table(Model.RD, 4, cache_dir=tmp_path / "b")
    for d in ("a", "b"):
        assert cache_path(tmp_path / d, Model.RD, TableKind.STANDARD, 4).exists()


def test_get_table_uses_cache_dir(tmp_path):
    clear_memory_cache()
    t = get_table(Model.RD, 4, cache_dir=tmp_path)
    path = cache_path(tmp_path, Model.RD, TableKind.STANDARD, 4)
    assert path.name == "rd-standard-4.dist"
    assert path.exists()
    # a corrupt cache file is silently rebuilt
    clear_memory_cache()
    path.write_bytes(b"garbage")
    u = get_table(Model.RD, 4, cache_dir=tmp_path)
    assert _read(u)[3, 4, 1, 2] == _read(t)[3, 4, 1, 2] == 2


def test_distance_with_cache_dir(tmp_path):
    clear_memory_cache()
    assert distance(Model.RD, (3, 4, 1, 2), cache_dir=tmp_path) == 2
    assert cache_path(tmp_path, Model.RD, TableKind.STANDARD, 4).exists()


@pytest.mark.parametrize("model", list(Model))
def test_distance_with_cache_dir_matches_bfs(model, tmp_path):
    for n in range(8):
        *_, want = _standard_search(model, identity(n))
        # the first pass writes the file, the second reads it back
        for _ in range(2):
            clear_memory_cache()
            assert all(distance(model, tuple(s), cache_dir=tmp_path) == d
                       for s, d in want.items()), n
        assert cache_path(tmp_path, model, TableKind.STANDARD, n).exists()


def test_distance_reads_warm_cache_without_bfs(tmp_path, monkeypatch):
    clear_memory_cache()
    assert distance(Model.PRD, (3, 1, 4, 2, 5), cache_dir=tmp_path) == 4
    clear_memory_cache()

    def no_bfs(*args, **kwargs):
        raise AssertionError("table rebuilt despite a warm cache file")

    monkeypatch.setattr(sys.modules[distance.__module__], "_frontier_bfs",
                        no_bfs)
    assert distance(Model.PRD, (3, 1, 4, 2, 5), cache_dir=tmp_path) == 4
    assert distance(Model.PRD, (5, 4, 3, 2, 1), cache_dir=tmp_path) == 1


def test_cache_file_never_replaces_memory_table(tmp_path):
    clear_memory_cache()
    get_table(Model.RD, 5, cache_dir=tmp_path)
    table = _standard_table(Model.RD, 5)
    get_table(Model.RD, 5, cache_dir=tmp_path)
    assert distance(Model.RD, (2, 1, 3, 4, 5), cache_dir=tmp_path / "b") == 1
    assert _standard_table(Model.RD, 5) is table
    # a valid file fills a partial table in place and ends its search
    whole = dict(table)
    clear_memory_cache()
    assert distance(Model.RD, (2, 1, 3, 4, 5)) == 1
    table = _STANDARD_TABLES[Model.RD, 5]
    assert len(table) == 11 and (Model.RD, 5) in _SEARCHES
    get_table(Model.RD, 5, cache_dir=tmp_path)
    assert _standard_table(Model.RD, 5) is table and table == whole
    assert (Model.RD, 5) not in _SEARCHES


def test_get_table_fills_partial_table_from_file_without_search(
        tmp_path, monkeypatch):
    for model in Model:
        get_table(model, 6, cache_dir=tmp_path)
    clear_memory_cache()
    for model in Model:
        assert distance(model, (2, 1, 3, 4, 5, 6)) == 1
    partial = {model: _STANDARD_TABLES[model, 6] for model in Model}
    monkeypatch.setattr(sys.modules[distance.__module__], "_frontier_bfs",
                        refuse_search)
    for model in Model:
        assert distance(model, (1, 2, 3, 4, 5, 6)) == 0  # no search started
        want = build_table(model, 6)
        assert get_table(model, 6, cache_dir=tmp_path).data == want.data
        assert _standard_table(model, 6) is partial[model]
        assert bytes(map(partial[model].__getitem__, map(
            bytes, itertools.permutations(identity(6))))) == want.data
        assert distance(model, (6, 5, 4, 3, 2, 1), cache_dir=tmp_path) == \
            distance(model, (6, 5, 4, 3, 2, 1))


def refuse_search(*args, **kwargs):
    raise AssertionError("a search started")


def _down_set(model, n, depth):
    *_, whole = _standard_search(model, identity(n))
    return {s: d for s, d in whole.items() if d <= depth}


@pytest.mark.parametrize("model", list(Model))
def test_near_read_searches_only_to_its_depth(model):
    clear_memory_cache()
    p = tuple(range(9, 0, -1))  # one move from the identity
    assert distance(model, p) == 1
    table = _STANDARD_TABLES[model, 9]
    # rd: the identity and 36 reversals; prd: the identity and 8 prefixes
    assert len(table) == (37 if model is Model.RD else 9)
    assert (model, 9) in _SEARCHES
    near = dict(table)
    # a far read extends the same dict
    far = (2, 4, 6, 8, 1, 3, 5, 7, 9)
    d = distance(model, far)
    assert d == distance_bounded(model, far, d) == (5 if model is Model.RD
                                                    else 8)
    assert _STANDARD_TABLES[model, 9] is table
    farther = dict(table)
    # a whole table completes it, and ends the search
    data = build_table(model, 9).data
    assert _standard_table(model, 9) is table and len(table) == factorial(9)
    assert (model, 9) not in _SEARCHES
    assert hashlib.sha256(data).hexdigest() == TABLE_SHA256_N9[model.value]
    # each partial table was the ball of its read's radius, exactly
    for partial, radius in ((near, 1), (farther, d)):
        assert partial == {s: e for s, e in table.items() if e <= radius}
    assert distance(model, p) == 1
    clear_memory_cache()
    assert distance(model, p) == 1
    clear_memory_cache()
    assert not _SEARCHES and not _STANDARD_TABLES


@pytest.mark.parametrize("model", list(Model))
def test_partial_table_holds_whole_layers(model):
    # each read completes layers, and only as many as its state needs
    n = 7
    *_, whole = _standard_search(model, identity(n))
    by_depth = sorted(whole.items(), key=lambda item: (item[1], item[0]))
    clear_memory_cache()
    rng = random.Random(7)
    for depth in range(max(whole.values()) + 1):
        states = [s for s, d in by_depth if d == depth]
        for s in rng.sample(states, min(3, len(states))):
            assert distance(model, tuple(s)) == depth
            assert _STANDARD_TABLES[model, n] == _down_set(model, n, depth)


def test_invalid_read_never_advances_a_search(monkeypatch):
    clear_memory_cache()
    assert distance(Model.RD, identity(9)) == 0
    table = _STANDARD_TABLES[Model.RD, 9]
    assert len(table) == 1
    for bad in ((1, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 6, 7, 8),
                (2, 1, 3, 4, 5, 6, 7, 8, 10), (2.5, 1, 3, 4, 5, 6, 7, 8, 9)):
        with pytest.raises(ValueError, match="not a permutation"):
            distance(Model.RD, bad)
        assert len(table) == 1, bad
    with pytest.raises(ResourceLimitError):
        distance(Model.RD, (2, 1, 3, 4, 5, 6, 7, 8, 9), limit=8)
    assert len(table) == 1
    # nor starts one
    monkeypatch.setattr(sys.modules[distance.__module__], "_frontier_bfs",
                        refuse_search)
    with pytest.raises(ValueError, match="not a permutation"):
        distance(Model.PRD, (1, 1, 2, 3, 4, 5, 6, 7, 8))
    assert (Model.PRD, 9) not in _STANDARD_TABLES


def test_interrupted_search_drops_its_table(monkeypatch):
    class Interrupt(BaseException):  # as KeyboardInterrupt is
        pass

    module = sys.modules[distance.__module__]
    real_moves = module._moves
    calls = []

    def interrupted_moves(model, n, kind=TableKind.STANDARD):
        first, *rest = real_moves(model, n, kind)

        def move(states):
            calls.append(n)
            if len(calls) == 2:  # the first move of the second layer
                raise Interrupt
            return first(states)
        return [move, *rest]

    clear_memory_cache()
    monkeypatch.setattr(module, "_moves", interrupted_moves)
    near, far = (2, 1, 3, 4, 5, 6), (2, 4, 6, 1, 3, 5)
    assert distance(Model.RD, near) == 1
    assert distance(Model.RD, near, cache_dir=None) == 1
    with pytest.raises(Interrupt):
        distance(Model.RD, far)
    assert (Model.RD, 6) not in _STANDARD_TABLES
    assert (Model.RD, 6) not in _SEARCHES
    assert not any(key[:2] == (Model.RD, 6) for key in _READS)
    monkeypatch.setattr(module, "_moves", real_moves)
    d = distance(Model.RD, far)
    assert d == distance_bounded(Model.RD, far, 6) and d > 1
    assert distance(Model.RD, near) == 1
    assert _STANDARD_TABLES[Model.RD, 6] == _down_set(Model.RD, 6, d)


def test_interrupted_fill_drops_its_table(tmp_path, monkeypatch):
    get_table(Model.PRD, 6, cache_dir=tmp_path)
    clear_memory_cache()
    assert distance(Model.PRD, (2, 1, 3, 4, 5, 6)) == 1
    module = sys.modules[distance.__module__]
    real_permutations = module.permutations

    def interrupted_permutations(values):
        yield from itertools.islice(real_permutations(values), 100)
        raise MemoryError

    monkeypatch.setattr(module, "permutations", interrupted_permutations)
    with pytest.raises(MemoryError):  # the file fills the partial table
        get_table(Model.PRD, 6, cache_dir=tmp_path)
    assert (Model.PRD, 6) not in _STANDARD_TABLES
    assert (Model.PRD, 6) not in _SEARCHES and not _READS
    monkeypatch.setattr(module, "permutations", real_permutations)
    far = (6, 5, 4, 3, 2, 1)
    assert distance(Model.PRD, far) == distance_bounded(Model.PRD, far, 9)


def test_distance_env_cache(tmp_path, monkeypatch):
    clear_memory_cache()
    monkeypatch.setenv("PEGBALL_CACHE", str(tmp_path))
    assert distance(Model.RD, (3, 4, 1, 2)) == 2
    assert cache_path(tmp_path, Model.RD, TableKind.STANDARD, 4).exists()


def test_warm_distance_error_contract(monkeypatch):
    assert distance(Model.RD, (1, 2, 3, 4)) == 0  # warms n = 4
    for bad in ((1, 1, 2, 3), (1, 2, 3, 5), (0, 1, 2, 3)):
        with pytest.raises(ValueError,
                           match=re.escape(f"not a permutation of 1..4: {bad!r}")):
            distance(Model.RD, bad)
    assert distance(Model.RD, (1,)) == 0
    with pytest.raises(ValueError):
        distance(Model.RD, ([1],))
    with pytest.raises(ResourceLimitError):
        distance(Model.RD, (2, 1, 3, 4), limit=3)
    # a table warmed above the default limit does not lift it; an n = 10
    # table would take gigabytes, so the default is lowered to show this
    monkeypatch.setattr(sys.modules[distance.__module__],
                        "DEFAULT_LIMIT_STANDARD", 4)
    assert distance(Model.RD, (2, 1, 3, 4, 5), limit=5) == 1
    with pytest.raises(ResourceLimitError):
        distance(Model.RD, (2, 1, 3, 4, 5))
    assert distance(Model.RD, (2, 1, 3, 4, 5), limit=5) == 1


def test_warm_distance_takes_any_sequence():
    p = (3, 1, 4, 2, 5)
    want = distance(Model.PRD, p)
    assert distance(Model.PRD, list(p)) == want
    assert distance(Model.PRD, iter(p)) == want
    assert distance(Model.PRD, (x for x in p)) == want
    with pytest.raises(ValueError):
        distance(Model.PRD, (x for x in (3, 1, 4, 2, 2)))


def test_distance_input_contract():
    # the same answers and errors from a cold table (a miss runs every
    # check) and from the warm tables the first pass built
    clear_memory_cache()
    for _ in range(2):
        assert distance(Model.RD, [3, 4, 1, 2]) == 2
        assert distance(Model.RD, (True,)) == 0
        assert distance(Model.PRD, (2.0, 1.0)) == 1
        assert distance(Model.RD, ()) == 0
        for bad in ((1, 1), (0, 1), (256,), ("a",), ([1],)):
            with pytest.raises(ValueError, match=re.escape(
                    f"not a permutation of 1..{len(bad)}: {bad!r}")):
                distance(Model.RD, bad)
        with pytest.raises(ResourceLimitError):
            distance(Model.RD, tuple(range(12, 0, -1)))


@pytest.mark.parametrize("model", list(Model))
def test_warm_distance_peg_matches_table(model):
    clear_memory_cache()
    for n in range(5):
        table = build_table(model, n, TableKind.PEG)  # warms every component
        got = bytes(distance_peg(model, PegPermutation(b, d))
                    for b in itertools.permutations(identity(n))
                    for d in itertools.product("+-.", repeat=n))
        assert got == table.data, n


def test_warm_reads_skip_checks_and_environment(monkeypatch):
    module = sys.modules[distance.__module__]
    # searches the n = 5 table out to depth 4, the depth of (3, 1, 4, 2, 5)
    assert distance(Model.PRD, (2, 1, 3, 5, 4)) == 4
    # warms the pegs with their bullet in the first position
    want = distance_peg(Model.RD, parse_peg("2. 1- 3+"))

    class Refused(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Refused

    monkeypatch.setattr(module, "check_permutation", refuse)
    monkeypatch.setattr(module, "os",
                        SimpleNamespace(environ=SimpleNamespace(get=refuse)))
    monkeypatch.setattr(module, "_effective_limit", refuse)
    monkeypatch.setattr(module, "_frontier_bfs", refuse)
    assert distance(Model.PRD, (3, 1, 4, 2, 5)) == 4
    assert distance_peg(Model.RD, parse_peg("2. 1- 3+")) == want
    assert distance_peg(Model.RD, parse_peg("3. 1- 2+")) == 3
    with pytest.raises(Refused):
        distance(Model.PRD, (3, 1, 4, 2, 6))


@pytest.mark.parametrize("model", list(Model))
def test_warm_distance_peg_encodes_and_searches_nothing(model, monkeypatch):
    pp = parse_peg("3+ 1- 4. 2+")
    want = distance_peg(model, pp)
    moved = oriented_reversal(pp, 1, 2)  # decoded from a state, carrying it
    want_moved = distance_peg(model, parse_peg(str(moved)))

    def refuse(*args, **kwargs):
        raise AssertionError("a warm peg distance encoded or searched")

    monkeypatch.setattr(sys.modules[PegPermutation.__module__], "_peg_key",
                        refuse)
    monkeypatch.setattr(sys.modules[distance.__module__], "_peg_key", refuse)
    monkeypatch.setattr(sys.modules[distance.__module__], "_frontier_bfs",
                        refuse)
    assert distance_peg(model, pp) == want
    assert distance_peg(model, moved) == want_moved


def test_long_peg_builds_and_refuses_only_its_distance():
    base = tuple(range(100, 0, -1))
    decs = ("-", ".", "+", "-") * 25
    pp = PegPermutation(base, decs)
    text = " ".join(f"{v}{d}" for v, d in zip(base, decs))
    assert str(pp) == format_peg(pp) == text and len(pp) == 100
    assert parse_peg(text) == pp and hash(parse_peg(text)) == hash(pp)
    assert {pp: 1}[PegPermutation(list(base), "".join(decs))] == 1
    with pytest.raises(ResourceLimitError):
        distance_peg(Model.RD, pp)
    with pytest.raises(ResourceLimitError):
        distance_peg(Model.PRD, pp, limit=200)
    with pytest.raises(ValueError, match="at most 84 entries"):
        pp._key
    assert str(pp) == text  # a failed encoding leaves the peg as it was


def test_get_table_applies_the_limit_before_reading(tmp_path, monkeypatch):
    clear_memory_cache()
    n = 10
    data = bytearray(factorial(n))
    data[factorial(n - 1)] = 1  # passes every check load makes
    DistanceTable(Model.PRD, TableKind.STANDARD, n, bytes(data)).save(
        cache_path(tmp_path, Model.PRD, TableKind.STANDARD, n))
    assert DistanceTable.load(
        cache_path(tmp_path, Model.PRD, TableKind.STANDARD, n)).n == n
    get_table(Model.PRD, 3, TableKind.PEG, cache_dir=tmp_path)
    loads = []
    real_load = DistanceTable.load.__func__

    def recording_load(cls, path):
        loads.append(path)
        return real_load(cls, path)

    monkeypatch.setattr(DistanceTable, "load", classmethod(recording_load))
    with pytest.raises(ResourceLimitError):
        get_table(Model.PRD, n, cache_dir=tmp_path)
    with pytest.raises(ResourceLimitError):
        get_table(Model.PRD, 3, TableKind.PEG, cache_dir=tmp_path, limit=2)
    assert loads == []
    assert (Model.PRD, n) not in _STANDARD_TABLES
    assert not any(key[1] == n for key in _READS)


def test_clear_memory_cache_clears_read_memos(tmp_path, monkeypatch):
    module = sys.modules[distance.__module__]
    clear_memory_cache()
    assert distance(Model.RD, (2, 1, 3)) == 1
    assert distance_peg(Model.RD, parse_peg("2+ 1+")) == 3
    # the variable is read at the first call per (model, n) only
    monkeypatch.setenv("PEGBALL_CACHE", str(tmp_path))
    assert distance(Model.RD, (2, 1, 3)) == 1
    assert not any(tmp_path.iterdir())
    clear_memory_cache()
    searches = []
    real_bfs = module._frontier_bfs

    def counting_bfs(*args, **kwargs):
        searches.append(args)
        return real_bfs(*args, **kwargs)

    monkeypatch.setattr(module, "_frontier_bfs", counting_bfs)
    assert distance(Model.RD, (2, 1, 3)) == 1
    assert cache_path(tmp_path, Model.RD, TableKind.STANDARD, 3).exists()
    assert distance_peg(Model.RD, parse_peg("2+ 1+")) == 3
    assert len(searches) == 2  # the standard table and the peg component


def test_distance_peg_via_inflation():
    b = parse_peg("2+ 1+")
    assert distance_peg_via_inflation(Model.RD, b, 2) == 2
    assert distance_peg_via_inflation(Model.RD, b, 6) == 3
    assert distance_peg_via_inflation(Model.RD, b, 6) == distance_peg(Model.RD, b)


def test_distance_peg_via_inflation_reports_overshoot(monkeypatch):
    module = sys.modules[distance_peg_via_inflation.__module__]
    monkeypatch.setattr(module, "distance_bounded", lambda *args: None)
    with pytest.raises(RuntimeError):
        distance_peg_via_inflation(Model.RD, parse_peg("2+ 1+"), 2)


def test_peg_state_goal():
    assert distance_peg(Model.RD, parse_peg("1+")) == 0
    assert distance_peg(Model.RD, parse_peg("1.")) == 0
    assert distance_peg(Model.RD, parse_peg("1-")) == 1


def test_non_model_rejected():
    distance(Model.RD, (3, 4, 1, 2))  # a warm table for the same length
    calls = [lambda: distance("rd", (3, 4, 1, 2)),
             lambda: distance_peg("rd", parse_peg("2+ 1+")),
             lambda: pair_distance("rd", (2, 1), (1, 2)),
             lambda: distance_bounded("rd", (3, 4, 1, 2), 3),
             lambda: ball("rd", 1, 3),
             lambda: ball("rd", 1, 3, TableKind.PEG),
             lambda: build_table("prd", 3),
             lambda: build_table("prd", 2, TableKind.PEG),
             lambda: cache_path("cache", "rd", TableKind.STANDARD, 3),
             lambda: lower_bound("rd", parse_peg("2+ 5- 4+ 1. 3-")),
             lambda: generating_set("rd", 1),
             lambda: is_generating("rd", 1, parse_peg("1+ 2- 3+")),
             lambda: peg_basis_bound("rd", 1),
             lambda: standard_basis_bound("rd", 2),
             lambda: peg_basis("rd", 1),
             lambda: standard_basis("rd", 1)]
    calls += [lambda m=m: count_ball("rd", 1, 4, m) for m in CountMethod]
    for call in calls:
        with pytest.raises(TypeError):
            call()
