import hashlib
import itertools
import sys
from collections import Counter

import pytest

from pegball import basis as basis_module
from pegball import reference
from pegball.basis import (DEFAULT_K_LIMIT, _bullet_ball_level,
                           exceptional_check,
                           is_peg_basis_member, m_set, peg_basis,
                           peg_basis_bound, standard_basis,
                           standard_basis_bound)
from pegball.distance import (Model, ResourceLimitError, ball, distance,
                              distance_peg)
from pegball.peg import (_FROM_BULLETS, _TO_BULLETS, ExceptionalKind,
                         PegPermutation, _peg_key, clean_compact_proper_patterns,
                         enumerate_clean_compact, format_peg,
                         is_clean_compact, is_compact, parse_peg,
                         perm_strips, proper_patterns)
from pegball.perm import (avoids_all, contains_pattern, format_perm, inverse,
                          parse_perm)


def test_peg_bases_frozen():
    for (model, k), want in reference.PEG_BASES.items():
        got = {format_peg(pp) for pp in peg_basis(Model(model), k).members}
        assert got == set(want)


def test_peg_basis_needs_no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("peg_basis must not enumerate or test pegs")

    # the sweep calls none of these; basis no longer imports the first, and
    # reads patterns as states through the last
    monkeypatch.setattr(basis_module, "enumerate_clean_compact", refuse,
                        raising=False)
    monkeypatch.setattr(basis_module, "is_peg_basis_member", refuse)
    monkeypatch.setattr(basis_module, "_pattern_keys", refuse)
    for (model, k), want in reference.PEG_BASES.items():
        got = {format_peg(pp) for pp in peg_basis(Model(model), k).members}
        assert got == set(want)


def test_prd_k4_peg_basis():
    got = peg_basis(Model.PRD, 4).members
    assert len(got) == 159
    assert Counter(map(len, got)) == {3: 5, 4: 58, 5: 90, 6: 6}


def test_peg_basis_rd0():
    assert {format_peg(pp) for pp in peg_basis(Model.RD, 0).members} == {"1-"}


def test_peg_basis_bound():
    # members may not exceed the length bound: 2k+1 for reversals, k+2 for
    # prefix reversals but at least 4, the length of the two pegs with no
    # clean compact pattern one shorter
    assert peg_basis_bound(Model.RD, 1) == 3
    assert peg_basis_bound(Model.RD, 2) == 5
    assert peg_basis_bound(Model.PRD, 1) == 4
    assert peg_basis_bound(Model.PRD, 2) == 4
    assert peg_basis_bound(Model.PRD, 3) == 5
    for (model, k) in reference.PEG_BASES:
        pb = peg_basis(Model(model), k)
        assert pb.bound == peg_basis_bound(Model(model), k)
        assert all(len(pp) <= pb.bound for pp in pb.members)


def _clean_compact_deletions(pp):
    for i in range(len(pp)):
        base = tuple(v - (v > pp.base[i])
                     for v in pp.base[:i] + pp.base[i + 1:])
        q = PegPermutation(base, pp.decorations[:i] + pp.decorations[i + 1:])
        if len(q) and is_clean_compact(q):
            yield q


def test_prd_peg_basis_complete_to_length_5():
    # every clean compact peg of length <= 5 that the membership test accepts
    # is found, also beyond k+2; a peg with a clean compact deletion outside
    # the ball is no member, so only the others need the full test
    bases = {k: peg_basis(Model.PRD, k).members for k in (0, 1, 2)}
    for n in range(1, 6):
        for pp in enumerate_clean_compact(n):
            worst = max((distance_peg(Model.PRD, q)
                         for q in _clean_compact_deletions(pp)), default=0)
            for k, members in bases.items():
                if worst <= k and is_peg_basis_member(Model.PRD, k, pp):
                    assert pp in members, f"prd k={k} misses {pp}"
    for k in (0, 1):
        for text in reference.REDUCED_PATTERN_GAPS:
            assert parse_peg(text) in bases[k]


def test_peg_basis_members_exceed_radius():
    for (model, k) in reference.PEG_BASES:
        for pp in peg_basis(Model(model), k).members:
            assert distance_peg(Model(model), pp) > k


def test_basis_prop_boundary_shape():
    # reversal basis members never start with a non-minus 1 or end with a
    # non-minus maximum; prefix-reversal members only obey the tail half
    for k in (0, 1):
        for pp in peg_basis(Model.RD, k).members:
            head, tail = pp.base[0], pp.base[-1]
            assert not (head == 1 and str(pp)[1] in "+.")
            assert not (tail == len(pp) and str(pp)[-1] in "+.")
    for k in (0, 1):
        for pp in peg_basis(Model.PRD, k).members:
            assert not (pp.base[-1] == len(pp) and str(pp)[-1] in "+.")


def test_is_peg_basis_member_is_model_dependent():
    theta3 = parse_peg("3. 1- 2.")
    assert not is_peg_basis_member(Model.RD, 1, theta3)
    assert is_peg_basis_member(Model.PRD, 1, theta3)
    assert is_peg_basis_member(Model.RD, 1, parse_peg("1- 2-"))
    assert not is_peg_basis_member(Model.RD, 1, parse_peg("1- 2- 3-"))


@pytest.mark.parametrize("model", list(Model))
def test_is_peg_basis_member_matches_definition_on_pegs(model):
    # the definition read through PegPermutation patterns, to length 4
    for n in range(5):
        for pp in enumerate_clean_compact(n):
            below = (proper_patterns(pp) if model is Model.RD
                     else clean_compact_proper_patterns(pp))
            for k in range(3):
                want = distance_peg(model, pp) > k and all(
                    distance_peg(model, qq) <= k for qq in below)
                assert is_peg_basis_member(model, k, pp) == want, (pp, k)


def test_peg_basis_k_limit():
    assert DEFAULT_K_LIMIT[Model.RD] == 3
    with pytest.raises(ResourceLimitError):
        peg_basis(Model.RD, 4)
    with pytest.raises(ResourceLimitError):
        peg_basis(Model.PRD, 2, k_limit=1)


def test_m_sets_frozen():
    for model, beta, want in reference.M_SETS:
        ms = m_set(Model(model), parse_peg(beta))
        assert ms.members == {parse_perm(t) for t in want}
        assert not ms.no_candidates


def test_m_set_target_distance():
    beta = parse_peg("2+ 1+")
    ms = m_set(Model.RD, beta)
    assert ms.target_distance == distance_peg(Model.RD, beta) == 3
    assert ms.members == {parse_perm("456123")}


def test_m_set_length_cap():
    ms = m_set(Model.RD, parse_peg("2+ 1+"), length_cap=3)
    assert ms.no_candidates
    assert ms.cap == 3
    assert ms.members == frozenset()


def test_standard_bases_frozen():
    for (model, k), want in reference.STANDARD_BASES.items():
        got = standard_basis(Model(model), k)
        assert got == {parse_perm(t) for t in want}


def test_standard_bases_closed_under_symmetries():
    # each move is an involution, so B_k is closed under inverse; conjugating
    # by the full reversal maps reversals to reversals, so rd B_k is also
    # closed under reverse-complement; a basis inherits both
    frozen = dict(reference.STANDARD_BASES)
    frozen["rd", 2] = reference.RD_K2_BASIS
    bases = {key: {parse_perm(t) for t in texts}
             for key, texts in frozen.items()}
    bases["prd", 3] = standard_basis(Model.PRD, 3)
    for (model, k), basis in bases.items():
        assert {inverse(p) for p in basis} == basis, (model, k)
        if model == "rd":
            assert {tuple(len(p) + 1 - v for v in reversed(p))
                    for p in basis} == basis, k


def test_rd_k2_basis_complete():
    got = standard_basis(Model.RD, 2)
    assert got == {parse_perm(t) for t in reference.RD_K2_BASIS}
    assert len(got) == 31


def test_rd_k2_sweep_only_members():
    # these three avoid the whole M-set union: their pegs contain the basis
    # peg 2+ 1+, but its only witness 456123 is longer than they are
    m_union = {p for beta in peg_basis(Model.RD, 2).members
               for p in m_set(Model.RD, beta).members}
    basis = standard_basis(Model.RD, 2)
    for text in reference.RD_K2_BASIS_SWEEP_ONLY:
        p = parse_perm(text)
        assert p in basis
        assert avoids_all(m_union, p)
        assert contains_pattern(parse_peg("2+ 1+").base, p)


def test_standard_basis_needs_no_m_sets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("standard_basis must not use the peg route")

    monkeypatch.setattr(basis_module, "m_set", refuse)
    monkeypatch.setattr(basis_module, "peg_basis", refuse)
    frozen = dict(reference.STANDARD_BASES)
    frozen["rd", 2] = reference.RD_K2_BASIS
    for (model, k), want in frozen.items():
        assert standard_basis(Model(model), k) == {parse_perm(t) for t in want}


def test_standard_basis_bound():
    assert [standard_basis_bound(Model.RD, k) for k in range(4)] == \
        [6, 10, 14, 20]
    assert [standard_basis_bound(Model.PRD, k) for k in range(6)] == \
        [6, 8, 10, 12, 14, 16]


def test_standard_basis_strip_inequality():
    # the bound's proof gives (s-1) + (M-2) <= ck for a member with s strips,
    # the longest of length M >= 3; these bases satisfy it at every M
    for model, c, ks in ((Model.RD, 2, (0, 1, 2)),
                         (Model.PRD, 1, (0, 1, 2, 3))):
        for k in ks:
            for p in standard_basis(model, k):
                runs = [end - start + 1 for start, end, _ in perm_strips(p)]
                s, m = len(runs), max(runs)
                assert (s - 1) + (m - 2) <= c * k, (model, k, p)


# sha256 of the sorted member texts (format_perm, joined by newlines), as
# recorded before the sweep read its ball from the standard table search
STANDARD_BASIS_SHA256 = {
    3: "8e0b3cde4a9afe91ef8665da22985d19735f66b0ad572e50d86bb0fa18748bfd",
    4: "82ad4cab600e2cd9c55ef0637594551424b5bb53a3222d14b609e5a7d320f565",
}


def test_prd_k4_standard_basis():
    # and k = 3, both unfrozen in reference
    for k, size, lengths in ((3, 28, {4: 3, 5: 25}),
                             (4, 121, {5: 20, 6: 95, 7: 6})):
        got = standard_basis(Model.PRD, k)
        assert len(got) == size
        assert Counter(map(len, got)) == lengths
        texts = "\n".join(sorted(map(format_perm, got))).encode()
        assert hashlib.sha256(texts).hexdigest() == STANDARD_BASIS_SHA256[k]


def test_standard_basis_length_cap_and_k_limit():
    full = standard_basis(Model.RD, 2)
    assert standard_basis(Model.RD, 2, 5) == {p for p in full if len(p) <= 5}
    assert standard_basis(Model.RD, 2, 1) == set()
    with pytest.raises(ResourceLimitError):
        standard_basis(Model.RD, 4)
    with pytest.raises(ResourceLimitError):
        standard_basis(Model.PRD, 2, k_limit=1)


@pytest.mark.parametrize("model", list(Model))
def test_bullet_ball_level_is_standard_ball(model):
    # the sweep sees B_k(n) as all-bullet peg states
    for k in range(4):
        for n in range(7):
            level = list(_bullet_ball_level(model, k, n))
            assert len(level) == len(set(level)), (k, n)
            assert {tuple(b // 3 for b in s) for s in level} == \
                ball(model, k, n), (k, n)
            assert all(b % 3 == 2 for s in level for b in s)


def test_bullet_tables_encode_the_all_bullet_peg():
    # the sweep sees a permutation as the all-bullet peg state on it
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            key = bytes(p).translate(_TO_BULLETS)
            assert key == _peg_key(p, "." * n)
            assert key.translate(_FROM_BULLETS) == bytes(p)


def test_sweep_past_state_encoding_fails_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no BFS may run before the length check")

    monkeypatch.setattr(sys.modules[ball.__module__], "_frontier_bfs", refuse)
    assert standard_basis_bound(Model.RD, 8) == 90
    with pytest.raises(ResourceLimitError, match="sweep length 90"):
        standard_basis(Model.RD, 8, k_limit=8)


def test_standard_basis_members_are_minimal_excluded():
    for (model, k) in (("rd", 1), ("rd", 2), ("prd", 1), ("prd", 2)):
        m = Model(model)
        for p in standard_basis(m, k):
            assert distance(m, p) > k
            n = len(p)
            for i in range(n):
                q = tuple(v - (v > p[i]) for j, v in enumerate(p) if j != i)
                assert distance(m, q) <= k


def test_standard_basis_oracle_equivalence():
    # p is in the ball iff it avoids the computed basis, for every n <= 7
    for (model, k) in (("rd", 2), ("prd", 2)):
        m = Model(model)
        basis = standard_basis(m, k)
        for n in range(1, 8):
            members = ball(m, k, n)
            for p in itertools.permutations(range(1, n + 1)):
                assert avoids_all(basis, p) == (tuple(p) in members)


def test_exceptional_check():
    for k, kinds in ((0, {(ExceptionalKind.THETA_EVEN, 2),
                          (ExceptionalKind.LAMBDA_EVEN, 2)}),
                     (1, {(ExceptionalKind.THETA_ODD, 3),
                          (ExceptionalKind.LAMBDA_ODD, 3)}),
                     (2, {(ExceptionalKind.THETA_EVEN, 4),
                          (ExceptionalKind.LAMBDA_EVEN, 4)})):
        reports = exceptional_check(k)
        assert {(r.kind, r.n) for r in reports} == kinds
        for r in reports:
            # exceptional pegs live in two consecutive bases
            assert r.distance == k + 2
            assert r.distance_ok and r.in_basis_k and r.in_basis_k_plus_1


def test_compactness_check():
    assert is_compact(parse_peg("3. 4. 1- 5- 2+"))
    assert not is_compact(parse_peg("3+ 4. 1- 5- 2+"))
    assert is_compact(parse_peg(""))
