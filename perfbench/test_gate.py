"""The exactness gate must reject wrong answers and corrupted expectations.

    python3 -m pytest perfbench/test_gate.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
from pegball import Model, cli, distance, reference  # noqa: E402


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--json"]) == 0
    return out.getvalue()


JOBS = [["basis", "--k", "1"], ["peg-basis", "--model", "prd", "--k", "1"],
        ["enumerate", "--model", "prd", "--k", "2", "--n-max", "6",
         "--method", "avoid"]]


@pytest.mark.parametrize("argv", JOBS, ids=lambda a: a[0])
def test_correct_job_passes(argv):
    assert gate.check_job(argv, _cli_json(argv)) == []


def test_corrupted_standard_basis_fails(monkeypatch):
    argv = ["basis", "--k", "1"]
    stdout = _cli_json(argv)
    bases = dict(reference.STANDARD_BASES)
    bases[("rd", 1)] = frozenset({"2143", "231", "321"})
    monkeypatch.setattr(reference, "STANDARD_BASES", bases)
    assert gate.check_job(argv, stdout)


def test_corrupted_peg_basis_fails(monkeypatch):
    argv = ["peg-basis", "--model", "prd", "--k", "1"]
    stdout = _cli_json(argv)
    pegs = dict(reference.PEG_BASES)
    pegs[("prd", 1)] = pegs[("prd", 1)] - {"2+ 1."}
    monkeypatch.setattr(reference, "PEG_BASES", pegs)
    assert gate.check_job(argv, stdout)


def test_incomplete_peg_basis_fails(monkeypatch):
    """Without a frozen value, a missing member is still caught."""
    argv = ["peg-basis", "--model", "prd", "--k", "1"]
    stdout = _cli_json(argv)
    monkeypatch.setattr(reference, "PEG_BASES", {})
    assert gate.check_job(argv, stdout) == []
    short = stdout.replace('"2- 3. 1.", ', "").replace(', "2- 3. 1."', "")
    short = short.replace('"count": 5', '"count": 4')
    assert short != stdout
    assert gate.check_job(argv, short)


def test_incomplete_reversal_peg_basis_fails(monkeypatch):
    """Reversal bases count patterns that are not clean compact; a missing
    member is still caught."""
    argv = ["peg-basis", "--k", "1"]
    stdout = _cli_json(argv)
    monkeypatch.setattr(reference, "PEG_BASES", {})
    assert gate.check_job(argv, stdout) == []
    short = stdout.replace('"1- 2-", ', "").replace(', "1- 2-"', "")
    short = short.replace('"count": 3', '"count": 2')
    assert short != stdout
    assert gate.check_job(argv, short)


def test_corrupted_count_fails(monkeypatch):
    argv = JOBS[2]
    stdout = _cli_json(argv)
    monkeypatch.setattr(reference, "prd_k2_count", lambda n: n * n)
    assert gate.check_job(argv, stdout)


def test_wrong_output_fails():
    argv = ["enumerate", "--k", "2", "--n-max", "5", "--method", "grid"]
    stdout = _cli_json(argv).replace("63", "64")
    assert gate.check_job(argv, stdout)


def test_methods_must_agree():
    grid = ["enumerate", "--k", "1", "--n-max", "5", "--method", "grid"]
    bfs = ["enumerate", "--k", "1", "--n-max", "5", "--method", "bfs"]
    good = [(grid, _cli_json(grid)), (bfs, _cli_json(bfs))]
    assert gate.check_method_agreement(good) == []
    bad = [good[0], (bfs, good[1][1].replace("[1, 2, 4, 7", "[1, 2, 4, 8"))]
    assert gate.check_method_agreement(bad)


@pytest.mark.parametrize("query,right,wrong", [
    (["distance", "rd", "3 4 1 2"], 2, 1),
    (["distance_cached", "prd", "4 2 1 3"], 3, 2),
    (["distance_peg", "rd", "2+ 1+"], 3, 2),
    (["distance_peg", "prd", "1+ 2."], 0, 1),
    (["bounded", "rd", 2, "1 2 6 5 4 3 9 8 7 10 11 12"], 2, 1),
    (["member", "rd", 1, "1 3 2 4"], [True, 1, "1+ 2- 3+"],
     [True, 1, "1+ 2+ 3+"]),
    (["member", "rd", 1, "2 4 1 3"], [False, 3, "2 3 1"], [False, 3, "2 1 4 3"]),
])
def test_query_answers(query, right, wrong):
    assert gate.check_query(query, right)
    assert not gate.check_query(query, wrong)


def test_exact_distance_matches_tables():
    import itertools
    for model in ("rd", "prd"):
        for p in itertools.permutations(range(1, 6)):
            d = distance(Model(model), p)
            assert gate.exact_distance(model, p, d) == d
            assert gate.exact_distance(model, p, d - 1) is None
