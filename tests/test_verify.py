import subprocess
import sys

import pytest

from pegball import reference, verify
from pegball.verify import (CheckResult, paper_suite, property_suite,
                            run_suites)

PAPER_NAMES = ["distances", "peg-distances", "generating-sets", "peg-bases",
               "m-sets", "standard-bases", "fiber", "exceptional",
               "ball-counts"]
PROPERTY_NAMES = ["left-invariance", "down-set", "peg-dominates",
                  "lower-bounds", "grid-member", "plusone-cover",
                  "maximal-generating", "reduced-pattern", "via-inflation"]


def test_package_imports_verify_on_first_use():
    # a fresh interpreter, so that no earlier import has loaded verify
    code = """
import sys, pegball, pegball.cli
assert "pegball.verify" not in sys.modules, "verify"
assert "pegball.reference" not in sys.modules, "reference"
from pegball import CheckResult, paper_suite, property_suite, run_suites
from pegball import verify
assert run_suites is verify.run_suites and CheckResult is verify.CheckResult
assert not hasattr(pegball, "no_such_name")
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_paper_suite_all_pass():
    results = paper_suite()
    assert [r.name for r in results] == PAPER_NAMES
    assert all(r.suite == "paper" for r in results)
    failures = [r.name for r in results if not r.passed]
    assert failures == []


def test_property_suite_known_failure(property_results, monkeypatch):
    results = property_results
    assert [r.name for r in results] == PROPERTY_NAMES
    assert [r.name for r in results if not r.passed] == []
    # only the two all-bullet pegs on the simple permutations of length 4
    # lack a clean compact pattern one shorter, and the check names them
    detail = results[PROPERTY_NAMES.index("reduced-pattern")].detail
    assert "2. 4. 1. 3." in detail and "3. 1. 4. 2." in detail
    # a recorded gap set that misses one of them fails the check
    monkeypatch.setattr(reference, "REDUCED_PATTERN_GAPS",
                        frozenset({"2. 4. 1. 3."}))
    result = verify._check_reduced_pattern()
    assert result.name == "reduced-pattern" and not result.passed
    assert "3. 1. 4. 2." in result.detail


def test_run_suites_dispatch(monkeypatch):
    # the suites' own checks are counted by the two tests above
    monkeypatch.setattr(verify, "paper_suite", lambda: ["paper"])
    monkeypatch.setattr(verify, "property_suite", lambda seed: [f"seed {seed}"])
    assert run_suites("paper") == ["paper"]
    assert run_suites("properties", seed=7) == ["seed 7"]
    assert run_suites("all", 3) == ["paper", "seed 3"]
    assert run_suites() == ["paper", "seed 0"]
    with pytest.raises(ValueError):
        run_suites("bogus")


def test_check_result_line():
    ok = CheckResult("paper", "distances", True, "5 exact values")
    assert ok.line() == "[paper] distances: ok (5 exact values)"
    bad = CheckResult("properties", "reduced-pattern", False, "x; y")
    assert bad.line() == "[properties] reduced-pattern: FAIL (x; y)"


def test_property_suite_seed_stability(property_results):
    # a second run with the session's seed gives the same results
    assert property_suite(seed=0) == property_results


def test_standard_bases_m_set_cross_check(monkeypatch):
    # a sweep that lost 2143, with a frozen value that agrees, is still
    # caught: 2143 is the M-set witness of the basis peg 1- 2-
    sweep = verify.standard_basis
    monkeypatch.setattr(verify, "standard_basis",
                        lambda model, k: sweep(model, k) - {(2, 1, 4, 3)})
    monkeypatch.setitem(reference.STANDARD_BASES, ("rd", 1),
                        frozenset({"231", "312"}))
    result = verify._check_standard_bases()
    assert not result.passed
    assert result.detail == ("rd k=1: M-set witness 2 1 4 3 is in B_k or "
                             "avoids the basis")
