import itertools
import json
import os

import pytest

from pegball import basis as basis_module
from pegball import reference, verify
from pegball import cli
from pegball.basis import m_set, peg_basis, standard_basis
from pegball.cli import main
from pegball.distance import Model, distance
from pegball.enumeration import CountMethod, sequence
from pegball.peg import format_peg, parse_peg
from pegball.perm import contains_pattern, format_perm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance(capsys):
    code, out, _ = run_cli(capsys, "distance", "3412")
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run_cli(capsys, "distance", "--model", "prd", "2 1")
    assert code == 0
    assert out.strip() == "1"


def test_peg_distance(capsys):
    code, out, _ = run_cli(capsys, "peg-distance", "2+ 1+")
    assert code == 0
    assert out.strip() == "3"


def test_peg(capsys):
    code, out, _ = run_cli(capsys, "peg", "2 1 5 3 4")
    assert code == 0
    assert out.strip() == "1- 3. 2+"


def test_generate(capsys):
    code, out, _ = run_cli(capsys, "generate", "--model", "prd", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=2"
    assert set(lines[:-1]) == {"2+ 1- 3+", "2- 1+ 3+"}


def test_peg_basis(capsys):
    code, out, _ = run_cli(capsys, "peg-basis", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=3"
    assert set(lines[:-1]) == {"1- 2-", "2+ 1.", "2. 1+"}


def test_basis_with_provenance(capsys):
    code, out, _ = run_cli(capsys, "basis", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=3"
    assert all("[M: " in line for line in lines[:-1])


def test_basis_sweep_provenance(capsys):
    code, out, _ = run_cli(capsys, "basis", "--model", "rd", "--k", "2",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    members = payload["result"]["members"]
    assert payload["result"]["count"] == 31
    swept = {m["perm"] for m in members if not m["sources"]}
    assert swept == {"4 5 2 3 1", "4 5 3 1 2", "5 3 4 1 2"}


def test_basis_provenance_builds_no_m_set(capsys, monkeypatch):
    # the M-set route: p is listed under every basis peg whose M-set holds it
    cases = (("rd", 2, None), ("rd", 2, 6), ("prd", 3, 5))
    want = {}
    for model, k, cap in cases:
        fibers = [(beta, m_set(Model(model), beta, cap).members)
                  for beta in peg_basis(Model(model), k).sorted_members()]
        want[model, k, cap] = {
            format_perm(p): [format_peg(beta) for beta, ms in fibers
                             if p in ms]
            for p in standard_basis(Model(model), k, cap)}

    def refuse(*args, **kwargs):
        raise AssertionError("basis must build no M-set")

    monkeypatch.setattr(cli, "m_set", refuse, raising=False)
    monkeypatch.setattr(basis_module, "m_set", refuse)
    for model, k, cap in cases:
        argv = ["basis", "--model", model, "--k", str(k), "--json"]
        if cap is not None:
            argv += ["--cap", str(cap)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        got = {row["perm"]: row["sources"]
               for row in json.loads(out)["result"]["members"]}
        assert got == want[model, k, cap]


def test_member(capsys):
    code, out, _ = run_cli(capsys, "member", "--k", "1", "3 4 1 2")
    assert code == 0
    assert "not a member (distance 2)" in out
    assert "contains basis element 2 3 1" in out
    code, out, _ = run_cli(capsys, "member", "--k", "2", "3 4 1 2")
    assert code == 0
    assert out.startswith("member (distance 2)")


def test_member_limit_is_not_a_k_limit(capsys, monkeypatch):
    calls = []

    def recording_basis(*args, **kwargs):
        calls.append(kwargs)
        return standard_basis(*args, **kwargs)

    monkeypatch.setattr(cli, "standard_basis", recording_basis)
    code, out, _ = run_cli(capsys, "member", "--k", "1", "--limit", "4",
                           "3 4 1 2")
    assert code == 0
    assert "contains basis element 2 3 1" in out
    assert calls == []  # the violated member is found without the basis


def test_member_walk_names_the_least_contained_basis_member():
    for model, k in [("rd", k) for k in range(3)] + [("prd", k) for k in range(5)]:
        model = Model(model)
        basis = sorted(standard_basis(model, k), key=lambda b: (len(b), b))
        for n in range(1, 7):
            for p in itertools.permutations(range(1, n + 1)):
                if distance(model, p) > k:
                    want = next(b for b in basis if contains_pattern(b, p))
                    assert cli._violated(model, k, p, None, None) == want, p


def test_member_rd_k3_without_the_basis(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("member built a basis")

    monkeypatch.setattr(basis_module, "_sweep", refuse)
    code, out, _ = run_cli(capsys, "member", "--k", "3", "2 4 6 8 1 3 5 7")
    assert code == 0
    assert out == ("not a member (distance 5), "
                   "contains basis element 2 3 5 6 1 4\n")


def test_grid_member(capsys):
    code, out, _ = run_cli(capsys, "grid-member", "2+ 1+", "3 4 1 2")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run_cli(capsys, "grid-member", "2+ 1+", "3 2 1")
    assert code == 0 and out.strip() == "no"


def test_enumerate_matches_api(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--model", "prd", "--k", "2",
                           "--n-max", "6", "--method", "grid")
    assert code == 0
    got = [int(c) for c in out.split()]
    assert got == sequence(Model.PRD, 2, 6, CountMethod.GRID)
    assert got == [1, 2, 5, 10, 17, 26]


def test_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "distance", "--json", "3412")
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"command", "model", "k", "result", "elapsed_ms",
                            "limits"}
    assert payload["command"] == "distance"
    assert payload["model"] == "rd"
    assert payload["result"] == 2
    assert set(payload["limits"]) == {"limit", "cache_dir"}


def test_json_peg_basis_round_trip(capsys):
    code, out, _ = run_cli(capsys, "peg-basis", "--k", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    got = {parse_peg(t) for t in payload["result"]["members"]}
    assert got == {parse_peg(t) for t in reference.PEG_BASES[("rd", 1)]}


def test_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["distance", ""]) == 1
    capsys.readouterr()
    assert main(["distance", "--bogus-flag", "123"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    for argv in (["peg-basis", "--k", "-1"],
                 ["enumerate", "--k", "1", "--n-max", "-2"],
                 ["basis", "--k", "1", "--cap", "-1"]):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err


def test_internal_value_error_propagates(monkeypatch):
    def fault(args):
        raise ValueError("internal fault")

    text, arguments, _ = cli._SUBCOMMANDS["distance"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "distance", (text, arguments, fault))
    with pytest.raises(ValueError, match="internal fault"):
        main(["distance", "3412"])


def test_parse_errors(capsys):
    assert main(["distance", "31x2"]) == 2
    capsys.readouterr()
    assert main(["distance", "1 2 2"]) == 2
    capsys.readouterr()
    assert main(["peg-distance", "2+ 3+"]) == 2
    capsys.readouterr()
    assert main(["grid-member", "2?", "1 2"]) == 2
    capsys.readouterr()


def test_resource_errors(capsys):
    assert main(["distance", "10 9 8 7 6 5 4 3 2 1"]) == 3
    capsys.readouterr()
    assert main(["peg-basis", "--model", "rd", "--k", "4"]) == 3
    capsys.readouterr()


def test_avoid_count_past_state_limit(capsys):
    code = main(["enumerate", "--k", "1", "--n-max", "90", "--method",
                 "avoid", "--limit", "100"])
    assert code == 3
    assert "(limit 84)" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "SUBCOMMAND" in capsys.readouterr().out


def _help(parser, argv, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    return capsys.readouterr().out


def test_command_builds_only_its_subparser(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def spy(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    for argv in (["distance", "3412"], ["--json", "distance", "3412"],
                 ["no-such-command"], []):
        main(argv)
    capsys.readouterr()
    assert built == ["distance", None, None, None]
    texts = [text for text, _, _ in cli._SUBCOMMANDS.values()]
    assert all(text in build().format_help() for text in texts)
    for name, (text, _, _) in cli._SUBCOMMANDS.items():
        alone = build(name)
        assert [t for t in texts if t in alone.format_help()] == [text]
        assert alone.format_usage() == build().format_usage()
        assert (_help(alone, [name, "--help"], capsys)
                == _help(build(), [name, "--help"], capsys))


def test_verify_properties_exit_code(capsys, monkeypatch, property_results):
    # the property_results fixture's one property_suite(seed=0) run stands
    # in for a rerun; the failing half reruns only the check it breaks
    results = property_results

    def suite(seed):
        assert seed == 0
        return results

    monkeypatch.setattr(verify, "property_suite", suite)
    assert main(["verify", "--suite", "properties"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "passed 9/9"
    # a failing property check makes the suite report verification failure
    monkeypatch.setattr(reference, "REDUCED_PATTERN_GAPS",
                        frozenset({"2. 4. 1. 3."}))
    results = [verify._check_reduced_pattern() if r.name == "reduced-pattern"
               else r for r in property_results]
    assert main(["verify", "--suite", "properties"]) == 4
    out = capsys.readouterr().out
    assert "[properties] reduced-pattern: FAIL" in out
    assert out.strip().splitlines()[-1] == "passed 8/9"


def test_verify_paper_passes(capsys):
    assert main(["verify", "--suite", "paper"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "passed 9/9"


def test_verify_detects_mutation(capsys, monkeypatch):
    monkeypatch.setitem(reference.STANDARD_BASES, ("rd", 1),
                        frozenset({"2143", "231"}))
    assert main(["verify", "--suite", "paper"]) == 4
    out = capsys.readouterr().out
    assert "[paper] standard-bases: FAIL" in out


def test_cache_dir_flag(capsys, tmp_path):
    code = main(["distance", "--cache-dir", str(tmp_path), "3412"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"
    assert any(p.suffix == ".dist" for p in tmp_path.iterdir())


def test_cache_dir_flag_leaves_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PEGBALL_CACHE", raising=False)
    before = dict(os.environ)
    assert main(["distance", "--cache-dir", str(tmp_path / "a"), "3412"]) == 0
    assert dict(os.environ) == before
    monkeypatch.setenv("PEGBALL_CACHE", str(tmp_path / "b"))
    assert main(["distance", "--cache-dir", str(tmp_path / "a"), "3412"]) == 0
    assert os.environ["PEGBALL_CACHE"] == str(tmp_path / "b")
    capsys.readouterr()


def test_threads_flag_rejected(capsys):
    code, out, err = run_cli(capsys, "distance", "--threads", "4", "3412")
    assert code == 1 and out == ""
    assert "usage error" in err
