"""Command-line surface.

Every subcommand accepts --model, --json, --cache-dir, --limit and --seed.
JSON output is a single object with the fixed keys "command", "model", "k",
"result", "elapsed_ms" and "limits" (the --limit and --cache-dir values);
permutations and peg permutations appear as strings in their canonical text
forms.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 resource limit
exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from itertools import combinations

from .basis import _check_radius, m_set_source, peg_basis, standard_basis
from .distance import Model, ResourceLimitError, distance, distance_peg
from .enumeration import CountMethod, sequence
from .generators import generating_set
from .inflation import grid_member
from .peg import PegPermutation, format_peg, parse_peg, peg_of
from .perm import ParseError, Perm, format_perm, parse_perm, pattern_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    """Bad invocation: missing/empty arguments, unknown flags."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2 for
    # parse errors, so route usage problems through UsageError instead.
    def error(self, message: str):
        raise UsageError(message)


def _perm_arg(text: str) -> Perm:
    if not text.strip():
        raise UsageError("empty permutation argument")
    return parse_perm(text)


def _peg_arg(text: str) -> PegPermutation:
    if not text.strip():
        raise UsageError("empty peg permutation argument")
    return parse_peg(text)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative value: {value}")
    return value


_PERM = "perm", dict(metavar="PERM")
_PEG = "pegperm", dict(metavar="PEGPERM")
_K = "--k", dict(type=nonnegative_int, required=True)

# the flags every subcommand takes, before its own arguments
_COMMON = [
    ("--model", dict(choices=[m.value for m in Model], default="rd",
                     help="reversal (rd) or prefix reversal (prd) model")),
    ("--json", dict(action="store_true", help="machine-readable output")),
    ("--cache-dir", dict(metavar="PATH", default=None,
                         help="distance table cache directory "
                              "(default: $PEGBALL_CACHE)")),
    ("--limit", dict(metavar="N", type=int, default=None,
                     help="resource limit override (length or k bound, "
                          "per subcommand)")),
    ("--seed", dict(type=int, default=0,
                    help="seed for randomized property checks")),
]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result, text lines, exit code)

def _cmd_distance(args) -> tuple[object, list[str], int]:
    d = distance(Model(args.model), _perm_arg(args.perm),
                 limit=args.limit, cache_dir=args.cache_dir)
    return d, [str(d)], EXIT_OK


def _cmd_peg_distance(args) -> tuple[object, list[str], int]:
    d = distance_peg(Model(args.model), _peg_arg(args.pegperm),
                     limit=args.limit)
    return d, [str(d)], EXIT_OK


def _cmd_peg(args) -> tuple[object, list[str], int]:
    text = format_peg(peg_of(_perm_arg(args.perm)))
    return text, [text], EXIT_OK


def _cmd_generate(args) -> tuple[object, list[str], int]:
    gs = generating_set(Model(args.model), args.k)
    members = [format_peg(pp) for pp in gs.sorted_members()]
    return ({"members": members, "count": len(members)},
            members + [f"count={len(members)}"], EXIT_OK)


def _cmd_peg_basis(args) -> tuple[object, list[str], int]:
    basis = peg_basis(Model(args.model), args.k, k_limit=args.limit)
    members = [format_peg(pp) for pp in basis.sorted_members()]
    return ({"members": members, "count": len(members), "bound": basis.bound},
            members + [f"count={len(members)}"], EXIT_OK)


def _cmd_basis(args) -> tuple[object, list[str], int]:
    model = Model(args.model)
    pegs = peg_basis(model, args.k, k_limit=args.limit)
    members = sorted(standard_basis(model, args.k, args.cap,
                                    k_limit=args.limit),
                     key=lambda p: (len(p), p))
    rows = []
    lines = []
    for p in members:
        beta = m_set_source(pegs, p, args.cap)
        sources = [] if beta is None else [format_peg(beta)]
        rows.append({"perm": format_perm(p), "sources": sources})
        if sources:
            lines.append(f"{format_perm(p)}  [M: {', '.join(sources)}]")
        else:
            # found by the ball sweep; its peg contains a basis peg but no
            # M-set witness fits inside it
            lines.append(f"{format_perm(p)}  [sweep: peg "
                         f"{format_peg(peg_of(p))}]")
    lines.append(f"count={len(members)}")
    return {"members": rows, "count": len(members)}, lines, EXIT_OK


def _cmd_enumerate(args) -> tuple[object, list[str], int]:
    counts = sequence(Model(args.model), args.k, args.n_max,
                      CountMethod(args.method), limit=args.limit)
    return ({"counts": counts, "method": args.method},
            [" ".join(str(c) for c in counts)], EXIT_OK)


def _cmd_member(args) -> tuple[object, list[str], int]:
    model = Model(args.model)
    p = _perm_arg(args.perm)
    d = distance(model, p, limit=args.limit, cache_dir=args.cache_dir)
    if d <= args.k:
        witness = next((format_peg(g)
                        for g in generating_set(model, args.k).sorted_members()
                        if grid_member(g, p)), None)
        result = {"member": True, "distance": d, "witness": witness}
        lines = [f"member (distance {d}), inflation of {witness}"]
    else:
        # the answer names a basis member, so the basis radius limit holds
        _check_radius(model, args.k, None, "basis")
        violated = format_perm(_violated(model, args.k, p, args.limit,
                                         args.cache_dir))
        result = {"member": False, "distance": d, "violated": violated}
        lines = [f"not a member (distance {d}), "
                 f"contains basis element {violated}"]
    return result, lines, EXIT_OK


def _violated(model: Model, k: int, p: Perm, limit: int | None,
              cache_dir: str | None) -> Perm:
    """The least basis member of B_k in p, in (length, lex) order, for p
    outside B_k: the least pattern b of p with distance above k.  Each
    proper pattern of b is a shorter pattern of p, so lies in B_k, and b is
    a basis member.  A basis member in p is a pattern of p outside B_k, so
    it comes no earlier than b."""
    n = len(p)
    return next(b for m in range(1, n + 1) for b in sorted(
        {pattern_of(p, c) for c in combinations(range(n), m)})
        if distance(model, b, limit=limit, cache_dir=cache_dir) > k)


def _cmd_grid_member(args) -> tuple[object, list[str], int]:
    inside = grid_member(_peg_arg(args.pegperm), _perm_arg(args.perm))
    return inside, ["yes" if inside else "no"], EXIT_OK


def _cmd_verify(args) -> tuple[object, list[str], int]:
    from .verify import run_suites  # imported here to keep other commands' start short

    results = run_suites(args.suite, seed=args.seed)
    passed = sum(r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append(f"passed {passed}/{len(results)}")
    payload = {"checks": [{"suite": r.suite, "name": r.name,
                           "passed": r.passed, "detail": r.detail}
                          for r in results],
               "passed": passed == len(results)}
    code = EXIT_OK if passed == len(results) else EXIT_VERIFY
    return payload, lines, code


# each subcommand's help, the arguments it adds to the common ones, and its
# handler
_SUBCOMMANDS = {
    "distance": ("exact distance of a permutation", [_PERM], _cmd_distance),
    "peg-distance": ("exact distance of a peg permutation", [_PEG],
                     _cmd_peg_distance),
    "peg": ("collapse a permutation to its peg permutation", [_PERM],
            _cmd_peg),
    "generate": ("k-generating peg permutations", [_K], _cmd_generate),
    "peg-basis": ("clean compact peg basis of the radius-k ball", [_K],
                  _cmd_peg_basis),
    "basis": ("standard basis with M-set provenance", [
        _K, ("--cap", dict(
            metavar="L", type=nonnegative_int, default=None,
            help="length cap for the basis sweep and the M-set search"))],
        _cmd_basis),
    "enumerate": ("ball sizes for n = 1 .. n-max", [
        _K, ("--n-max", dict(type=nonnegative_int, required=True)),
        ("--method", dict(choices=sorted(m.value for m in CountMethod),
                          default="bfs"))], _cmd_enumerate),
    "member": ("ball membership with a witness or violation", [_K, _PERM],
               _cmd_member),
    "grid-member": ("grid-class membership", [_PEG, _PERM], _cmd_grid_member),
    "verify": ("recompute reference values and check invariants", [
        ("--suite", dict(choices=("paper", "properties", "all"),
                         default="all"))], _cmd_verify),
}


def build_parser(command: str | None = None) -> _Parser:
    """The pegball parser with every subcommand, or with command's alone:
    parsing an argv whose first token is command needs no other."""
    parser = _Parser(prog="pegball",
                     description="Distance balls of permutations under "
                                 "reversals and prefix reversals.")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, (text, arguments, _) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            for flag, options in _COMMON + arguments:
                p.add_argument(flag, **options)
    return parser


def run(argv: list[str]) -> int:
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # --cache-dir reaches the library as PEGBALL_CACHE for this call only
    previous_cache = os.environ.get("PEGBALL_CACHE")
    if args.cache_dir:
        os.environ["PEGBALL_CACHE"] = args.cache_dir

    start = time.perf_counter()
    try:
        result, lines, code = _SUBCOMMANDS[args.command][2](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        if args.cache_dir:
            if previous_cache is None:
                del os.environ["PEGBALL_CACHE"]
            else:
                os.environ["PEGBALL_CACHE"] = previous_cache
    elapsed_ms = round((time.perf_counter() - start) * 1000, 3)

    if args.json:
        envelope = {
            "command": args.command,
            "model": args.model,
            "k": getattr(args, "k", None),
            "result": result,
            "elapsed_ms": elapsed_ms,
            "limits": {"limit": args.limit, "cache_dir": args.cache_dir},
        }
        print(json.dumps(envelope))
    else:
        for line in lines:
            print(line)
    return code


def main(argv: list[str] | None = None) -> int:
    gc.freeze()  # collections during the command skip what existed before it
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
