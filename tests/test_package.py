"""The package root re-exports every module's __all__ and keeps every name it
bound before it did.  pegball.distance is the distance function, which
shadows the submodule of that name.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import pegball

MODULES = ("perm", "peg", "inflation", "distance", "generators", "basis",
           "enumeration")

# the names the package root bound when it listed its exports by hand, by the
# module that defines them
HAND_LISTED = {
    "perm": ("Perm", "ParseError", "identity", "inverse", "reversal",
             "compose", "pattern_of", "contains_pattern", "avoids_all",
             "minimal_elements", "parse_perm", "format_perm"),
    "peg": ("Decoration", "PegPermutation", "StripDirection",
            "ExceptionalKind", "strips", "is_clean_compact", "peg_of",
            "oriented_reversal", "oriented_prefix_reversal",
            "peg_pattern_contains", "clean_compact_proper_patterns",
            "exceptional", "enumerate_clean_compact", "parse_peg",
            "format_peg", "proper_patterns"),
    "inflation": ("monotone_inflate", "grid_member", "grid_enumerate",
                  "a_set_stream"),
    "distance": ("Model", "TableKind", "ResourceLimitError", "DistanceTable",
                 "distance", "distance_peg", "pair_distance",
                 "distance_bounded", "breakpoints", "lower_bound",
                 "distance_peg_via_inflation", "ball", "build_table",
                 "get_table"),
    "generators": ("GeneratingSet", "rd_inflate_step", "rd_generating_set",
                   "prd_inflate_step", "prd_generating_set",
                   "generating_set"),
    "basis": ("PegBasis", "MSet", "peg_basis", "is_peg_basis_member",
              "exceptional_check", "m_set", "standard_basis"),
    "enumeration": ("CountMethod", "count_ball", "sequence"),
    "verify": ("CheckResult", "paper_suite", "property_suite", "run_suites"),
}


def _module(name):
    return importlib.import_module(f"pegball.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_root_reexports_all(name):
    module = _module(name)
    for attr in module.__all__:
        assert getattr(pegball, attr) is getattr(module, attr), attr


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_in_all(name):
    module = _module(name)
    defined = [attr for attr, value in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__]
    assert defined
    assert [attr for attr in defined if attr not in module.__all__] == []


def test_hand_listed_names_still_bound():
    for name, attrs in HAND_LISTED.items():
        module = _module(name)
        for attr in attrs:
            assert getattr(pegball, attr) is getattr(module, attr), attr
    for name in MODULES:
        if name != "distance":
            assert getattr(pegball, name) is _module(name)
    assert pegball.__version__ == "0.1.0"


SRC = Path(pegball.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# public names no other code calls: clear_memory_cache serves users who free
# memory, and the tests
UNCALLED = {"clear_memory_cache"}


def _used_names(path):
    """The names one source file uses as a Name, an Attribute or an import
    alias, each outside the body of its own def; docstrings and doctests are
    strings, so they use none."""
    used = set()
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname})
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        used |= names
    return used


def test_public_names_are_used():
    used = set().union(*map(_used_names, SRC.glob("*.py")))
    bench = "\n".join(p.read_text() for p in PERFBENCH.glob("*.py"))
    unused = [attr for name in MODULES for attr in _module(name).__all__
              if attr not in used and not re.search(rf"\b{attr}\b", bench)]
    assert sorted(unused) == sorted(UNCALLED)
