"""The package root re-exports every module's __all__ and keeps every name it
bound before it did.  pegball.distance is the distance function, which
shadows the submodule of that name.
"""

import importlib
import inspect

import pytest

import pegball

MODULES = ("perm", "peg", "inflation", "distance", "generators", "basis",
           "enumeration")

# the names the package root bound when it listed its exports by hand, by the
# module that defines them
HAND_LISTED = {
    "perm": ("Perm", "ParseError", "identity", "inverse", "reversal",
             "prefix_reversal", "compose", "pattern_of", "contains_pattern",
             "avoids_all", "minimal_elements", "parse_perm", "format_perm"),
    "peg": ("Decoration", "PegPermutation", "StripDirection",
            "ExceptionalKind", "strips", "is_clean_compact", "is_compact",
            "peg_of", "oriented_reversal", "oriented_prefix_reversal",
            "peg_pattern_contains", "clean_compact_proper_patterns",
            "exceptional", "min_inflation", "enumerate_clean_compact",
            "parse_peg", "format_peg", "proper_patterns"),
    "inflation": ("monotone_inflate", "peg_monotone_inflate", "grid_member",
                  "grid_member_peg", "grid_enumerate", "a_set_stream"),
    "distance": ("Model", "TableKind", "ResourceLimitError", "DistanceTable",
                 "distance", "distance_peg", "pair_distance",
                 "distance_bounded", "breakpoints", "lower_bound",
                 "distance_peg_via_inflation", "ball", "build_table",
                 "get_table"),
    "generators": ("GeneratingSet", "rd_inflate_step", "rd_generating_set",
                   "prd_inflate_step", "prd_generating_set",
                   "generating_set", "is_generating"),
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
