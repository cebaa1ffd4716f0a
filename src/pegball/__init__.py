"""Reversal and prefix-reversal balls of permutations via peg permutations."""

from .perm import (Perm, ParseError, identity, inverse, reversal,
                   prefix_reversal, compose, pattern_of, contains_pattern,
                   avoids_all, minimal_elements, parse_perm, format_perm)
from .peg import (Decoration, PegPermutation, StripDirection, ExceptionalKind,
                  strips, is_clean_compact, is_compact, peg_of,
                  oriented_reversal, oriented_prefix_reversal,
                  peg_pattern_contains, clean_compact_proper_patterns,
                  exceptional, min_inflation, enumerate_clean_compact,
                  parse_peg, format_peg)
from .inflation import (monotone_inflate, peg_monotone_inflate, grid_member,
                        grid_member_peg, grid_enumerate, a_set_stream)
from .distance import (Model, TableKind, ResourceLimitError, DistanceTable,
                       distance, distance_peg, pair_distance, distance_bounded,
                       breakpoints, lower_bound, distance_peg_via_inflation,
                       ball, build_table, get_table)
from .generators import (GeneratingSet, rd_inflate_step, rd_generating_set,
                         prd_inflate_step, prd_generating_set, generating_set,
                         is_generating)
from .basis import (PegBasis, MSet, peg_basis, is_peg_basis_member,
                    exceptional_check, m_set, standard_basis)
from .enumeration import CountMethod, count_ball, sequence
from .peg import proper_patterns

__version__ = "0.1.0"


def __getattr__(name: str):
    """The self-check names, imported with verify (and reference) on first use."""
    if name in ("CheckResult", "paper_suite", "property_suite", "run_suites"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
