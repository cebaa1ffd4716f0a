"""Frozen reference values used by the verification suites.

Everything here is stored in the canonical text formats of perm.format_perm
and peg.format_peg so that a verify run exercises the parsers as well.  The
verify suites recompute each value and compare; tests mutate these constants
to prove that the comparison actually bites.
"""

from __future__ import annotations

# --- exact distances -------------------------------------------------------

# (model, permutation, distance)
DISTANCES: tuple[tuple[str, str, int], ...] = (
    ("rd", "3412", 2),
    ("rd", "456123", 3),
    ("prd", "4213", 3),
    ("rd", "123456", 0),
    ("prd", "1234", 0),
)

# (model, peg permutation, distance)
PEG_DISTANCES: tuple[tuple[str, str, int], ...] = (
    ("rd", "2+ 1+", 3),
    ("rd", "1+ 2- 3+", 1),
    ("prd", "3. 1- 2.", 3),
    ("rd", "1+ 2+ 3.", 0),
    ("prd", "1. 2+", 0),
    ("rd", "1- 2-", 2),
)

# Layer sizes of the full distance tables at n = 9: entry d counts the
# permutations at distance d from the identity.  tests/test_distance.py
# checks them against a fresh table build.
LAYER_SIZES_N9: dict[str, tuple[int, ...]] = {
    "rd": (1, 36, 820, 11407, 69863, 169034, 105365, 6352, 2),
    "prd": (1, 8, 56, 391, 2278, 10666, 38015, 93585, 132697, 79379, 5804),
}

# --- generating sets -------------------------------------------------------

RD_GENERATING: dict[int, frozenset[str]] = {
    0: frozenset({"1+"}),
    1: frozenset({"1+ 2- 3+"}),
    2: frozenset({
        "1+ 2- 3+ 4- 5+",
        "1+ 4- 3+ 2- 5+",
        "1+ 4+ 2- 3- 5+",
        "1+ 3- 4- 2+ 5+",
    }),
}

PRD_GENERATING: dict[int, frozenset[str]] = {
    1: frozenset({"1- 2+"}),
    2: frozenset({"2+ 1- 3+", "2- 1+ 3+"}),
    3: frozenset({
        "2- 3+ 1- 4+",
        "2+ 3- 1- 4+",
        "3- 1+ 2- 4+",
        "3+ 2- 1+ 4+",
        "1- 3+ 2+ 4+",
        "3- 1- 2+ 4+",
    }),
}

# |prd_generating_set(k)| = k! holds for every k; checked up to this radius.
PRD_GENERATING_COUNT_MAX_K = 6

# --- clean compact peg bases ------------------------------------------------

# The prefix-reversal bases at k <= 1 include the two pegs of
# REDUCED_PATTERN_GAPS: their distance is 4 and every clean compact proper
# pattern of theirs has distance 0.  rd k=2 and prd k=2, 3 come from a scan
# of every clean compact peg up to the length bound with
# basis.is_peg_basis_member; the level sweep of basis.peg_basis agrees.
PEG_BASES: dict[tuple[str, int], frozenset[str]] = {
    ("rd", 1): frozenset({"1- 2-", "2+ 1.", "2. 1+"}),
    ("prd", 0): frozenset({"1-", "2+ 1.", "2. 1+", "2. 4. 1. 3.",
                           "3. 1. 4. 2."}),
    ("prd", 1): frozenset({"1. 2-", "2. 1+", "2+ 1.", "3. 1- 2.", "2- 3. 1.",
                           "2. 4. 1. 3.", "3. 1. 4. 2."}),
    ("rd", 2): frozenset({
        "2+ 1+", "1- 2- 3-", "1- 3+ 2.", "1- 3. 2+", "2+ 1. 3-", "2. 1+ 3-",
        "2+ 3- 1.", "2- 3+ 1.", "2- 3. 1-", "2. 3- 1-", "3- 1- 2.", "3- 1. 2-",
        "3. 1+ 2-", "3. 1- 2+", "2. 3- 4. 1.", "2. 4. 1. 3.", "2. 4+ 3. 1.",
        "2. 4. 3+ 1.", "3. 1. 4. 2.", "3+ 2. 4. 1.", "3. 2+ 4. 1.",
        "4. 1. 2- 3.", "4. 1. 3+ 2.", "4. 1. 3. 2+", "4. 2+ 1. 3.",
        "4. 2. 1+ 3.", "4. 2- 3. 1.", "4. 2. 3- 1.",
    }),
    ("prd", 2): frozenset({
        "1. 2-", "2+ 1+", "1. 3+ 2.", "1. 3. 2+", "2- 3. 1.", "3. 1- 2.",
        "3. 2+ 1.", "2. 4. 1. 3.", "3. 1. 4. 2.", "3+ 2. 4. 1.", "4. 2. 1+ 3.",
    }),
    ("prd", 3): frozenset({
        "1- 2-", "1+ 3+ 2.", "1+ 3. 2+", "1. 3+ 2-", "1. 3- 2+", "2+ 1. 3-",
        "2. 1+ 3-", "2- 3. 1+", "2. 3- 1+", "3+ 1- 2.", "3+ 1. 2-", "3. 2+ 1.",
        "1- 2. 4+ 3.", "1- 2. 4. 3+", "1. 2- 4+ 3.", "1. 2- 4. 3+",
        "1. 3- 4. 2.", "1. 3. 4- 2.", "1. 4. 2- 3.", "1. 4. 2. 3-",
        "1. 4+ 3. 2+", "2. 3- 4. 1.", "2. 4. 1. 3.", "2. 4+ 3. 1.",
        "3. 1. 4. 2.", "3+ 2. 4. 1.", "3- 4. 1- 2.", "3- 4. 1. 2-",
        "3. 4- 1- 2.", "3. 4- 1. 2-", "4. 1. 2- 3.", "4. 1. 3. 2+",
        "4. 2. 1+ 3.", "4. 2- 3. 1.", "4. 2. 3- 1.", "3- 4. 2. 5. 1.",
        "5. 3. 1- 2. 4.",
    }),
}

# The clean compact pegs of length 2..6 with no clean compact pattern one
# shorter.  A pattern of an all-bullet peg is all-bullet, and every
# permutation of length 2 or 3 has two adjacent entries with consecutive
# values, so every all-bullet peg of length 2 or 3 has a strip.  The only
# clean compact proper patterns of these two pegs are therefore 1. and the
# empty peg.
REDUCED_PATTERN_GAPS: frozenset[str] = frozenset({"2. 4. 1. 3.", "3. 1. 4. 2."})

# --- M-sets and standard bases ----------------------------------------------

# (model, beta, members)
M_SETS: tuple[tuple[str, str, frozenset[str]], ...] = (
    ("rd", "1- 2-", frozenset({"2143"})),
    ("rd", "2+ 1+", frozenset({"456123"})),
    ("prd", "1. 2-", frozenset({"132"})),
    ("prd", "2+ 1.", frozenset({"231"})),
    ("prd", "2. 1+", frozenset({"312"})),
    ("prd", "3. 1- 2.", frozenset({"4213"})),
    ("prd", "2- 3. 1.", frozenset({"3241"})),
)

STANDARD_BASES: dict[tuple[str, int], frozenset[str]] = {
    ("rd", 1): frozenset({"2143", "231", "312"}),
    ("prd", 1): frozenset({"132", "231", "312"}),
    ("prd", 2): frozenset({"132", "3241", "3412", "4213", "4231"}),
}

# Basis of B_2 for reversals, by a sweep of the ball levels up to length 14,
# past which no member can exist (basis.standard_basis_bound); no member is
# longer than 6.  Exactly three of the 31 members avoid the entire M-set
# union: their pegs (3+ 2+ 1., 3+ 2. 1+, 3. 2+ 1+) properly contain the
# basis peg 2+ 1+, whose only witness 456123 is too long to fit inside them.
RD_K2_BASIS: frozenset[str] = frozenset({
    "2413", "3142",
    "21453", "21534", "23154", "23541", "24351", "24531", "25341", "31254",
    "32451", "34251", "35421", "42351", "43521", "45231", "45312", "51243",
    "51324", "51342", "51423", "52134", "52314", "52431", "53124", "53241",
    "53412", "54132", "54213",
    "214365", "456123",
})
RD_K2_BASIS_SWEEP_ONLY: frozenset[str] = frozenset({"45231", "45312", "53412"})

# --- the A_{2^+1^+} fiber (Figure 1) -----------------------------------------

FIGURE1_BETA = "2+ 1+"
FIGURE1_BOTTOM = "3412"
FIGURE1_BOTTOM_DISTANCE = 2
FIGURE1_COVERS: frozenset[str] = frozenset({"34512", "45123"})
FIGURE1_COVER_DISTANCE = 2
FIGURE1_MINIMAL_AT_3 = "456123"
FIGURE1_MAX_LENGTH = 6

# --- exceptional prefix-reversal families ------------------------------------

# (kind, n, peg permutation); distance_peg(prd, pp) = n for each, and each
# lies in the prefix-reversal peg bases at k = n-2 and k = n-1.
EXCEPTIONAL_FORMS: tuple[tuple[str, int, str], ...] = (
    ("theta_even", 2, "2. 1+"),
    ("lambda_even", 2, "2+ 1."),
    ("theta_odd", 3, "3. 1- 2."),
    ("lambda_odd", 3, "2- 3. 1."),
    ("theta_even", 4, "4. 2. 1+ 3."),
    ("lambda_even", 4, "3+ 2. 4. 1."),
    ("theta_odd", 5, "5. 3. 1- 2. 4."),
    ("lambda_odd", 5, "3- 4. 2. 5. 1."),
)

# --- ball counts -------------------------------------------------------------

# |B_2^(prd)(n)| = (n-1)^2 + 1: 1, 2, 5, 10, 17, 26, ... (A002522 shifted so
# the quadratic is evaluated at n-1; the three counting methods agree with
# exhaustive BFS throughout).
def prd_k2_count(n: int) -> int:
    return (n - 1) ** 2 + 1


BALL_COUNTS: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("rd", 0, (1, 1, 1, 1)),
    ("rd", 1, (1, 2, 4, 7)),
    ("prd", 2, (1, 2, 5, 10, 17, 26)),
)

# Number of clean compact peg permutations of length 2 (5 decoration choices
# on each of the two bases).
CLEAN_COMPACT_COUNT_N2 = 10
