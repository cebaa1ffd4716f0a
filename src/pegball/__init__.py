"""Reversal and prefix-reversal balls of permutations via peg permutations."""

from .perm import *
from .peg import *
from .inflation import *
from .distance import *
from .generators import *
from .basis import *
from .enumeration import *

__version__ = "0.1.0"


def __getattr__(name: str):
    """The self-check names, imported with verify (and reference) on first use."""
    if name in ("CheckResult", "paper_suite", "property_suite", "run_suites"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
