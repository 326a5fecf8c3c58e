"""Shift trees: strings under point writes, cheap cyclic rotations, and
cross-tree difference listing — plus a modular subset-sum solver built on
them.

Two interchangeable tree variants: ``HashedShiftTree`` summarizes subtrees
with polynomial hashes modulo a random 81-bit prime (fast, fails with
vanishing probability) and ``TaggedShiftTree`` learns subtree equality
lazily through a shared ``TagStore`` (exact, needs only ``==`` on letters).
"""

from .hashed_tree import HashedShiftTree
from .hashing import HashContext, make_context
from .schedule import ShiftSchedule, bitrev
from .subset_sum import (
    BACKENDS,
    HashCollisionError,
    Instance,
    SolveResult,
    SolverStats,
    SumSet,
    solve,
    solve_naive,
    solve_with_stats,
)
from .tag_store import TagStore
from .tagged_tree import TaggedShiftTree
from .topology import Topology

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "HashCollisionError",
    "HashContext",
    "HashedShiftTree",
    "Instance",
    "ShiftSchedule",
    "SolveResult",
    "SolverStats",
    "SumSet",
    "TagStore",
    "TaggedShiftTree",
    "Topology",
    "bitrev",
    "make_context",
    "solve",
    "solve_naive",
    "solve_with_stats",
]
