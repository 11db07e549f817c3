"""Query package: homomorphisms, compiled match plans, violation and correction queries."""

from .base import ReadQuery
from .compiled import (
    CompiledConjunction,
    CompiledMappings,
    CompiledTgd,
    compile_mappings,
    get_plan,
)
from .correction_query import (
    MoreSpecificQuery,
    NullOccurrenceQuery,
    correction_queries_for_frontier_tuple,
)
from .homomorphism import exists_match, find_matches
from .violation_query import ViolationQuery, ViolationRow

__all__ = [
    "CompiledConjunction",
    "CompiledMappings",
    "CompiledTgd",
    "MoreSpecificQuery",
    "NullOccurrenceQuery",
    "ReadQuery",
    "ViolationQuery",
    "ViolationRow",
    "compile_mappings",
    "correction_queries_for_frontier_tuple",
    "exists_match",
    "find_matches",
    "get_plan",
]
