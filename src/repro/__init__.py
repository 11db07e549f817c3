"""repro — a reproduction of "Cooperative Update Exchange in the Youtopia System".

The package implements the Youtopia update-exchange model of Kot & Koch
(VLDB 2009): a cooperative chase over relational data connected by
tuple-generating dependencies, frontier tuples and frontier operations,
optimistic multiversion concurrency control for concurrently running updates,
and the NAIVE / COARSE / PRECISE cascading-abort algorithms evaluated in the
paper's experiments.

Quick start::

    from repro import ChaseEngine, InsertOperation, RandomOracle, make_tuple
    from repro.fixtures import travel_repository

    database, mappings = travel_repository()
    engine = ChaseEngine(database, mappings, oracle=RandomOracle(seed=0))
    record = engine.run(InsertOperation(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")))
    print(record.summary())
"""

from .core import (
    AlwaysExpandOracle,
    AlwaysUnifyOracle,
    Atom,
    ChaseConfig,
    ChaseEngine,
    Constant,
    DatabaseSchema,
    DeferredOracle,
    DeleteOperation,
    FrontierOracle,
    InsertOperation,
    LabeledNull,
    MappingSet,
    NullFactory,
    NullReplacementOperation,
    RandomOracle,
    RelationSchema,
    ScriptedOracle,
    Tgd,
    Tuple,
    UpdateRecord,
    Variable,
    Violation,
    ViolationKind,
    find_all_violations,
    make_tuple,
    parse_tgd,
    parse_tgds,
    satisfies_all,
)
from .storage import MemoryDatabase

# Last: imports every layer above storage to bind the wire codec's names.
from .codec import late as _codec_late  # noqa: E402,F401

__version__ = "1.1.0"

__all__ = [
    "AlwaysExpandOracle",
    "AlwaysUnifyOracle",
    "Atom",
    "ChaseConfig",
    "ChaseEngine",
    "Constant",
    "DatabaseSchema",
    "DeferredOracle",
    "DeleteOperation",
    "FrontierOracle",
    "InsertOperation",
    "LabeledNull",
    "MappingSet",
    "MemoryDatabase",
    "NullFactory",
    "NullReplacementOperation",
    "RandomOracle",
    "RelationSchema",
    "ScriptedOracle",
    "Tgd",
    "Tuple",
    "UpdateRecord",
    "Variable",
    "Violation",
    "ViolationKind",
    "find_all_violations",
    "make_tuple",
    "parse_tgd",
    "parse_tgds",
    "satisfies_all",
    "__version__",
]
