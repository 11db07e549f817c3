"""Core package: terms, tuples, mappings, violations, the chase and updates."""

from .atoms import Atom
from .chase import ChaseConfig, ChaseEngine
from .frontier import (
    DeleteSubsetOperation,
    DeterministicRepair,
    ExpandOperation,
    FrontierTuple,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
    UnifyOperation,
)
from .oracle import (
    AlwaysExpandOracle,
    AlwaysUnifyOracle,
    CallbackOracle,
    DeferredOracle,
    FrontierOracle,
    FrontierPending,
    InteractiveOracle,
    OracleError,
    PendingDecision,
    RandomOracle,
    ScriptedOracle,
)
from .schema import DatabaseSchema, RelationSchema, SchemaError
from .terms import Constant, LabeledNull, NullFactory, Variable
from .tgd import MappingGraph, MappingSet, Tgd, TgdError, parse_tgd, parse_tgds
from .tuples import Tuple, make_tuple
from .update import (
    DeleteOperation,
    InsertOperation,
    NullReplacementOperation,
    UpdateRecord,
    UpdateStatus,
    UserOperation,
)
from .violations import Violation, ViolationKind, find_all_violations, satisfies_all
from .writes import NullReplacement, Write, WriteKind, delete, insert, modify

__all__ = [
    "Atom",
    "ChaseConfig",
    "ChaseEngine",
    "Constant",
    "DatabaseSchema",
    "DeleteOperation",
    "DeleteSubsetOperation",
    "DeterministicRepair",
    "ExpandOperation",
    "FrontierOracle",
    "FrontierTuple",
    "InsertOperation",
    "LabeledNull",
    "MappingGraph",
    "MappingSet",
    "NegativeFrontierRequest",
    "NullFactory",
    "NullReplacement",
    "NullReplacementOperation",
    "PositiveFrontierRequest",
    "RandomOracle",
    "RelationSchema",
    "SchemaError",
    "ScriptedOracle",
    "Tgd",
    "TgdError",
    "Tuple",
    "UnifyOperation",
    "UpdateRecord",
    "UpdateStatus",
    "UserOperation",
    "Variable",
    "Violation",
    "ViolationKind",
    "Write",
    "WriteKind",
    "AlwaysExpandOracle",
    "AlwaysUnifyOracle",
    "CallbackOracle",
    "DeferredOracle",
    "FrontierPending",
    "InteractiveOracle",
    "OracleError",
    "PendingDecision",
    "delete",
    "find_all_violations",
    "insert",
    "make_tuple",
    "modify",
    "parse_tgd",
    "parse_tgds",
    "satisfies_all",
]
