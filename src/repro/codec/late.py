"""Bind the wire codec's upper-layer names, once, after the import cycle resolves.

:mod:`repro.codec.wire` encodes frontier structures, user operations,
logged writes, tickets and federation envelopes, and every module defining
those imports the storage package or the codec itself.  The codec is first
imported while ``repro.core`` is still initialising, so it declares these
names without importing them.  The package root imports this module as its
last statement: by then ``core`` and ``storage`` have finished initialising,
the imports below are ordinary, and each name the codec declares is bound
into it here as a module global.  A declared name missing below fails the
first import of :mod:`repro`, not a codec call in some peer process.
"""

from __future__ import annotations

from ..core.frontier import (
    DeleteSubsetOperation,
    ExpandOperation,
    FrontierTuple,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
    UnifyOperation,
)
from ..core.update import DeleteOperation, InsertOperation, NullReplacementOperation
from ..core.violations import Violation, ViolationKind
from ..federation.envelopes import (
    ExchangeFiring,
    ExchangeRetraction,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
)
from ..federation.operations import RemoteFiringOperation, RemoteRetractionOperation
from ..federation.transport import Bundle
from ..service.tickets import RemoteOrigin
from . import wire

for _name in wire.__annotations__:
    setattr(wire, _name, globals()[_name])
