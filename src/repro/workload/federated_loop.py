"""Answer strategies for federated frontier questions.

A federated question waits in its originating peer's inbox until a client
answers it; these are the two scripted clients the benchmark and the
examples answer with.
"""

from __future__ import annotations

from ..core.frontier import (
    DeleteSubsetOperation,
    ExpandOperation,
    FrontierOperation,
    NegativeFrontierRequest,
)
from ..federation.network import FederatedQuestion
from .closed_loop import conservative_answer as _conservative_answer


def expanding_answer(question: FederatedQuestion) -> FrontierOperation:
    """Always-expand: the pure restricted-chase policy.

    Mirrors :class:`~repro.core.oracle.AlwaysExpandOracle`, which the
    differential reference uses — under it both the federation and the
    single-repository chase perform plain chase steps, so their results are
    homomorphically equivalent whenever the mapping set terminates (the
    generated scenarios are acyclic by construction).  Negative frontiers
    delete the first candidate.
    """
    request = question.request
    if isinstance(request, NegativeFrontierRequest):
        return DeleteSubsetOperation((request.candidates[0],))
    return ExpandOperation(request.frontier_tuples[0])


def conservative_answer(question: FederatedQuestion) -> FrontierOperation:
    """Prefer unification — the terminating policy for cyclic topologies."""
    return _conservative_answer(question)
