"""Differential convergence: the drained federation vs. the one-repository chase.

Chase results are unique only up to the renaming of labeled nulls — every
terminating chase of the same instance under the same tgds yields a
*universal solution*, and any two universal solutions are homomorphically
equivalent (mapping nulls to terms, fixing constants).  That is therefore the
identity criterion used here: the federation's global committed state and the
single-repository :class:`~repro.core.chase.ChaseEngine` result must each map
homomorphically into the other.  Because a homomorphism fixes constants, this
criterion already forces the *ground* (null-free) parts of the two databases
to be exactly equal — which the checker also asserts directly, as the much
cheaper first pass.  :func:`~repro.query.homomorphism.find_homomorphism`
finds the homomorphisms on the chase's compiled join executor, whose
explicit stack needs no raised recursion limit however many facts carry nulls.

The reference run replays the same user operations serially against one
:class:`~repro.storage.memory.MemoryDatabase` holding the union of all peers'
mappings, with :class:`~repro.core.oracle.AlwaysExpandOracle` standing in for
the humans — the same always-expand policy
:func:`~repro.workload.federated_loop.expanding_answer` applies on the
federated side, so both sides perform plain restricted-chase steps and the
universal-solution argument applies end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from ..core.chase import ChaseConfig, ChaseEngine
from ..core.oracle import AlwaysExpandOracle, FrontierOracle
from ..core.terms import NullFactory
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.update import UpdateRecord, UserOperation
from ..query.homomorphism import find_homomorphism
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase, MemoryDatabase


# ----------------------------------------------------------------------
# Homomorphic equivalence of instances with labeled nulls
# ----------------------------------------------------------------------
def _ground(view: DatabaseView) -> Set[Tuple]:
    rows = (row for relation in view.relations() for row in view.tuples(relation))
    return {row for row in rows if not row.null_set()}


def _homomorphic_both_ways(a: DatabaseView, b: DatabaseView) -> bool:
    return find_homomorphism(a, b) is not None and find_homomorphism(b, a) is not None


def databases_equivalent(a: DatabaseView, b: DatabaseView) -> bool:
    """Homomorphic equivalence — the identity criterion for chase results."""
    return _ground(a) == _ground(b) and _homomorphic_both_ways(a, b)


# ----------------------------------------------------------------------
# The single-repository reference
# ----------------------------------------------------------------------
@dataclass
class ReferenceRun:
    """The single-repository chase over the union of mappings."""

    final: FrozenDatabase
    records: List[UpdateRecord] = field(default_factory=list)

    @property
    def frontier_operations(self) -> int:
        return sum(record.frontier_operation_count for record in self.records)

    @property
    def all_terminated(self) -> bool:
        return all(record.terminated for record in self.records)


def reference_chase(
    schema,
    initial: DatabaseView,
    mappings: Sequence[Tgd],
    operations: Sequence[UserOperation],
    oracle: Optional[FrontierOracle] = None,
    max_steps_per_update: int = 50_000,
) -> ReferenceRun:
    """Replay *operations* serially against one repository holding *mappings*."""
    database = MemoryDatabase(schema)
    database.load_from(initial)
    engine = ChaseEngine(
        database,
        list(mappings),
        oracle=oracle if oracle is not None else AlwaysExpandOracle(),
        null_factory=NullFactory.avoiding_view(initial, prefix="ref"),
        config=ChaseConfig(
            max_steps=max_steps_per_update,
            max_frontier_operations=max_steps_per_update,
            track_provenance=False,
        ),
    )
    records = engine.run_all(list(operations))
    return ReferenceRun(final=database.snapshot(), records=records)


# ----------------------------------------------------------------------
# The convergence report
# ----------------------------------------------------------------------
@dataclass
class ConvergenceReport:
    """Side-by-side reconciliation of a drained federation and its reference."""

    equivalent: bool
    ground_equal: bool
    federation_tuples: int
    reference_tuples: int
    #: Abort counts are an *execution* artifact (optimistic interleaving per
    #: peer), not a semantic one; they are reported for reconciliation, not
    #: compared — the serial reference never aborts.
    federation_aborts: int
    federation_frontier_resumes: int
    reference_frontier_operations: int

    def summary(self) -> str:
        return (
            "convergence: {} (ground {}); {} vs {} tuples; "
            "{} federated aborts, {} federated resumes, {} reference frontier ops".format(
                "EQUIVALENT" if self.equivalent else "DIVERGED",
                "equal" if self.ground_equal else "DIFFERENT",
                self.federation_tuples,
                self.reference_tuples,
                self.federation_aborts,
                self.federation_frontier_resumes,
                self.reference_frontier_operations,
            )
        )


def check_convergence(network, reference: ReferenceRun) -> ConvergenceReport:
    """Compare a drained federation's global state against a reference run."""
    if not network.quiescent():
        raise RuntimeError("convergence is only defined on a drained federation")
    federated = network.global_snapshot()
    ground_equal = _ground(federated) == _ground(reference.final)
    equivalent = ground_equal and _homomorphic_both_ways(federated, reference.final)
    federation_aborts = 0
    federation_resumes = 0
    for peer in network.peers():
        statistics = peer.service.statistics
        federation_aborts += statistics.aborts
        federation_resumes += statistics.frontier_resumes
    return ConvergenceReport(
        equivalent=equivalent,
        ground_equal=ground_equal,
        federation_tuples=sum(
            federated.count(relation) for relation in federated.relations()
        ),
        reference_tuples=sum(
            reference.final.count(relation) for relation in reference.final.relations()
        ),
        federation_aborts=federation_aborts,
        federation_frontier_resumes=federation_resumes,
        reference_frontier_operations=reference.frontier_operations,
    )
