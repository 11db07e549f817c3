"""Multi-peer scenario generation for the federation layer.

Generates complete federated environments: a global schema partitioned over
N peers, per-peer local mappings plus cross-peer mappings, an initial
database satisfying the union (built by update exchange itself, as in
Section 6), and per-peer operation streams.

Two properties are engineered in, both needed by the differential
convergence tests (:mod:`repro.federation.convergence`):

* **Terminating union.**  Relations carry a global order (peer-major); every
  generated mapping points strictly forward in that order, so the union's
  relation graph is acyclic — in particular weakly acyclic — and every chase
  (always-expand included) terminates regardless of interleaving.  Cyclic
  topologies are deliberately left to the hand-built fixtures, where the
  conservative unify policies keep them finite.
* **Chase-free deletes.**  Each peer reserves *free* relations that no
  mapping mentions; generated deletes target only initial tuples of the
  deleting peer's own free relations.  The serial reference and the
  federation then agree on deletions by construction, while inserts exercise
  the full local + cross-peer cascade (including envelopes racing deliveries
  under delay, reorder and partition).  Cross-peer *retraction* traffic is
  covered by the directed fixtures in the federation tests, where the
  deterministic witness choice can be pinned against the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..core.atoms import Atom
from ..core.schema import DatabaseSchema, RelationSchema, generic_attributes
from ..core.terms import Constant, Variable
from ..core.tgd import MappingSet, Tgd
from ..core.tuples import Tuple
from ..core.update import DeleteOperation, InsertOperation, UserOperation
from ..service.admission import AdmissionConfig
from ..storage.memory import FrozenDatabase
from .data_gen import generate_initial_database
from .schema_gen import generate_constant_pool


@dataclass
class FederationScenarioConfig:
    """All knobs of one generated multi-peer scenario."""

    num_peers: int = 3
    #: Relations owned by each peer (mapping-visible plus free ones).
    relations_per_peer: int = 4
    #: Of those, relations no mapping mentions (the delete targets).
    free_relations_per_peer: int = 1
    min_arity: int = 1
    max_arity: int = 3
    #: Intra-peer mappings generated per peer.
    local_mappings_per_peer: int = 2
    #: Cross-peer mappings generated over the whole federation.
    cross_mappings: int = 4
    #: Seed tuples chased into the initial database.
    initial_tuples: int = 24
    #: User operations submitted per peer.
    operations_per_peer: int = 6
    #: Fraction of each peer's operations that are (free-relation) deletes.
    delete_fraction: float = 0.25
    #: Fraction of inserts targeting a relation owned by *another* peer
    #: (exercising update routing through the transport).
    remote_insert_fraction: float = 0.25
    constant_pool_size: int = 20
    seed: int = 0
    #: Heterogeneous federation: peer 0 becomes a *slow archive* (tight
    #: admission, slow links), the last peer a *fast edge*, in-between peers
    #: interpolate — per-peer :class:`AdmissionConfig`s and per-link delays
    #: are generated alongside the scenario.  Off by default so homogeneous
    #: scenarios (and their recorded bench numbers) reproduce unchanged.
    heterogeneous: bool = False
    #: Link-delay range (transport pumps) sampled per directed link when
    #: heterogeneous; links touching the archive always get the maximum.
    min_link_delay: int = 0
    max_link_delay: int = 3
    #: Admission bounds interpolated from archive (first) to edge (last).
    archive_max_in_flight: int = 2
    edge_max_in_flight: int = 12

    def peer_names(self) -> List[str]:
        return ["p{}".format(index) for index in range(self.num_peers)]


@dataclass
class FederationEnvironment:
    """Everything one federated scenario run needs."""

    config: FederationScenarioConfig
    schema: DatabaseSchema
    ownership: Dict[str, List[str]]
    #: Non-free relations per peer (the mapping-visible ones).
    mapped_relations: Dict[str, List[str]]
    mappings: MappingSet
    initial: FrozenDatabase
    #: Per-peer operation streams, keyed by submitting peer.
    operations: Dict[str, List[UserOperation]] = field(default_factory=dict)
    #: Per-peer admission configs (``None`` for a homogeneous federation) —
    #: pass directly as ``FederatedNetwork(admission=...)``.
    admission_configs: Optional[Dict[str, AdmissionConfig]] = None
    #: Per-directed-link delays in pumps (empty for a homogeneous federation).
    link_delays: Dict[PyTuple[str, str], int] = field(default_factory=dict)


def _generate_side(
    relations: Sequence[str],
    schema: DatabaseSchema,
    rng: random.Random,
    pool: Sequence[str],
    exported: Optional[List[Variable]],
    counter: List[int],
) -> PyTuple[List[Atom], List[Variable]]:
    """Generate one side (1–2 atoms) over *relations*.

    With ``exported is None`` this is an LHS: fresh variables with a shared
    join variable when two atoms are drawn.  Otherwise it is an RHS: each
    atom position exports an LHS variable, reuses an existential, mints a new
    existential, or takes a pool constant.
    """
    size = 1 if len(relations) == 1 or rng.random() < 0.6 else 2
    chosen = [rng.choice(list(relations)) for _ in range(size)]
    atoms: List[Atom] = []
    variables: List[Variable] = []
    existentials: List[Variable] = []
    exported_any = False
    for atom_index, relation in enumerate(chosen):
        arity = schema.arity_of(relation)
        terms: List[object] = []
        for position in range(arity):
            roll = rng.random()
            if exported is None:
                if roll < 0.12:
                    terms.append(Constant(rng.choice(list(pool))))
                elif atom_index > 0 and variables and roll < 0.55:
                    terms.append(rng.choice(variables))  # inter-atom join
                else:
                    counter[0] += 1
                    variable = Variable("v{}".format(counter[0]))
                    variables.append(variable)
                    terms.append(variable)
            else:
                if roll < 0.1:
                    terms.append(Constant(rng.choice(list(pool))))
                elif exported and roll < 0.65:
                    terms.append(rng.choice(exported))
                    exported_any = True
                elif existentials and rng.random() < 0.3:
                    terms.append(rng.choice(existentials))
                else:
                    counter[0] += 1
                    variable = Variable("z{}".format(counter[0]))
                    existentials.append(variable)
                    terms.append(variable)
        atoms.append(Atom(relation, terms))
    if exported is not None and exported and not exported_any:
        # Guarantee the mapping exports something (an unconditional existence
        # constraint would fire on every update forever).
        target = atoms[0]
        position = rng.randrange(target.arity)
        terms = list(target.terms)
        terms[position] = rng.choice(exported)
        atoms[0] = Atom(target.relation, terms)
    return atoms, variables


def _generate_mapping(
    lhs_relations: Sequence[str],
    rhs_relations: Sequence[str],
    schema: DatabaseSchema,
    rng: random.Random,
    pool: Sequence[str],
    name: str,
) -> Tgd:
    counter = [0]
    lhs, lhs_variables = _generate_side(lhs_relations, schema, rng, pool, None, counter)
    rhs, _ = _generate_side(rhs_relations, schema, rng, pool, lhs_variables, counter)
    return Tgd(lhs, rhs, name=name)


def generate_federation_environment(
    config: Optional[FederationScenarioConfig] = None,
) -> FederationEnvironment:
    """Generate one complete multi-peer scenario from *config* (seeded)."""
    config = config if config is not None else FederationScenarioConfig()
    if config.num_peers < 2:
        raise ValueError("a federation needs at least two peers")
    if config.free_relations_per_peer >= config.relations_per_peer:
        raise ValueError("every peer needs at least one mapping-visible relation")
    rng = random.Random(config.seed)
    pool = generate_constant_pool(
        size=config.constant_pool_size, rng=random.Random(rng.random())
    )

    peers = config.peer_names()
    ownership: Dict[str, List[str]] = {}
    mapped: Dict[str, List[str]] = {}
    free: Dict[str, List[str]] = {}
    relations: List[RelationSchema] = []
    for peer_index, peer in enumerate(peers):
        owned: List[str] = []
        for relation_index in range(config.relations_per_peer):
            name = "{}r{}".format(peer, relation_index)
            arity = rng.randint(config.min_arity, config.max_arity)
            relations.append(RelationSchema(name, generic_attributes(arity)))
            owned.append(name)
        ownership[peer] = owned
        cut = config.relations_per_peer - config.free_relations_per_peer
        mapped[peer] = owned[:cut]
        free[peer] = owned[cut:]
    schema = DatabaseSchema.from_relations(relations)

    mappings = MappingSet()
    serial = [0]

    def next_name() -> str:
        serial[0] += 1
        return "sigma{}".format(serial[0])

    # Local mappings: strictly forward within the peer's mapped relations,
    # so the union's relation graph stays acyclic.
    for peer in peers:
        visible = mapped[peer]
        if len(visible) < 2:
            continue
        for _ in range(config.local_mappings_per_peer):
            split = rng.randint(1, len(visible) - 1)
            mappings.add(
                _generate_mapping(
                    visible[:split], visible[split:], schema, rng, pool, next_name()
                )
            )
    # Cross mappings: LHS at an earlier peer, RHS at a strictly later one —
    # forward in the global (peer-major) relation order by construction.
    for _ in range(config.cross_mappings):
        source_index = rng.randrange(0, config.num_peers - 1)
        target_index = rng.randrange(source_index + 1, config.num_peers)
        mappings.add(
            _generate_mapping(
                mapped[peers[source_index]],
                mapped[peers[target_index]],
                schema,
                rng,
                pool,
                next_name(),
            )
        )
    mappings.validate(schema)
    assert not mappings.has_cycle(), "generated union mapping graph must be acyclic"

    initial = generate_initial_database(
        schema,
        mappings,
        config.initial_tuples,
        pool,
        rng=random.Random(rng.random()),
    ).snapshot()

    operations: Dict[str, List[UserOperation]] = {}
    fresh = [0]
    deletable: Dict[str, List[Tuple]] = {
        peer: sorted(
            (row for name in free[peer] for row in initial.tuples(name)),
            key=repr,
        )
        for peer in peers
    }
    for peer_index, peer in enumerate(peers):
        stream: List[UserOperation] = []
        num_deletes = int(round(config.operations_per_peer * config.delete_fraction))
        for _ in range(config.operations_per_peer):
            if num_deletes > 0 and deletable[peer] and rng.random() < config.delete_fraction * 2:
                victim = deletable[peer].pop(rng.randrange(len(deletable[peer])))
                stream.append(DeleteOperation(victim))
                num_deletes -= 1
                continue
            if rng.random() < config.remote_insert_fraction:
                other = rng.choice([name for name in peers if name != peer])
                relation = rng.choice(mapped[other])
            else:
                relation = rng.choice(mapped[peer])
            arity = schema.arity_of(relation)
            values: List[object] = []
            for _ in range(arity):
                if rng.random() < 0.5:
                    fresh[0] += 1
                    values.append("{}n{}".format(peer, fresh[0]))
                else:
                    values.append(rng.choice(list(pool)))
            stream.append(InsertOperation(Tuple(relation, values)))
        operations[peer] = stream

    admission_configs: Optional[Dict[str, AdmissionConfig]] = None
    link_delays: Dict[PyTuple[str, str], int] = {}
    if config.heterogeneous:
        admission_configs = _heterogeneous_admission(config, peers)
        link_delays = _heterogeneous_link_delays(
            config, peers, random.Random(rng.random())
        )

    return FederationEnvironment(
        config=config,
        schema=schema,
        ownership=ownership,
        mapped_relations=mapped,
        mappings=mappings,
        initial=initial,
        operations=operations,
        admission_configs=admission_configs,
        link_delays=link_delays,
    )


def _heterogeneous_admission(
    config: FederationScenarioConfig, peers: Sequence[str]
) -> Dict[str, AdmissionConfig]:
    """Per-peer admission: archive (first) tight, edge (last) wide.

    The archive peer admits few concurrent updates in singleton batches (a
    conservative, abort-averse store); edge peers admit wide compatible
    groups.  In-between peers interpolate linearly.
    """
    configs: Dict[str, AdmissionConfig] = {}
    span = max(1, len(peers) - 1)
    low = config.archive_max_in_flight
    high = config.edge_max_in_flight
    for index, peer in enumerate(peers):
        in_flight = low + int(round((high - low) * index / span))
        configs[peer] = AdmissionConfig(
            max_in_flight=max(1, in_flight),
            batch_size=max(1, in_flight // 2),
            compatible_groups=index > 0,
        )
    return configs


def _heterogeneous_link_delays(
    config: FederationScenarioConfig,
    peers: Sequence[str],
    rng: random.Random,
) -> Dict[PyTuple[str, str], int]:
    """Per-directed-link delays: archive links slow, the rest sampled."""
    delays: Dict[PyTuple[str, str], int] = {}
    archive = peers[0]
    for source in peers:
        for destination in peers:
            if source == destination:
                continue
            if archive in (source, destination):
                delay = config.max_link_delay
            else:
                delay = rng.randint(config.min_link_delay, config.max_link_delay)
            delays[(source, destination)] = delay
    return delays
