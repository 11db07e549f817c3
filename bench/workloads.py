"""The five workloads: inputs, systems under test, correctness checks.

Every workload turns ``--seed`` into operation streams and nothing else: the
*deployment* (schema, mappings, initial database) is generated from the fixed
``SCENARIO_SEED``, because mapping topology alone moves throughput by an order
of magnitude between scenario seeds and would bury any code change.  Sizes are
constants here (no scale knob) and are recorded in every result file.

========== ==============================================================
sock_relay   ``ProcessFederation``; chase-free inserts into the *next*
             peer's free relation.  No mapping fires, no question is asked:
             control frame -> peer -> envelope -> owner commit -> notice ->
             ticket event is all the work (codec, framing, event loops).
sock_mixed   ``ProcessFederation``; inserts with local and cross-peer
             cascades, free-relation deletes, remote inserts, relayed
             questions.  Every layer is on the path.
inproc_mixed ``FederatedNetwork``; the same scenario and streams as
             ``sock_mixed`` with processes, framing, sockets and the
             coordinator removed: the gap between the two is the runtime.
repo_batch   one ``OptimisticScheduler`` over one ``VersionedDatabase``
             (Section 6 / Fig. 4): batches of mixed 80/20 updates submitted
             at once, random oracle.  Violation queries, dependency tracker
             and validate/abort dominate; no codec, no federation.
repo_durable one ``RepositoryService(durable_dir=...)``, four sessions,
             Section 6 mixed stream, periodic checkpoints, then a final
             checkpoint and ``restore()``: log-segment and checkpoint writes
             beside the chase's reads, and the only place recovery is timed.
========== ==============================================================
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import resource
import statistics
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from repro.codec.wire import dumps, encode_user_operation
from repro.concurrency.dependencies import make_tracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.concurrency.policies import make_policy
from repro.core.oracle import RandomOracle
from repro.core.terms import Constant, NullFactory
from repro.core.tuples import Tuple
from repro.core.update import DeleteOperation, InsertOperation
from repro.core.violations import find_all_violations, satisfies_all
from repro.federation import (
    FederatedNetwork,
    FederationError,
    ProcessFederation,
    databases_equivalent,
    reference_chase,
)
from repro.obs import NOOP_TRACER, TraceAnalysis, Tracer, load_spans, merge_spans
from repro.service import RepositoryService, TicketStatus
from repro.storage.versioned import VersionedDatabase
from repro.workload import (
    MIXED_WORKLOAD,
    ExperimentConfig,
    build_environment,
    build_workload,
    conservative_answer,
)
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)
from repro.workload.mapping_gen import mapping_prefix
from repro.workload.workloads import mixed_workload

from . import trace
from .loadgen import CLIENTS, OP_DEADLINE_S, LoopResult, closed_loop, percentile

#: Seed of every generated deployment (see the module docstring).
SCENARIO_SEED = 0
#: Untimed operations per client before the window opens.
WARMUP_OPS_PER_CLIENT = 20
#: Stands in for ``--seed`` in the warm-up streams: set-up does the same work
#: whatever the seed, so ``setup_s`` measures the program and not the draw.
WARMUP_SEED = "warmup"

RELAY_SCENARIO = FederationScenarioConfig(
    num_peers=CLIENTS, relations_per_peer=5, cross_mappings=10,
    initial_tuples=60, operations_per_peer=0, seed=SCENARIO_SEED,
)
MIXED_SCENARIO = FederationScenarioConfig(
    num_peers=CLIENTS, relations_per_peer=5, cross_mappings=10,
    initial_tuples=1200, operations_per_peer=0, seed=7,
)
MIXED_DELETE_FRACTION = 0.25
MIXED_REMOTE_FRACTION = 0.25
#: Section 6 defaults: 20 relations, 25 mappings, PRECISE, round-robin-step.
REPO_CONFIG = ExperimentConfig()
#: Updates submitted at once per ``repo_batch`` round.
BATCH_UPDATES = 20
#: Untimed ``repo_batch`` rounds; their exact counts are ``aborts_per_op``.
BATCH_WARMUP_ROUNDS = 20
#: The timed rounds are passes over this many fixed batches (about 2 s a
#: pass); ``--seed`` decides the order inside each pass and nothing else.  A
#: round's time follows its draw (6 ms to 0.9 s, log-normal with sigma 0.9),
#: so over free draws a ten-second run spreads 15% between seeds — more than
#: most regressions worth catching — while the same batches repeat within 4%.
BATCH_CATALOGUE = 40
DURABLE_INITIAL_TUPLES = 600
#: The first mappings of the Section 6 family (a sparse prefix): cascades stay
#: short, so the storage layer's writes are a visible share of an operation.
DURABLE_MAPPINGS = 10
#: Commits between checkpoints.  With four clients every checkpoint delays the
#: four operations in flight, 8% of all, which puts ``turnaround_p95_ms`` of
#: this workload squarely on the checkpoint pause and not on the cliff beside it.
DURABLE_CHECKPOINT_EVERY = 50
#: Operations generated per ``mixed_workload`` call of the durable stream.
DURABLE_CHUNK = 200

#: Additive counters folded out of ``RepositoryService.metrics_snapshot()``.
_SERVICE_SUMS = {
    "steps": "scheduler_steps",
    "aborts": "scheduler_aborts",
    "cascading_aborts": "scheduler_cascading_aborts",
    "tracker_cost_units": "scheduler_tracker_cost_units",
    "executed": "scheduler_updates_executed",
    "group_commits": "scheduler_group_commits",
    "group_commit_members": "scheduler_group_commit_members",
    "committed": "committed",
    "parks": "parks",
    "restarts": "restarts",
    "compactions": "store_compactions",
    "sql_evaluations": "sql_chase_evaluations",
    "sql_python_fallbacks": "sql_chase_python_fallbacks",
}
#: Gauges and percentiles: the end value (summed or maxed), never a delta.
_SERVICE_GAUGES = {
    "log_entries_end": ("store_log_entries", sum),
    "versions_end": ("store_versions", sum),
    "queue_wait_p50_s": ("queue_wait_p50_seconds", max),
    "queue_wait_p95_s": ("queue_wait_p95_seconds", max),
    "frontier_wait_p95_s": ("frontier_wait_p95_seconds", max),
}


def fold_service_snapshots(snapshots: Sequence[Dict]) -> Dict[str, float]:
    """One counter dict out of one snapshot per repository service."""
    folded = {
        key: float(sum(snapshot.get(source, 0) for snapshot in snapshots))
        for key, source in _SERVICE_SUMS.items()
    }
    for key, (source, combine) in _SERVICE_GAUGES.items():
        folded[key] = float(
            combine([snapshot.get(source, 0) for snapshot in snapshots] or [0])
        )
    return folded


def rows_of(view) -> int:
    return sum(view.count(relation) for relation in view.relations())


def _live_children() -> List[str]:
    """Pids of the live children of this process (the peer processes)."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue  # raced with an exiting process
        if ppid == me:
            children.append(entry)
    return children


def child_cpu_seconds() -> float:
    """CPU seconds used so far by the live children of this process."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in _live_children():
        try:
            with open("/proc/{}/stat".format(pid)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks  # utime + stime
    return total


def written_bytes() -> int:
    """``wchar`` of this process: bytes handed to write-like syscalls."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Largest peak resident set (``VmHWM``) among this process and its live children."""
    kilobytes = 0
    for pid in ["self"] + _live_children():
        try:
            with open("/proc/{}/status".format(pid)) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kilobytes = max(kilobytes, int(line.split()[1]))
        except OSError:
            continue
    return kilobytes / 1024.0


def peak_rss_run_mb() -> float:
    """Largest resident set of the whole run: this process and its reaped children."""
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


# ----------------------------------------------------------------------
# Systems under test, behind the load generator's protocol
# ----------------------------------------------------------------------
class _FederationSystem:
    """What the two federation runtimes share: routing clients to peers."""

    def __init__(self, environment):
        self.peers = environment.config.peer_names()
        #: (operation, ticket) of everything submitted, warm-up included.
        self.submitted: List[PyTuple[object, object]] = []

    def answer_questions(self) -> int:
        answered = 0
        for peer in self.peers:
            # Re-read after every answer: handling control traffic can close
            # a question that was open a moment ago.
            while True:
                questions = self.runtime.inbox(peer)
                if not questions:
                    break
                self._answer(peer, questions[0])
                answered += 1
        return answered

    def committed_operations(self) -> List[object]:
        return [
            operation for operation, ticket in self.submitted
            if ticket.status is TicketStatus.COMMITTED
        ]


class SocketSystem(_FederationSystem):
    """``ProcessFederation``: one OS process per peer over Unix sockets."""

    errors = (FederationError, OSError, RuntimeError, TimeoutError)

    def __init__(self, environment, workdir: str, traced: bool = False):
        super().__init__(environment)
        started = time.perf_counter()
        self.runtime = ProcessFederation(
            environment.schema, environment.initial, list(environment.mappings),
            environment.ownership, workdir=workdir, trace=traced,
        )
        self.spawn_s = time.perf_counter() - started
        self._advances = 0

    def submit(self, client: int, operation):
        ticket = self.runtime.submit(self.peers[client], operation)
        self.submitted.append((operation, ticket))
        # Read after every write: a flood of submits without reads deadlocks
        # coordinator and peers in sendall.
        self.runtime.poll(0)
        return ticket

    def _answer(self, peer: str, question) -> None:
        self.runtime.answer(peer, question, expanding_answer(question))
        self.runtime.poll(0)

    def advance(self) -> None:
        self.runtime.poll(0.05)
        self._advances += 1
        if self._advances % 64 == 0:
            dead = [
                name for name, entry in self.runtime.liveness().items()
                if entry["state"] == "dead"
            ]
            if dead:
                raise FederationError("peer(s) {} died".format(dead))

    def drain(self) -> None:
        self.runtime.drain(answer_strategy=expanding_answer, timeout=OP_DEADLINE_S)

    def snapshot(self):
        return self.runtime.global_snapshot()

    def counters(self) -> Dict[str, float]:
        statuses = list(self.runtime.metrics().values())
        folded = fold_service_snapshots([status["metrics"] for status in statuses])
        for key in ("deliveries_deferred", "answers_dropped", "envelopes_coalesced"):
            folded[key] = float(sum(status.get(key, 0) for status in statuses))
        folded["frames"] = float(
            sum(sum(status["sent"].values()) for status in statuses)
        )
        folded["payloads"] = float(
            sum(status.get("payloads_received", 0) for status in statuses)
        )
        drain = self.runtime.last_drain or {}
        folded["drain_rounds"] = float(drain.get("rounds", 0))
        folded["time_to_idle_s"] = float(drain.get("time_to_idle_seconds", 0.0))
        return folded

    def phase_spans(self):
        """The peers' own spans, folded exactly as ``repro-trace`` does."""
        return merge_spans(load_spans(self.runtime.export_traces()))

    def close(self) -> None:
        self.runtime.close()
        self.runtime.assert_reaped()


class InprocSystem(_FederationSystem):
    """``FederatedNetwork``: the same peers inside this process."""

    errors = (FederationError, RuntimeError, TimeoutError)

    def __init__(self, environment, tracer=NOOP_TRACER):
        super().__init__(environment)
        self.tracer = tracer
        self.runtime = FederatedNetwork(
            environment.schema, environment.initial, list(environment.mappings),
            environment.ownership, tracer=tracer,
        )
        self.spawn_s = 0.0
        self.drain_rounds = 0

    def submit(self, client: int, operation):
        ticket = self.runtime.submit(self.peers[client], operation)
        self.submitted.append((operation, ticket))
        return ticket

    def _answer(self, peer: str, question) -> None:
        self.runtime.answer(peer, question, expanding_answer(question))

    def advance(self) -> None:
        self.runtime.pump()

    def drain(self) -> None:
        self.drain_rounds = self.runtime.run_until_quiescent(
            answer_strategy=expanding_answer
        )

    def snapshot(self):
        return self.runtime.global_snapshot()

    def counters(self) -> Dict[str, float]:
        folded = fold_service_snapshots(
            [peer.service.metrics_snapshot() for peer in self.runtime.peers()]
        )
        metrics = self.runtime.metrics()
        for key in ("deliveries_deferred", "answers_dropped", "envelopes_coalesced"):
            folded[key] = float(metrics[key])
        folded["frames"] = float(metrics["transport_sent"])
        folded["payloads"] = float(metrics["transport_payloads_sent"])
        folded["wire_bytes"] = float(metrics["transport_wire_bytes_sent"])
        folded["drain_rounds"] = float(self.drain_rounds)
        return folded

    def phase_spans(self):
        return list(self.tracer.spans)

    def close(self) -> None:
        pass


class ServiceSystem:
    """One durable ``RepositoryService`` with one session per client."""

    errors = (RuntimeError, TimeoutError)

    def __init__(self, environment, mappings, workdir: Optional[str], tracer=NOOP_TRACER):
        self.tracer = tracer
        self.mappings = mappings
        self.checkpoint_path = None
        durable_dir = None
        if workdir is not None:
            durable_dir = os.path.join(workdir, "segments")
            self.checkpoint_path = os.path.join(workdir, "checkpoint.json")
        self.service = RepositoryService(
            environment.initial, mappings, durable_dir=durable_dir, tracer=tracer
        )
        self.sessions = [
            self.service.open_session("client-{}".format(index)).session_id
            for index in range(CLIENTS)
        ]
        self.submitted: List[PyTuple[object, object]] = []
        self.spawn_s = 0.0
        self.checkpoint_s = 0.0
        self._checkpointed_at = 0

    def submit(self, client: int, operation):
        ticket = self.service.submit(self.sessions[client], operation)
        self.submitted.append((operation, ticket))
        return ticket

    def answer_questions(self) -> int:
        questions = self.service.inbox()
        for question in questions:
            self.service.answer(
                self.sessions[0], question.decision_id, conservative_answer(question)
            )
        return len(questions)

    def advance(self) -> None:
        self.service.pump()
        committed = self.service.metrics.committed
        if (
            self.checkpoint_path is not None
            and committed - self._checkpointed_at >= DURABLE_CHECKPOINT_EVERY
        ):
            self._checkpointed_at = committed
            self.checkpoint()

    def checkpoint(self) -> Dict:
        started = time.perf_counter()
        body = self.service.checkpoint(self.checkpoint_path)
        self.checkpoint_s += time.perf_counter() - started
        return body

    def drain(self) -> None:
        while not self.service.is_quiescent:
            self.service.pump()
            self.answer_questions()

    def snapshot(self):
        return self.service.snapshot()

    def counters(self) -> Dict[str, float]:
        return fold_service_snapshots([self.service.metrics_snapshot()])

    def phase_spans(self):
        return list(self.tracer.spans)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# One measured pass
# ----------------------------------------------------------------------
class Pass:
    """Everything one pass over one workload produced."""

    def __init__(self):
        self.loop: Optional[LoopResult] = None
        self.setup_s = 0.0
        #: Peak resident set when the first set-up (warm-up included) was done:
        #: fixed work, so a run that fits more operations in its window does
        #: not read as a run that needs more memory.
        self.setup_rss_mb = 0.0
        self.gen_s = 0.0
        self.spawn_s = 0.0
        #: Counter deltas over the measured phase plus end-of-run gauges.
        self.counters: Dict[str, float] = {}
        #: (check name, passed) for every correctness check that ran.
        self.checks: List[PyTuple[str, bool]] = []
        #: Observations printed with the checks that do not decide ``correct``.
        self.notes: List[str] = []
        #: Workload-specific numbers, already under their metric names.
        self.extra: Dict[str, float] = {}
        #: Per-episode samples of such numbers; the pass reports their median.
        self.samples: Dict[str, List[float]] = {}
        self.coord_cpu_s = 0.0
        self.peer_cpu_s = 0.0
        self.phases: Optional[Dict[str, float]] = None
        self.spans = 0
        self.wire_bytes = 0.0
        self.recorder: Optional[trace.SpanRecorder] = None


_GAUGE_KEYS = frozenset(_SERVICE_GAUGES) | {"drain_rounds", "time_to_idle_s"}


def _counter_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {
        key: value if key in _GAUGE_KEYS else value - before.get(key, 0.0)
        for key, value in after.items()
    }


def merge_loops(loops: Sequence[LoopResult]) -> LoopResult:
    """The episodes laid end to end: sums, pooled samples, one time axis."""
    merged = LoopResult(loops[0].clients)
    for loop in loops:
        merged.finished_at.extend(merged.end + stamp for stamp in loop.finished_at)
        merged.latencies.extend(loop.latencies)
        merged.attempted += loop.attempted
        merged.failed += loop.failed
        merged.questions += loop.questions
        merged.end += loop.wall
        merged.error = merged.error or loop.error
    # ``end - loop_end`` stays the summed drain time.
    merged.loop_end = merged.end - sum(loop.end - loop.loop_end for loop in loops)
    return merged


def episode_medians(loops: Sequence[LoopResult]) -> Dict[str, float]:
    """The per-episode figures a run reports as medians over its episodes."""
    figures = {
        "ops_per_s": [loop.ops_per_s() for loop in loops],
        "service.rate_decay": [loop.rate_decay() for loop in loops],
        "workload.littles_law_error": [loop.littles_law_error() for loop in loops],
    }
    return {name: statistics.median(values) for name, values in figures.items()}


class StreamingWorkload:
    """A closed-loop workload: subclasses supply inputs, system and checks."""

    #: Episodes of an end-to-end run (a traced run's shorter passes use one).
    episodes = 1

    name = ""
    #: The shim set of the traced pass (``None``: nothing to shim in-process).
    program_shims = staticmethod(trace.install_program_shims)

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def generate(self):
        """The deployment (seed-independent); timed as ``workload.gen_s``."""
        raise NotImplementedError

    def streams(self, environment, seed) -> List[Iterator]:
        raise NotImplementedError

    def open(self, environment, workdir: str, mode: str, tracer):
        raise NotImplementedError

    def check(self, environment, system, run: Pass) -> None:
        raise NotImplementedError

    def before_loop(self):
        """A token for :meth:`after_loop`, taken right before an episode's loop."""

    def after_loop(self, environment, system, run: Pass, loop: LoopResult, token) -> None:
        """Workload-specific measurements right after an episode's loop."""

    def run_pass(
        self,
        seed: int,
        seconds: float,
        workdir: str,
        mode: str = "plain",
        check: bool = True,
        episodes: int = 1,
    ) -> Pass:
        """One pass of *episodes* episodes sharing *seconds* equally.

        An episode is a fresh system: generate, open, warm up (timed as
        set-up), measure on streams drawn from ``(seed, episode)``, drain,
        check, close.  Per-operation cost grows with a repository's history
        (``service.rate_decay``) and one pathological operation can stall a
        window for seconds, so a long window mostly measures its own drift;
        several short ones, reported as medians, measure the program.

        *mode* is ``plain`` (nothing added), ``shims`` (bench/trace.py around
        the program's callables) or ``tracer`` (the program's own tracer on).
        """
        run = Pass()
        recorder = None
        if mode == "shims":
            recorder = run.recorder = trace.SpanRecorder()
            self.program_shims(recorder)
        loops: List[LoopResult] = []
        setup_times: List[float] = []
        try:
            for episode in range(episodes):
                tracer = Tracer() if mode == "tracer" else NOOP_TRACER
                # The previous episode's heap is not this set-up's cost.
                gc.collect()
                started = time.perf_counter()
                environment = self.generate()
                streams = self.streams(environment, "{}.{}".format(seed, episode))
                run.gen_s = time.perf_counter() - started
                system = self.open(
                    environment, os.path.join(workdir, "e{}".format(episode)),
                    mode, tracer,
                )
                try:
                    closed_loop(
                        system, self.streams(environment, WARMUP_SEED), OP_DEADLINE_S,
                        max_ops=WARMUP_OPS_PER_CLIENT * CLIENTS,
                    )
                    setup_times.append(time.perf_counter() - started)
                    if not run.setup_rss_mb:
                        run.setup_rss_mb = peak_rss_mb()
                    run.spawn_s = system.spawn_s
                    before = system.counters()
                    cpu_before = (time.process_time(), child_cpu_seconds())
                    token = self.before_loop()
                    with recorder.measuring() if recorder else contextlib.nullcontext():
                        loop = closed_loop(system, streams, seconds / episodes)
                    loops.append(loop)
                    run.coord_cpu_s += time.process_time() - cpu_before[0]
                    run.peer_cpu_s += child_cpu_seconds() - cpu_before[1]
                    self.after_loop(environment, system, run, loop, token)
                    if loop.error is not None:
                        continue
                    for key, value in _counter_delta(system.counters(), before).items():
                        if key in _GAUGE_KEYS:
                            run.counters[key] = max(run.counters.get(key, 0.0), value)
                        else:
                            run.counters[key] = run.counters.get(key, 0.0) + value
                    if mode == "tracer":
                        spans = system.phase_spans()
                        analysis = TraceAnalysis(spans)
                        run.spans += len(spans)
                        run.phases = run.phases or {}
                        for phase, value in analysis.phase_breakdown().items():
                            run.phases[phase] = run.phases.get(phase, 0.0) + value
                        run.wire_bytes += sum(analysis.wire_bytes_by_kind().values())
                    if check and not loop.failed:
                        self.check(environment, system, run)
                finally:
                    system.close()
        finally:
            if recorder is not None:
                recorder.uninstall()
        run.setup_s = statistics.median(setup_times)
        run.loop = merge_loops(loops)
        run.extra.update(episode_medians(loops))
        # Percentiles pool every episode's operations: a stalled episode adds
        # a handful of slow samples, and the tail gets five times the support.
        for fraction in (0.5, 0.95, 0.99):
            run.extra["turnaround_p{:.0f}_ms".format(100 * fraction)] = (
                run.loop.turnaround_ms(fraction)
            )
        for name, values in run.samples.items():
            run.extra[name] = statistics.median(values)
        return run


def _fresh_row(relation: str, arity: int, tag: str) -> Tuple:
    return Tuple(relation, ["{}.{}".format(tag, position) for position in range(arity)])


class _FederationWorkload(StreamingWorkload):
    scenario: FederationScenarioConfig

    def sizes(self) -> Dict[str, object]:
        scenario = self.scenario
        return {
            "peers": scenario.num_peers,
            "relations_per_peer": scenario.relations_per_peer,
            "cross_mappings": scenario.cross_mappings,
            "initial_tuples": scenario.initial_tuples,
            "scenario_seed": scenario.seed,
            "clients": CLIENTS,
            "warmup_ops_per_client": WARMUP_OPS_PER_CLIENT,
        }

    def generate(self):
        return generate_federation_environment(self.scenario)


class SockRelay(_FederationWorkload):
    name = "sock_relay"
    episodes = 2
    scenario = RELAY_SCENARIO
    program_shims = staticmethod(trace.install_coordinator_shims)

    def streams(self, environment, seed) -> List[Iterator]:
        peers = environment.config.peer_names()

        def stream(client: int) -> Iterator:
            rng = random.Random("relay-{}-{}".format(seed, client))
            # The *next* peer's free relation: submitted here, executed there.
            relation = environment.ownership[peers[(client + 1) % len(peers)]][-1]
            arity = environment.schema.arity_of(relation)
            serial = 0
            while True:
                serial += 1
                tag = "r{}c{}n{}x{:08x}".format(seed, client, serial, rng.getrandbits(32))
                yield InsertOperation(_fresh_row(relation, arity, tag))

        return [stream(client) for client in range(CLIENTS)]

    def open(self, environment, workdir, mode, tracer):
        return SocketSystem(environment, workdir, traced=mode == "tracer")

    def check(self, environment, system, run: Pass) -> None:
        snapshot = system.snapshot()
        acknowledged = system.committed_operations()
        run.checks.append((
            "every acknowledged row is at its owner",
            all(snapshot.contains(operation.row) for operation in acknowledged),
        ))


def _mixed_streams(environment, seed) -> List[Iterator]:
    """Per-peer endless streams in the shape of ``federation_gen``'s.

    Inserts go to a mapping-visible relation of the submitting peer (or, with
    ``MIXED_REMOTE_FRACTION``, of another peer) with fresh-or-known values;
    deletes take initial tuples of the peer's own free relations, which no
    mapping mentions, so the serial reference agrees on them by construction.
    The warm-up streams only insert, which leaves every deletable row to the
    measured ones.
    """
    delete_fraction = 0.0 if seed == WARMUP_SEED else MIXED_DELETE_FRACTION
    peers = environment.config.peer_names()
    constants = sorted({
        value.value
        for relation in environment.initial.relations()
        for row in environment.initial.tuples(relation)
        for value in row.values
        if isinstance(value, Constant)
    })

    def stream(client: int) -> Iterator:
        peer = peers[client]
        rng = random.Random("mixed-{}-{}".format(seed, client))
        free = [
            name for name in environment.ownership[peer]
            if name not in environment.mapped_relations[peer]
        ]
        deletable = sorted(
            (row for name in free for row in environment.initial.tuples(name)),
            key=repr,
        )
        rng.shuffle(deletable)
        serial = 0
        while True:
            if deletable and rng.random() < delete_fraction:
                yield DeleteOperation(deletable.pop())
                continue
            target = peer
            if rng.random() < MIXED_REMOTE_FRACTION:
                target = rng.choice([name for name in peers if name != peer])
            relation = rng.choice(environment.mapped_relations[target])
            values = []
            for _ in range(environment.schema.arity_of(relation)):
                if rng.random() < 0.5:
                    serial += 1
                    values.append("m{}{}n{}".format(seed, peer, serial))
                else:
                    values.append(rng.choice(constants))
            yield InsertOperation(Tuple(relation, values))

    return [stream(client) for client in range(CLIENTS)]


class _MixedWorkload(_FederationWorkload):
    scenario = MIXED_SCENARIO
    episodes = 5

    def streams(self, environment, seed) -> List[Iterator]:
        return _mixed_streams(environment, seed)

    def check(self, environment, system, run: Pass) -> None:
        reference = reference_chase(
            environment.schema, environment.initial, list(environment.mappings),
            system.committed_operations(),
        )
        run.checks.append((
            "global snapshot is hom-equivalent to the single-repository chase",
            reference.all_terminated
            and databases_equivalent(system.snapshot(), reference.final),
        ))


class SockMixed(_MixedWorkload):
    name = "sock_mixed"
    program_shims = staticmethod(trace.install_coordinator_shims)

    def open(self, environment, workdir, mode, tracer):
        return SocketSystem(environment, workdir, traced=mode == "tracer")


class InprocMixed(_MixedWorkload):
    name = "inproc_mixed"

    def open(self, environment, workdir, mode, tracer):
        return InprocSystem(environment, tracer)


class _RepoEnvironment:
    """Section 6 environment plus the mapping set the run uses."""

    def __init__(self, config: ExperimentConfig, mappings: int):
        self.experiment = build_environment(config)
        self.initial = self.experiment.initial
        self.mappings = list(mapping_prefix(self.experiment.mappings, mappings))


class RepoDurable(StreamingWorkload):
    name = "repo_durable"
    episodes = 5
    #: ``False`` re-runs the stream without a ``durable_dir`` (traced pass).
    durable = True

    def sizes(self) -> Dict[str, object]:
        return {
            "relations": REPO_CONFIG.num_relations,
            "mappings": DURABLE_MAPPINGS,
            "initial_tuples": DURABLE_INITIAL_TUPLES,
            "checkpoint_every": DURABLE_CHECKPOINT_EVERY,
            "delete_fraction": REPO_CONFIG.delete_fraction,
            "environment_seed": REPO_CONFIG.seed,
            "clients": CLIENTS,
            "warmup_ops_per_client": WARMUP_OPS_PER_CLIENT,
        }

    def generate(self):
        return _RepoEnvironment(
            REPO_CONFIG.scaled(num_initial_tuples=DURABLE_INITIAL_TUPLES),
            DURABLE_MAPPINGS,
        )

    def streams(self, environment, seed) -> List[Iterator]:
        experiment = environment.experiment
        rng = random.Random("durable-{}".format(seed))

        def shared() -> Iterator:
            chunk = 0
            while True:
                chunk += 1
                for operation in mixed_workload(
                    experiment.schema, experiment.initial, DURABLE_CHUNK,
                    experiment.constant_pool, rng=rng,
                    delete_fraction=REPO_CONFIG.delete_fraction,
                ):
                    if isinstance(operation, InsertOperation):
                        # mixed_workload restarts its fresh_N counter per
                        # call; keep fresh values fresh across chunks.
                        operation = InsertOperation(Tuple(
                            operation.row.relation,
                            [
                                "d{}k{}{}".format(seed, chunk, value.value)
                                if value.value.startswith("fresh_")
                                else value
                                for value in operation.row.values
                            ],
                        ))
                    yield operation

        stream = shared()
        return [stream] * CLIENTS  # one Section 6 stream, dealt to four sessions

    def open(self, environment, workdir, mode, tracer):
        return ServiceSystem(
            environment, environment.mappings,
            workdir if self.durable else None, tracer,
        )

    def before_loop(self) -> int:
        return written_bytes()

    def after_loop(self, environment, system, run: Pass, loop: LoopResult, token) -> None:
        written = written_bytes() - token
        if not self.durable or loop.error is not None:
            return
        user_bytes = sum(
            len(dumps(encode_user_operation(operation)))
            for operation, _ in system.submitted[WARMUP_OPS_PER_CLIENT * CLIENTS:]
        )
        body = system.checkpoint()
        live = system.snapshot()
        started = time.perf_counter()
        restored = RepositoryService.restore(system.checkpoint_path, system.mappings)
        recovered = restored.service.snapshot()
        recovery_s = time.perf_counter() - started
        for name, value in (
            ("recovery_s", recovery_s),
            ("disk_bytes_per_user_byte", written / max(user_bytes, 1)),
            ("storage.checkpoint_s", system.checkpoint_s),
            ("storage.checkpoint_bytes", float(os.path.getsize(system.checkpoint_path))),
            ("storage.restore_rows_per_s", rows_of(recovered) / max(recovery_s, 1e-9)),
        ):
            run.samples.setdefault(name, []).append(value)
        run.checks.append((
            "restored snapshot equals the committed snapshot before restore",
            all(
                frozenset(recovered.tuples(relation)) == frozenset(live.tuples(relation))
                for relation in live.relations()
            ),
        ))
        run.checks.append((
            "final checkpoint holds every acknowledged update (nothing pending)",
            not body["pending"] and not restored.resubmitted,
        ))

    def check(self, environment, system, run: Pass) -> None:
        # Reported, not gating: unifying answers leave a violated mapping in
        # the committed repository on some streams (bench/README.md, findings)
        # and the defect is in the program, which this benchmark cannot touch.
        violations = len(find_all_violations(system.mappings, system.snapshot()))
        run.counters["violations_end"] = run.counters.get("violations_end", 0.0) + violations
        if violations:
            run.notes.append(
                "{} violated mapping instance(s) left in a committed repository".format(
                    violations
                )
            )


# ----------------------------------------------------------------------
# repo_batch: rounds of one scheduler over one store
# ----------------------------------------------------------------------
#: Exact counts over the warm-up rounds (the same for every ``--seed``, given
#: the ``PYTHONHASHSEED=0`` bench/run.py pins: the scheduler iterates sets),
#: recorded on the commit that added the benchmark.  A scheduler change that
#: moves them changes ``aborts_per_op`` by construction and has to say so
#: (bench/README.md, "Re-recording the exact counts").
BATCH_WARMUP_COUNTS = {"aborts": 58, "cascading_aborts": 6, "steps": 1410}


class BatchRound:
    """One batch: fresh store and scheduler, every update submitted at once."""

    def __init__(self, environment, seed: int, tracer=NOOP_TRACER):
        experiment = environment.experiment
        self.operations = build_workload(experiment, MIXED_WORKLOAD, seed)
        store = VersionedDatabase(experiment.schema)
        store.load_initial(experiment.initial)
        self.scheduler = OptimisticScheduler(
            store=store,
            mappings=environment.mappings,
            tracker=make_tracker("PRECISE"),
            oracle=RandomOracle(seed=seed),
            policy=make_policy(REPO_CONFIG.policy),
            null_factory=NullFactory.avoiding_view(experiment.initial, prefix="g"),
            max_total_steps=REPO_CONFIG.max_total_steps,
            tracer=tracer,
        )
        self.tracer = tracer
        self.commit_offsets: List[float] = []
        self.wall = 0.0
        self.statistics = None

    def run(self) -> None:
        offsets = self.commit_offsets
        clock = time.perf_counter
        started = clock()
        # Turnaround of a batch member: submitted with everyone else at
        # *started*, done when its (possibly restarted) execution commits.
        self.scheduler.add_commit_listener(
            lambda priority, writes: offsets.append(clock() - started)
        )
        tracer = self.tracer
        for operation in self.operations:
            context = None
            if tracer.enabled:
                # What the service layer does per ticket: a root span whose
                # context the scheduler's step/validate/commit spans join.
                context = tracer.start_span("update", kind="user").context
            self.scheduler.submit(operation, trace=context)
        self.statistics = self.scheduler.run()
        self.wall = clock() - started


class RepoBatch:
    name = "repo_batch"
    #: Set-ups per end-to-end run (see ``run_pass``).
    episodes = 3

    def sizes(self) -> Dict[str, object]:
        return {
            "relations": REPO_CONFIG.num_relations,
            "mappings": REPO_CONFIG.max_mappings,
            "initial_tuples": REPO_CONFIG.num_initial_tuples,
            "updates_per_round": BATCH_UPDATES,
            "catalogue_rounds": BATCH_CATALOGUE,
            "warmup_rounds": BATCH_WARMUP_ROUNDS,
            "delete_fraction": REPO_CONFIG.delete_fraction,
            "environment_seed": REPO_CONFIG.seed,
            "tracker": "PRECISE",
            "policy": REPO_CONFIG.policy,
        }

    def generate(self):
        return _RepoEnvironment(
            REPO_CONFIG.scaled(num_updates=BATCH_UPDATES), REPO_CONFIG.max_mappings
        )

    @staticmethod
    def warmup_seed(index: int) -> int:
        """Warm-up rounds are the same for every ``--seed`` (negative: no clash)."""
        return -1 - index

    def _set_up(self, run: Pass, check: bool):
        """Generate the environment and run the (seed-independent) warm-up."""
        gc.collect()  # the previous set-up's heap is not this one's cost
        started = time.perf_counter()
        environment = self.generate()
        run.gen_s = time.perf_counter() - started
        warm = dict.fromkeys(BATCH_WARMUP_COUNTS, 0)
        clean = True
        for index in range(BATCH_WARMUP_ROUNDS):
            batch = BatchRound(environment, self.warmup_seed(index))
            batch.run()
            for key in warm:
                warm[key] += getattr(batch.statistics, key)
            if check:
                clean = clean and satisfies_all(
                    environment.mappings, batch.scheduler.final_database()
                )
        return environment, warm, clean, time.perf_counter() - started

    def run_pass(
        self,
        seed: int,
        seconds: float,
        workdir: str,
        mode: str = "plain",
        check: bool = True,
        episodes: int = 1,
    ) -> Pass:
        """Set up *episodes* times, then pass over the catalogue for *seconds*.

        Rounds are independent already (fresh store and scheduler each), so
        the episodes of this workload only repeat the set-up; the figures are
        medians over the catalogue passes that fitted in the window.
        """
        run = Pass()
        recorder = None
        if mode == "shims":
            recorder = run.recorder = trace.SpanRecorder()
            trace.install_program_shims(recorder)
            # Generating a round's updates is the harness's own work.
            recorder.wrap(sys.modules[__name__], "build_workload", "workload.input")
        tracer = Tracer() if mode == "tracer" else NOOP_TRACER
        try:
            setup_times: List[float] = []
            for _ in range(episodes):
                environment, warm, clean, elapsed = self._set_up(run, check)
                setup_times.append(elapsed)
                if not run.setup_rss_mb:
                    run.setup_rss_mb = peak_rss_mb()
            run.setup_s = statistics.median(setup_times)
            if check:
                run.checks.append(("every warm-up round ends with zero violations", clean))
                run.checks.append((
                    "warm-up abort/step counts match the recorded ones",
                    warm == BATCH_WARMUP_COUNTS,
                ))
            run.extra["aborts_per_op"] = warm["aborts"] / (
                BATCH_WARMUP_ROUNDS * BATCH_UPDATES
            )

            loop = run.loop = LoopResult(clients=0)  # not a closed loop
            #: Per catalogue pass: its commit offsets and the seconds its rounds ran.
            passes: List[PyTuple[List[float], float]] = []
            totals = dict.fromkeys(_SERVICE_SUMS, 0.0)
            window_open = True
            cpu_before = time.process_time()
            loop.begin = time.perf_counter()
            with recorder.measuring() if recorder else contextlib.nullcontext():
                while window_open:
                    order = list(range(BATCH_CATALOGUE))
                    random.Random("batch-{}.{}".format(seed, len(passes))).shuffle(order)
                    offsets: List[float] = []
                    busy = 0.0
                    for index in order:
                        if time.perf_counter() - loop.begin >= seconds:
                            window_open = False
                            break
                        batch = BatchRound(environment, index, tracer)
                        batch.run()
                        loop.attempted += BATCH_UPDATES
                        done = len(batch.commit_offsets)
                        loop.latencies.extend(batch.commit_offsets)
                        loop.fail(BATCH_UPDATES - done)
                        offsets.extend(batch.commit_offsets)
                        busy += batch.wall
                        loop.finished_at.append(time.perf_counter() - loop.begin)
                        store = batch.scheduler.store
                        snapshot = {
                            "scheduler_" + key: value
                            for key, value in batch.statistics.as_dict().items()
                        }
                        snapshot["committed"] = done
                        snapshot["store_compactions"] = store.compactions
                        for key, source in _SERVICE_SUMS.items():
                            totals[key] += snapshot.get(source, 0)
                        run.counters["log_entries_end"] = float(store.log_size())
                        run.counters["versions_end"] = float(store.version_count())
                    # A pass the window cut short is other work than a whole
                    # one; it counts only when no pass fitted (smoke runs).
                    if window_open or not passes:
                        passes.append((sorted(offsets), busy))
            loop.loop_end = loop.end = time.perf_counter()
            run.coord_cpu_s = time.process_time() - cpu_before
            run.counters.update(totals)
            # Every pass is the same work, so the median pass is the typical
            # speed of this process and shrugs off a stall in one of them.
            rates = [len(offsets) / max(busy, 1e-9) for offsets, busy in passes]
            run.extra["ops_per_s"] = statistics.median(rates)
            # Same work first and last: anything but 1 is the process ageing.
            run.extra["service.rate_decay"] = rates[-1] / rates[0]
            for fraction in (0.5, 0.95, 0.99):
                run.extra["turnaround_p{:.0f}_ms".format(100 * fraction)] = (
                    1e3 * statistics.median(
                        percentile(offsets, fraction) for offsets, _ in passes
                    )
                )
            if mode == "tracer":
                run.spans = len(tracer.spans)
                run.phases = TraceAnalysis(tracer.spans).phase_breakdown()
        finally:
            if recorder is not None:
                recorder.uninstall()
        return run


WORKLOADS = {
    workload.name: workload
    for workload in (SockRelay(), SockMixed(), InprocMixed(), RepoBatch(), RepoDurable())
}
