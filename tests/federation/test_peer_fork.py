"""Forked peer processes: what a peer inherits from its coordinator, and what not.

``ProcessFederation`` forks the coordinator to start a peer.  The child keeps
the coordinator's memory, and starts its peer from the coordinator's own
objects (no config file is written), but must hold none of its descriptors (a peer that
kept a coordinator control socket open would hide that channel's EOF from
the peer on the other end), must write its output and a startup traceback to
its own ``peer-<name>.log`` whatever the coordinator's stdout/stderr are,
and must not export the coordinator's spans as its own.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import ProcessFederation, ProcessFederationError, proc
from repro.obs import trace as obs_trace
from repro.obs.trace import default_tracer, load_spans
from repro.service.tickets import TicketStatus
from repro.storage.memory import FrozenDatabase

DRAIN_TIMEOUT = 120.0


@contextlib.contextmanager
def running(federation):
    try:
        yield federation
    finally:
        federation.close()
        federation.assert_reaped()


def chain_federation(tmp_path):
    schema = DatabaseSchema.from_dict(
        {"A1": ["x"], "A2": ["x", "y"], "B1": ["x"], "B2": ["x"]}
    )
    mappings = parse_tgds(
        ["A1(x) -> exists y . A2(x, y)", "A2(x, y) -> B1(x)", "B1(x) -> B2(x)"]
    )
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    return ProcessFederation(
        schema,
        initial,
        mappings,
        ownership={"a": ["A1", "A2"], "b": ["B1", "B2"]},
        workdir=str(tmp_path),
    )


def _peer_configs(federation):
    """Files a peer could be started from: there must be none."""
    return [
        name for name in os.listdir(federation.workdir)
        if name.startswith("peer-") and name.endswith(".json")
    ]


def _descriptor_targets(pid):
    """``readlink`` of every open descriptor of *pid*, keyed by fd."""
    directory = "/proc/{}/fd".format(pid)
    targets = {}
    for entry in os.listdir(directory):
        try:
            targets[int(entry)] = os.readlink(os.path.join(directory, entry))
        except OSError:
            continue  # closed while listing
    return targets


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_reborn_peer_holds_none_of_the_coordinators_descriptors(tmp_path):
    with running(chain_federation(tmp_path)) as federation:
        assert _peer_configs(federation) == []
        ticket = federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        federation.drain(timeout=DRAIN_TIMEOUT)
        path = str(tmp_path / "b.ckpt")
        federation.checkpoint_peer("b", path, halt=True)
        pids = [federation._handles["b"].process.pid]
        federation.kill_peer("b")
        # Forked while the coordinator holds a live control channel (to a),
        # its selector and its telemetry spool.
        federation.restart_peer("b", path)
        assert _peer_configs(federation) == []
        pids += [handle.process.pid for handle in federation._handles.values()]
        channel_inodes = {
            os.fstat(handle.channel.fileno()).st_ino
            for handle in federation._handles.values()
        }
        selector = os.readlink(
            "/proc/self/fd/{}".format(federation._selector.fileno())
        )
        for name, handle in federation._handles.items():
            targets = _descriptor_targets(handle.process.pid)
            sockets = {
                int(target[len("socket:["):-1])
                for target in targets.values()
                if target.startswith("socket:[")
            }
            assert not sockets & channel_inodes, name
            # Its own selector only, not the coordinator's as well.
            assert list(targets.values()).count(selector) == 1, name
            assert federation._spool_path not in targets.values(), name
            log = os.path.join(federation.workdir, "peer-{}.log".format(name))
            assert targets[1] == targets[2] == log, name
        federation.drain(timeout=DRAIN_TIMEOUT)
        assert ticket.status is TicketStatus.COMMITTED
    # close() + assert_reaped() reaped every child: none is left a zombie
    # for this process to collect.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_peer_failing_at_startup_names_its_log(tmp_path, capfd):
    missing = str(tmp_path / "missing.ckpt")
    with running(chain_federation(tmp_path)) as federation:
        federation.kill_peer("b")
        with pytest.raises(ProcessFederationError) as failure:
            federation.restart_peer("b", missing)
        log_path = os.path.join(federation.workdir, "peer-b.log")
        assert log_path in str(failure.value)
        assert federation._handles["b"].process.returncode == 1
        with open(log_path) as handle:
            log = handle.read()
    assert "Traceback (most recent call last)" in log
    assert missing in log
    # The traceback went to the log, not to the coordinator's stderr.
    captured = capfd.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_forked_peer_exports_none_of_the_coordinators_spans(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setattr(obs_trace, "_shared_tracer", None)
    coordinator = default_tracer()
    marker = coordinator.start_span("coordinator-only")
    coordinator.end_span(marker)
    # A forked peer inherits this patch: each peer records into its own
    # process's default tracer, which the fork must hand over empty.
    monkeypatch.setattr(proc, "Tracer", lambda prefix: default_tracer())
    with running(chain_federation(tmp_path)) as federation:
        federation.submit("a", InsertOperation(make_tuple("A1", "v1")))
        federation.drain(timeout=DRAIN_TIMEOUT)
        spans = load_spans(federation.export_traces())
    assert {span.peer for span in spans} == {"a", "b"}
    assert "coordinator-only" not in {span.name for span in spans}
    # The coordinator's own tracer kept its span, and only that.
    assert coordinator.spans == [marker]
