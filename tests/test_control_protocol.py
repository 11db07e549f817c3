"""One control protocol for both federation runtimes.

The client desk (:class:`~repro.federation.network.ClientDesk`) builds every
control message a coordinator sends and hands it to one primitive, ``_send``;
the peer side handles each kind once, in
:meth:`~repro.federation.host.PeerRuntime.control`.  A second way to submit,
answer, hold a link or take a snapshot — a runtime's own ``_submit_at`` or
``global_snapshot``, or a peer host that handles ``submit`` itself — is how
the two runtimes drifted apart before, so this test fails on one.  The drain
is the desk's too: one watermark protocol, which each runtime only lets time
pass for.  So is peer start-up: ``ClientDesk._start_peer`` alone builds or
restores a peer, in process and in a forked peer process, from the objects
the coordinator holds (no config file, no second entry point).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FEDERATION = ROOT / "src" / "repro" / "federation"

#: What ``ClientDesk`` builds its control messages in.
DESK_SENDERS = {"submit", "answer", "_hold", "global_snapshot", "_restarted"}

#: A runtime's own way to a peer, beside the desk's.
NOT_ON_RUNTIMES = {"_submit_at", "_answer_at", "_hold", "global_snapshot", "_restarted"}

#: The drain, written once on the desk: the loop and its protocol pieces.
DRAIN = {"drain", "_round_settled", "_status_round", "_note_watermark"}

#: Handled by ``PeerRuntime.control`` only.
RUNTIME_KINDS = {
    "submit", "answer", "status", "watch", "hold", "release",
    "drop-questions", "snapshot",
}


def _class(module: str, name: str) -> ast.ClassDef:
    tree = ast.parse((FEDERATION / module).read_text())
    (found,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    return found


def _methods(cls: ast.ClassDef):
    return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}


def _compared_strings(node: ast.AST):
    """Every string constant some comparison inside *node* tests against."""
    found = set()
    for compare in ast.walk(node):
        if isinstance(compare, ast.Compare):
            for side in [compare.left] + compare.comparators:
                for constant in ast.walk(side):
                    if isinstance(constant, ast.Constant) and isinstance(
                        constant.value, str
                    ):
                        found.add(constant.value)
    return found


def test_the_desk_vocabulary_is_defined_on_the_client_desk_only():
    assert DESK_SENDERS | DRAIN <= _methods(_class("network.py", "ClientDesk"))
    for module, name in (
        ("network.py", "FederatedNetwork"),
        ("process_network.py", "ProcessFederation"),
    ):
        duplicated = (NOT_ON_RUNTIMES | DRAIN) & _methods(_class(module, name))
        assert not duplicated, "{} defines {}".format(name, sorted(duplicated))


def test_the_peer_vocabulary_is_handled_by_the_runtime_only():
    control = [
        node for node in _class("host.py", "PeerRuntime").body
        if isinstance(node, ast.FunctionDef) and node.name == "control"
    ]
    assert control and RUNTIME_KINDS <= _compared_strings(control[0])
    handled = RUNTIME_KINDS & _compared_strings(_class("proc.py", "PeerHost"))
    assert not handled, "PeerHost handles {}".format(sorted(handled))


def test_run_until_quiescent_is_a_bare_alias_nobody_outside_bench_calls():
    aliases = [
        ast.unparse(node.value)
        for node in _class("network.py", "FederatedNetwork").body
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["run_until_quiescent"]
    ]
    assert aliases == ["ClientDesk.drain"]
    callers = [
        str(path.relative_to(ROOT))
        for tree in ("src", "tests", "examples")
        for path in sorted((ROOT / tree).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "run_until_quiescent"
    ]
    assert not callers, "run_until_quiescent is called in {}".format(callers)


def _peer_starts(node: ast.AST):
    """The ``Peer.build``/``Peer.restore`` calls inside *node*."""
    return sorted(
        call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and ast.unparse(call.func.value) == "Peer"
        and call.func.attr in ("build", "restore")
    )


def test_a_peer_starts_only_through_the_client_desk():
    starts = {
        str(path.relative_to(ROOT)): _peer_starts(ast.parse(path.read_text()))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert {path: calls for path, calls in starts.items() if calls} == {
        "src/repro/federation/network.py": ["build", "restore"],
    }
    (start_peer,) = [
        node for node in _class("network.py", "ClientDesk").body
        if isinstance(node, ast.FunctionDef) and node.name == "_start_peer"
    ]
    assert _peer_starts(start_peer) == ["build", "restore"]
    module = ast.parse((FEDERATION / "proc.py").read_text())
    defined = {
        node.name for node in module.body if isinstance(node, ast.FunctionDef)
    }
    assert not defined & {"encode_peer_config", "main"}
