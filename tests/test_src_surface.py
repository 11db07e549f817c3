"""``src/`` holds what the system runs: no definition there serves tests alone.

A name scan over the syntax trees.  A function, method or class defined under
``src/repro`` must be named somewhere the system, the benchmark or the
examples run: in ``src/`` outside every definition of that name, in
``bench/``, in ``examples/`` or in ``setup.py``.  Names count as attribute
reads, bare names and the words of string constants (a dispatch by string
name, ``bench/trace.py``'s shims); imports, ``__all__`` lists, docstrings and
comments do not.  A definition only tests name belongs in the test that uses
it, or in ``tests/oracles/`` when it is a reference the tests compare
against.

The scan matches names, not bindings: a ``run`` anywhere keeps every
``run``.  So it misses some dead code, but what it flags is unused by the
system.  ``ALLOWED`` names the few definitions that stay though no name the
system reads calls them (a protocol method, the fault-injection API, library
API); each says why, and the list is capped.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src" / "repro"

#: ``(module path under src/repro, qualified name)`` -> why it stays.
ALLOWED = {
    ("federation/network.py", "FederatedNetwork.restart_peer"):
        "fault injection: restarts a peer of the in-process federation",
    ("federation/process_network.py", "ProcessFederation.restart_peer"):
        "fault injection: restarts a killed peer process from its checkpoint",
    ("federation/transport.py", "Transport.set_delay"):
        "fault injection: a per-link delay of the in-memory transport",
    ("federation/socket_transport.py", "FrameChannel.fileno"):
        "selectors protocol: the selector calls it on a registered channel",
    ("federation/socket_transport.py", "FrameListener.fileno"):
        "selectors protocol: the selector calls it on a registered listener",
    ("core/oracle.py", "CallbackOracle"):
        "library API: a user answers frontier questions with a function",
    ("core/oracle.py", "InteractiveOracle"):
        "library API: a human answers frontier questions at a terminal",
    ("query/correction_query.py", "correction_queries_for_frontier_tuple"):
        "Section 4.2's correction queries for one frontier tuple, as stated",
    ("storage/buckets.py", "bucket_members"):
        "the reader of the bucket format this module decides",
    ("storage/versioned.py", "VersionedDatabase.write_log"):
        "Section 4.1's write log, whole, as the store's tests read it",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree):
    """``id()`` of every docstring constant in *tree*."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _uses(tree):
    """``(name, line)`` of every name *tree* reads or spells in a string."""
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            skip.update(id(child) for child in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skip):
            for word in _WORD.findall(node.value):
                yield word, node.lineno


def _definitions(tree):
    """``(qualified name, name, first line, last line)`` of every def and class."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualified = scope + [child.name]
                found.append((".".join(qualified), child.name,
                              child.lineno, child.end_lineno))
                walk(child, qualified)
            else:
                walk(child, scope)

    walk(tree, [])
    return found


def _only_tests_name():
    """``(module, qualified name) -> first line`` of every definition in
    ``src/`` that nothing the system runs names."""
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(SRC_DIR.rglob("*.py"))
    }
    definitions = {path: _definitions(tree) for path, tree in trees.items()}
    spans = {}
    for path, found in definitions.items():
        for _, name, first, last in found:
            spans.setdefault(name, []).append((path, first, last))

    used = set()
    for path, tree in trees.items():
        for name, line in _uses(tree):
            # A name counts only outside every definition of that name, so
            # recursion and overrides do not keep a definition alive.
            if not any(path == where and first <= line <= last
                       for where, first, last in spans.get(name, ())):
                used.add(name)
    runners = [ROOT / "setup.py"]
    runners += sorted((ROOT / "bench").rglob("*.py"))
    runners += sorted((ROOT / "examples").rglob("*.py"))
    for path in runners:
        used.update(name for name, _ in _uses(ast.parse(path.read_text())))

    unused = {}
    for path, found in definitions.items():
        module = path.relative_to(SRC_DIR).as_posix()
        for qualified, name, first, _ in found:
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used:
                unused[(module, qualified)] = first
    return unused


def test_only_tests_name_nothing_in_src():
    offenders = [
        "{}:{} {}".format(module, line, qualified)
        for (module, qualified), line in sorted(_only_tests_name().items())
        if (module, qualified) not in ALLOWED
    ]
    assert not offenders, (
        "defined in src/ but named only by tests (move it to tests/ or "
        "delete it):\n  " + "\n  ".join(offenders)
    )


def test_allowlist_is_short_and_live():
    # Every entry is still needed (else it should go) and says why.
    assert len(ALLOWED) <= 10
    unused = _only_tests_name()
    for entry, reason in ALLOWED.items():
        assert reason
        assert entry in unused, entry
