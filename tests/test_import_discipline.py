"""No import statement runs inside a function body, outside a short allowlist.

A function-level ``import`` is a trip through the import machinery on every
call: a few microseconds each, paid per operation when the function sits on
the wire or chase path.  Modules bind their names once, at import time (the
wire codec's upper-layer names through :mod:`repro.codec.late`).  The
allowlist names the few functions that run once per process or once per
checkpoint and import something that cannot be imported at module level.
"""

import ast
import pathlib

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(module path under src/repro, qualified function name)``.
ALLOWED = {
    # ``repro-top --demo``: builds a throwaway federation once per process.
    ("obs/top.py", "_demo"),
    # Once per checkpoint; ``storage.durable`` imports ``storage.versioned``.
    ("storage/versioned.py", "VersionedDatabase.snapshot_to"),
    ("storage/versioned.py", "VersionedDatabase.restore_from"),
}


def _function_imports(tree):
    """``(qualified function name, line)`` of every import inside a function."""
    found = []

    def walk(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + [child.name], in_function)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    found.append((".".join(scope), child.lineno))
            else:
                walk(child, scope, in_function)

    walk(tree, [], False)
    return found


def test_no_imports_inside_function_bodies():
    offenders = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        module = path.relative_to(SRC_DIR).as_posix()
        for function, line in _function_imports(ast.parse(path.read_text())):
            if (module, function) not in ALLOWED:
                offenders.append("{}:{} in {}".format(module, line, function))
    assert not offenders, "function-level imports: " + ", ".join(offenders)


def test_allowlist_is_live_and_off_the_hot_paths():
    # Every entry still names a function that imports (else it should go),
    # and none is on the wire or chase path.
    for module, function in ALLOWED:
        tree = ast.parse((SRC_DIR / module).read_text())
        assert function in {name for name, _ in _function_imports(tree)}, function
        assert module != "codec/wire.py"
        assert function.rsplit(".", 1)[-1] not in {
            "_generate_firing", "affected_by", "__init__",
        }
