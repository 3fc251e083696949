"""Every function, class and public method of the library is reached from
the library itself, the benchmark harness or the acceptance items.

A name counts as reached when some place in src/corealg outside the
definition's own body, in perfbench/*.py or in tests/test_acceptance.py
reads it, as a name or as an attribute.  Code that only unit tests call
belongs in those tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def test_every_library_definition_is_reached():
    library = {path: ast.parse(path.read_text()) for path in
               sorted((ROOT / "src" / "corealg").glob("*.py"))}
    callers = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    outside = {name for path in callers for name, _ in _reads(ast.parse(path.read_text()))}
    reads: dict[str, list] = {}
    for path, tree in library.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((path, line))

    unreached = []
    for path, tree in library.items():
        for node in _definitions(tree):
            if node.name in outside or any(
                    where != path or not node.lineno <= line <= node.end_lineno
                    for where, line in reads.get(node.name, ())):
                continue
            unreached.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not unreached, "reached only from unit tests, or not at all: " + ", ".join(unreached)
