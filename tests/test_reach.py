"""Static guards on the shape of the library.

Every function, class and public method of the library is reached from
the library itself, the benchmark harness or the acceptance items.  A
function or class counts as reached when some place in src/corealg outside
the definition's own body, in perfbench/*.py or in tests/test_acceptance.py
reads its name, as a name or as an attribute; a method counts only through
an attribute read, so a local variable or parameter that shares its name
does not keep it.  Code that only unit tests call belongs in those tests.
Likewise every field of a dataclass is read as an attribute in one of
those places, its own class's methods included (`GroupPresentation.text`
reads `torsion`): a result field that nothing reads goes.

No module imports inside a function: every dependency of a module shows
at its top, so an import cycle cannot hide in a function body.

numpy is imported only by star_algebra, whose op_norm computes a float
norm; every check is exact, so no other module needs it.

The three value types take their linear structure from `util.SparseSum`:
no class but `SparseSum` and the scalar `Radical` defines `__neg__`,
`__sub__`, `is_zero` or `__bool__`.

A check is recorded only through `CheckReport.check(ok, witness)`: no
`.fail(...)` or zero-argument `.count()` call is left in the library, the
benchmark harness or the tests.  Passing runs never reach a failure
branch, so a missed call would only raise on the first real failure."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "corealg").glob("*.py"))


def _reads(tree):
    """(name, line, read as an attribute) for every name read in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def _definitions(tree):
    """(node, is a method): top-level functions and classes, and the
    non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item, True


def _dataclass_fields(tree):
    """(class node, field name) for the annotated fields of every
    top-level class decorated with dataclass, called or not."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target.id


def _library_and_reads():
    """The parsed library, and (name, read as an attribute) -> [(path, line)]
    over the library and its callers."""
    library = {path: ast.parse(path.read_text()) for path in LIBRARY}
    callers = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    reads: dict[tuple, list] = {}
    for path in LIBRARY + callers:
        tree = library.get(path) or ast.parse(path.read_text())
        for name, line, attr in _reads(tree):
            reads.setdefault((name, attr), []).append((path, line))
    return library, reads


def test_every_library_definition_is_reached():
    library, reads = _library_and_reads()
    unreached = []
    for path, tree in library.items():
        for node, method in _definitions(tree):
            places = reads.get((node.name, True), [])
            if not method:
                places = places + reads.get((node.name, False), [])
            if not any(where != path or not node.lineno <= line <= node.end_lineno
                       for where, line in places):
                unreached.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not unreached, "reached only from unit tests, or not at all: " + ", ".join(unreached)


def test_every_dataclass_field_is_read():
    library, reads = _library_and_reads()
    unread = ["%s:%d %s.%s" % (path.name, cls.lineno, cls.name, name)
              for path, tree in library.items()
              for cls, name in _dataclass_fields(tree)
              if (name, True) not in reads]
    assert not unread, "dataclass fields read only from unit tests, or not at all: " + (
        ", ".join(unread))


def test_checks_are_recorded_only_through_check():
    paths = (LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py")))
    stale = ["%s:%d .%s()" % (path.relative_to(ROOT), node.lineno, node.func.attr)
             for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and (node.func.attr == "fail" or node.func.attr == "count"
                  and not node.args and not node.keywords)]
    assert not stale, "record a check with check(ok, witness): " + ", ".join(stale)


def test_no_import_inside_a_function():
    nested = []
    for path in LIBRARY:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested.extend("%s:%d" % (path.name, node.lineno) for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not nested, "import inside a function: " + ", ".join(sorted(set(nested)))


def test_only_star_algebra_imports_numpy():
    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    importers = sorted(path.name for path in LIBRARY
                       for node in ast.walk(ast.parse(path.read_text()))
                       if any(m.split(".")[0] == "numpy" for m in modules(node)))
    assert importers == ["star_algebra.py"], "numpy imported by: " + ", ".join(importers)


def test_only_sparse_sum_and_radical_define_the_linear_structure():
    shared = {"__neg__", "__sub__", "is_zero", "__bool__"}
    owners = {("scalar.py", "Radical"), ("util.py", "SparseSum")}
    copies = ["%s:%d %s.%s" % (path.name, item.lineno, node.name, item.name)
              for path in LIBRARY for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) and (path.name, node.name) not in owners
              for item in node.body
              if isinstance(item, ast.FunctionDef) and item.name in shared]
    assert not copies, "subclass util.SparseSum instead of defining: " + ", ".join(copies)
