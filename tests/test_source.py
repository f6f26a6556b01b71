"""Static checks of the library source, with the standard ``ast`` module: every import is
used, every private module-level name is read somewhere in the library, every public one
has a caller in the library, the demos or the benchmark, every name of the package's lazy
table is exported by its submodule, the runtime dependencies are the third-party modules it
imports, no module tells a scoring rule by identity, and every JSON file and result CSV is
written through ``population.write_json`` or ``population.write_csv``, the one place that
indents JSON."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repsoc"
MODULES = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(SOURCE.glob("*.py"))}
# the code that may call the library: itself, the demos and the benchmark, not the tests
CALLERS = [
    ast.parse(path.read_text(), str(path))
    for folder in (SOURCE, ROOT / "demos", ROOT / "bench")
    for path in sorted(folder.glob("*.py"))
]
# exported names with no caller yet, each with the reason it stays
UNCALLED = {
    "check_path_privilege": "criterion 6 of the acceptance tests reads it, until an exact privilege check replaces it",
}


def _assigned(tree: ast.Module, name: str):
    """The syntax of the value assigned to the module-level ``name``, or None."""
    return next(
        (
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
        ),
        None,
    )


def _lazy_table(tree: ast.Module) -> dict:
    """The package's lazy table: each submodule and the public names read from it; empty in
    a module that has none."""
    table = _assigned(tree, "_EXPORTS")
    return {} if table is None else ast.literal_eval(table)


def _exported(tree: ast.Module) -> set:
    """The strings listed in the module's ``__all__``; the package computes its ``__all__``
    from its lazy table."""
    if table := _lazy_table(tree):
        return {name for names in table.values() for name in names}
    listed = _assigned(tree, "__all__")
    return set() if listed is None else set(ast.literal_eval(listed))


def _loaded(tree: ast.Module) -> set:
    """The names a module loads, and those it exports."""
    loads = (node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return {*loads, *_exported(tree)}


def _read(tree: ast.Module) -> set:
    """The names a module reads from itself or another module: loaded and exported names,
    attribute names, and the names it imports from another module."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree: ast.Module):
    """Each name a module binds by an import, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def _private_definitions(tree: ast.Module):
    """Each private (``_name``, not dunder) function, class or variable defined at module level,
    with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_import_is_used():
    unused = [
        f"{module}:{line} {name}"
        for module, tree in MODULES.items()
        for loaded in [_loaded(tree)]
        for name, line in _imported(tree)
        if name not in loaded
    ]
    assert unused == []


def test_the_runtime_dependencies_are_the_third_party_modules_the_library_imports():
    """``pyproject.toml`` declares as runtime dependencies exactly the third-party modules that
    the library imports; one that only the tests import belongs in the ``test`` extra."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    imported = {
        name.split(".")[0]
        for tree in MODULES.values()
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    }
    third_party = imported - set(sys.stdlib_module_names)
    assert third_party == {re.split(r"[\s\[<>=!~;]", spec, maxsplit=1)[0].lower() for spec in declared}


def test_every_private_module_level_name_is_read_in_the_library():
    read = set().union(*map(_read, MODULES.values()))
    unread = [
        f"{module}:{line} {name}"
        for module, tree in MODULES.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []


def _calls(module: str, node: ast.AST, name: str) -> bool:
    """Whether ``node`` reads ``module.name``, or imports ``name`` from ``module``."""
    return (isinstance(node, ast.Attribute) and node.attr == name and getattr(node.value, "id", None) == module) or (
        isinstance(node, ast.ImportFrom) and node.module == module and name in {a.name for a in node.names}
    )


def test_no_module_streams_json_to_a_file():
    """``json.dump`` writes one token at a time; every JSON file goes through ``write_json``,
    which writes ``json.dumps`` text in one call."""
    streamed = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if _calls("json", node, "dump")
    ]
    assert streamed == []


def _indenting_dumps(tree: ast.AST) -> set:
    """The ``json.dumps(..., indent=...)`` calls under ``tree``."""
    return {
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _calls("json", node.func, "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    }


def test_only_write_json_indents_json():
    """JSON text is laid out in one place: ``json.dumps(..., indent=...)`` appears nowhere but
    in ``write_json``, the one writer, which lays out by hand only a space file's rows."""
    writer = next(
        node
        for node in ast.walk(MODULES["population.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "write_json"
    )
    indented = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in _indenting_dumps(tree) - _indenting_dumps(writer)
    ]
    assert indented == []


def test_only_population_writes_csv():
    """Every result CSV goes through ``write_csv``, the one place that formats its floats."""
    writers = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        if module != "population.py"
        for node in ast.walk(tree)
        if _calls("csv", node, "writer")
    ]
    assert writers == []


def test_every_lazy_name_is_exported_by_its_module():
    """The package reads each public name from a submodule whose ``__all__`` lists it, so a
    name renamed or dropped there cannot leave a stale entry in the package's table."""
    stale = [
        f"{module}: {name}"
        for module, names in _lazy_table(MODULES["__init__.py"]).items()
        for name in names
        if f"{module}.py" not in MODULES or name not in _exported(MODULES[f"{module}.py"])
    ]
    assert stale == []


def test_every_exported_name_has_a_caller():
    """A name in a library module's ``__all__`` is loaded, or read as an attribute, somewhere
    in the library, the demos or the benchmark; an import or ``__all__`` entry alone is no
    caller."""
    called = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for tree in CALLERS
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    uncalled = [
        f"{module}: {name}"
        for module, tree in MODULES.items()
        for name in sorted(_exported(tree))
        if name not in called and name not in UNCALLED
    ]
    assert uncalled == []
    assert [name for name in UNCALLED if name in called] == []  # an exception with a caller goes


def test_only_spaces_finds_an_issue_in_its_code_blocks():
    """``CandidateSpace._locate`` is the one map from an issue to its (block, column): no
    other library module searches a block's issues, as by ``issues.index(issue)``."""
    searches = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        if module != "spaces.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _calls("issues", node.func, "index")
    ]
    assert searches == []


def test_no_module_tells_a_rule_by_identity():
    """A scoring rule carries its own kernel: no library module compares a value with ``KENDALL``
    or ``EXACT_MATCH`` by ``is`` or ``is not``, so an equal copy of a rule scores as the rule."""
    rules = {"KENDALL", "EXACT_MATCH"}
    named = lambda node: (getattr(node, "id", None) or getattr(node, "attr", None)) in rules  # noqa: E731
    by_identity = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(map(named, [node.left, *node.comparators]))
    ]
    assert by_identity == []
