import ast
import sys
from pathlib import Path

import pytest

import tsdlink

SRC = Path(tsdlink.__file__).parent


def test_library_imports_only_the_standard_library():
    # every import of a tsdlink module is package-relative or a standard-library module
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_private_top_level_name_is_used():
    # a private top-level name (_x, not a dunder) of a tsdlink module is
    # referenced by some statement other than the one that defines it
    modules = sorted(SRC.glob("*.py"))
    defined, refs = {}, []
    for path in modules:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(path.name, name)] = stmt
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
            refs.append((stmt, used))
    assert len(defined) > 10
    unused = [
        f"{module}:{name}"
        for (module, name), stmt in sorted(defined.items())
        if not any(name in used for other, used in refs if other is not stmt)
    ]
    assert unused == []


def test_selftest_runs_every_bundled_document_and_the_package_ships_them():
    # builtin_algebra and bare CLI names read algebras/*.json, so an install must carry them
    from fnmatch import fnmatch

    from tsdlink.cli import SELFTEST_ALGEBRAS

    tomllib = pytest.importorskip("tomllib")
    documents = sorted(SRC.glob("algebras/*.json"))
    assert sorted(SELFTEST_ALGEBRAS) == sorted(path.stem for path in documents)
    assert len(set(SELFTEST_ALGEBRAS)) == len(SELFTEST_ALGEBRAS)
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["tsdlink"]
    for path in documents:
        assert any(fnmatch(path.relative_to(SRC).as_posix(), pattern) for pattern in patterns), path


def test_no_leg_route_is_written_as_numbers():
    # tsd and braiding write every leg route as a labelled layout (tensor.layout);
    # a tuple of four or more integers there is a hand-written route
    routes = []
    for name in ("tsd.py", "braiding.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            if isinstance(node, ast.Tuple) and len(node.elts) >= 4:
                if all(isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts):
                    routes.append((name, node.lineno))
    assert routes == []


def test_braiding_reads_no_arity():
    # the order in which a path undoes T is decided in TsdPair.undoing alone;
    # the braiding builders take it from there and never branch on the arity
    tree = ast.parse((SRC / "braiding.py").read_text(), "braiding.py")
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if "arity" in (getattr(node, "attr", None), getattr(node, "id", None))
    ]
    assert reads == []


def test_commands_return_their_report_and_run_cli_renders_it():
    # a _cmd_* function of the CLI neither prints, nor writes to a stream, nor reads the clock,
    # nor formats JSON: run_cli times, renders and picks the exit code for every command
    tree = ast.parse((SRC / "cli.py").read_text(), "cli.py")
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 5
    refs = [
        (command.name, node.lineno)
        for command in commands
        for node in ast.walk(command)
        if {getattr(node, "id", None), getattr(node, "arg", None)} & {"print", "out", "time", "json"}
    ]
    assert refs == []
