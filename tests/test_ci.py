"""The CI workflow's benchmark gate runs every workload the benchmark
declares, the package's modules keep their layers, walk trees with one
walker and read files with one reader, and every source file compiles
without a warning."""

from __future__ import annotations

import ast
import json
import re
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semverdiff"


def test_the_benchmark_gate_runs_every_workload_untraced_and_traced():
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (workloads,) = re.findall(r"for workload in ([^;\n]*); do", workflow)
    (traces,) = re.findall(r"for trace in ([^;\n]*); do", workflow)
    assert sorted(workloads.split()) == sorted(declared) and len(set(declared)) == len(declared)
    assert sorted(traces.split()) == ["0", "1"]
    assert '--workload "$workload"' in workflow and '--trace "$trace"' in workflow


def _package_imports(path: Path) -> set[str]:
    """The semverdiff modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semverdiff."):
            found.add(node.module.removeprefix("semverdiff."))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("semverdiff.") for a in node.names if a.name.startswith("semverdiff."))
    return found


def test_module_layers():
    """The lexer reads no other module, the parser reads only the lexer and
    the type model, only the corpus pipeline and the front ends read impact,
    and no module grows past 1,050 lines."""
    modules = sorted(PACKAGE.glob("*.py"))
    imports = {path.stem: _package_imports(path) for path in modules}
    assert imports["lexer"] == set()
    assert imports["parser"] <= {"lexer", "gotypes"}
    assert {name for name, imported in imports.items() if "impact" in imported} == {"corpus", "cli", "__init__"}
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in modules}
    assert max(lines.values()) <= 1_050, lines


def test_one_tree_walker():
    """No module walks a tree with os.walk: surface.walk_go_files is the one
    walker, for module surfaces and client checkouts alike."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "walk" and isinstance(node.value, ast.Name) and node.value.id == "os":
                calls.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name == "walk" for a in node.names):
                calls.append((path.name, node.lineno))
    assert calls == []


def _file_openers(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of each reference to the builtin open, or
    to open in io, builtins, os or codecs, in a module's tree."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id == "open":
            found.append((function, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "open" and isinstance(node.value, ast.Name):
            if node.value.id in ("io", "builtins", "os", "codecs"):
                found.append((function, node.lineno))
        elif isinstance(node, ast.ImportFrom) and any(a.name == "open" for a in node.names):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_one_file_reader():
    """No module opens a file with the builtin open but surface.read_go_file,
    the one reader of .go files, which refuses what is not a regular file.
    Path.open, which the report writers call, is a method, and is allowed."""
    openers = {
        path.name: [function for function, _line in _file_openers(ast.parse(path.read_text(encoding="utf-8")))]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: functions for name, functions in openers.items() if functions} == {"surface.py": ["read_go_file"]}
    assert _file_openers(ast.parse("def f(p):\n    p.open('w')\n")) == []
    assert _file_openers(ast.parse("import io\ndef g(p):\n    return io.open(p)\nh = open\n")) == [("g", 3), ("<module>", 4)]


def test_every_source_compiles_without_a_warning():
    """An invalid escape in a string literal, such as "\\d" outside a raw
    string, warns at compile time (a DeprecationWarning on 3.11, a
    SyntaxWarning from 3.12), and is an error here. compile() writes no
    bytecode."""
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
