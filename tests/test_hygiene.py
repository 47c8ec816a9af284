"""Source hygiene: every name a module imports is read somewhere in it,
and every top-level definition in the package is used somewhere."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fglcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name != "annotations"
    )


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from typing import Any\nx: Any = 1\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str) -> set[str]:
    """Names a module loads, reads as attributes or imports, leaving out
    a top-level definition's references to itself."""
    out = set()
    for top in ast.parse(source).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        out |= names
    return out


def unreferenced_definitions(modules: dict[str, str], sources: list[str]) -> list[str]:
    """Top-level functions and classes of the modules (name to source)
    that none of the sources refers to.  Handlers ``_cmd_*``, which the
    CLI looks up by name, and ``main`` are exempt."""
    used = set().union(*map(referenced_names, sources))
    return sorted(
        f"{module}.{top.name}"
        for module, source in modules.items()
        for top in ast.parse(source).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name not in used
        and not top.name.startswith("_cmd_")
        and top.name != "main"
    )


def test_scan_flags_an_unreferenced_definition():
    m = "def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\ndef _cmd_h():\n    pass\n"
    assert unreferenced_definitions({"m": m}, [m]) == ["m.f", "m.g"]
    assert unreferenced_definitions({"m": m}, [m, "from m import f\nm.g()\n"]) == []


def test_every_definition_is_referenced():
    sources = [p.read_text() for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")]
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_definitions(modules, sources) == []
