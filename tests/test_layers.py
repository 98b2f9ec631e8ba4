"""The package's modules form layers: each imports only earlier ones.

`query` sits above `miner`, so it may call the miner, and the miner
never reaches the query layer.
"""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdq"
LAYERS = [
    "errors", "tokens", "result", "relation", "setexpr", "partition",
    "fdstore", "cfd", "miner", "query", "cli",
]
ENTRY_POINTS = {"__init__", "__main__"}


def package_imports(path: pathlib.Path) -> set[str]:
    """Sibling modules a file imports, relatively or as `fdq.<name>`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("fdq."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("fdq.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules - ENTRY_POINTS == set(LAYERS)


def test_modules_import_only_earlier_layers():
    upward = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in LAYERS:
            earlier = set(LAYERS[: LAYERS.index(path.stem)])
            later = sorted(package_imports(path) - earlier)
            if later:
                upward[path.stem] = later
    assert upward == {}


def test_starting_fdq_imports_neither_datetime_nor_fractions():
    """Every start pays for what `fdq.cli` imports: `datetime` only gave the
    MINEFD clock its text, `fractions` only the distance of two numbers, and
    `time` and ints give both. A fresh interpreter, so no other test's
    imports count."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    script = "import sys, fdq.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-B", "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "fdq.cli" in loaded
    assert {"datetime", "fractions"}.isdisjoint(loaded)


def test_the_package_imports_only_the_standard_library():
    """fdq needs nothing but Python itself: every absolute import in the
    package names a standard library module."""
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names:
                    outside.setdefault(path.stem, set()).add(top)
    assert outside == {}
