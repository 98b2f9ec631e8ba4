"""The package's modules form layers: each imports only earlier ones.

`query` sits above `miner`, so it may call the miner, and the miner
never reaches the query layer.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdq"
LAYERS = [
    "record", "errors", "tokens", "result", "relation", "setexpr", "partition",
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


def absolute_imports(path: pathlib.Path) -> set[str]:
    """Top-level names of the modules a file imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
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


def test_no_module_imports_another_modules_private_names():
    """A `_` name belongs to its module: a rule that another layer needs is
    served under a public name, so each rule keeps one owner."""
    borrowed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("fdq")
            ):
                names = [a.name for a in node.names if a.name.startswith("_")]
                if names:
                    borrowed.setdefault(path.stem, []).extend(names)
    assert borrowed == {}


def test_starting_the_cli_loads_no_module_only_some_statements_need():
    """Every start pays for what `fdq.cli` imports: `datetime` only gave the
    MINEFD clock its text, `fractions` only the distance of two numbers, and
    `time` and ints give both. `logging` serves one miner warning, `hashlib`
    (with OpenSSL's `_hashlib`) the table fingerprint, and `fdq.cfd` no
    statement at all, so each loads only where it is used. `dataclasses`
    (with `inspect`) would only build the value classes, which
    `fdq.record.Record` builds without it. A fresh interpreter, so no other
    test's imports count."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    script = "import sys, fdq.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-B", "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "fdq.cli" in loaded
    unneeded = {
        "datetime", "fractions", "logging", "hashlib", "_hashlib", "fdq.cfd",
        "dataclasses", "inspect",
    }
    assert unneeded.isdisjoint(loaded)


def test_no_module_imports_dataclasses():
    """fdq's value classes are `Record`s, so no start pays for generating
    methods or loading `dataclasses`."""
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in absolute_imports(path)
    ]
    assert importers == []


# the package's public names, under the module that defines each; the
# modules' own names are public too
PUBLIC = {
    "errors": "ContractError FdqError IngestError KindMismatchError "
    "NameResolutionError ParameterError ParseError SchemaError "
    "UnsupportedOperationError",
    "relation": "And AttributeMeta Comparison Not Or Relation TRUE "
    "eval_row_predicate load_csv",
    "partition": "PLI build_pli error_measure intersect pli_of value_ids",
    "result": "ResultTable",
    "fdstore": "FDEntry FDSet attr_closure diff_fdsets eval_fdml import_fdset "
    "is_implied load_fdset parse_fdml save_fdset",
    "cfd": "CFD PatternTableau cfd_confidence cfd_support tableau_match_rows",
    "miner": "MiningSpec execute_minefd mine_fds parse_minefd",
    "query": "ExtendedSelect FdPredicate eval_dependent eval_holds "
    "eval_not_holds eval_violates execute parse_extended_select select_to_text",
    "cli": "Session render run_command",
    "setexpr": "",
    "tokens": "",
    "record": "",
}


def test_the_package_serves_its_public_names():
    """`fdq` lists its 68 names, in `__all__` and `dir()`, and each, though
    imported on first use, is its defining module's object."""
    import fdq

    names = [*PUBLIC, *" ".join(PUBLIC.values()).split()]
    assert len(names) == 68
    assert fdq.__all__ == sorted(names)
    assert [name for name in dir(fdq) if not name.startswith("_")] == fdq.__all__
    for module, exported in PUBLIC.items():
        home = importlib.import_module(f"fdq.{module}")
        assert getattr(fdq, module) is home
        for name in exported.split():
            assert getattr(fdq, name) is getattr(home, name), name
    assert fdq.CFD is fdq.cfd.CFD
    assert not hasattr(fdq, "no_such_name")


def test_the_package_imports_only_the_standard_library():
    """fdq needs nothing but Python itself: every absolute import in the
    package names a standard library module."""
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tops = absolute_imports(path) - sys.stdlib_module_names
        if tops:
            outside[path.stem] = tops
    assert outside == {}
