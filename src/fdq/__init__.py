"""fdq: mine functional dependencies, keep them, and query with them.

The public names below are served from their submodules on first use
(PEP 562), so a start loads only the layers it runs: `import fdq.cli`
never loads `fdq.cfd`, which no statement calls.
"""

# each submodule with the public names it gives the package
_EXPORTS = {
    "errors": "ContractError FdqError IngestError KindMismatchError "
    "NameResolutionError ParameterError ParseError SchemaError "
    "UnsupportedOperationError",
    "relation": "AttributeMeta Comparison And Not Or Relation TRUE "
    "eval_row_predicate load_csv",
    "partition": "PLI build_pli error_measure intersect pli_of value_ids",
    "result": "ResultTable",
    "fdstore": "FDEntry FDSet attr_closure diff_fdsets eval_fdml import_fdset "
    "is_implied load_fdset parse_fdml save_fdset",
    "cfd": "CFD PatternTableau cfd_confidence cfd_support tableau_match_rows",
    "miner": "MiningSpec execute_minefd mine_fds parse_minefd",
    "query": "ExtendedSelect FdPredicate eval_dependent eval_holds eval_not_holds "
    "eval_violates execute parse_extended_select select_to_text",
    "cli": "Session render run_command",
    "setexpr": "",
    "tokens": "",
    "record": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
