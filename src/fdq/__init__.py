"""fdq: mine functional dependencies, keep them, and query with them."""

from .errors import (
    ContractError,
    FdqError,
    IngestError,
    KindMismatchError,
    NameResolutionError,
    ParameterError,
    ParseError,
    SchemaError,
    UnsupportedOperationError,
)
from .relation import (
    AttributeMeta,
    Comparison,
    And,
    Not,
    Or,
    Relation,
    TRUE,
    eval_row_predicate,
    load_csv,
)
from .partition import PLI, build_pli, error_measure, intersect, pli_of, value_ids
from .result import ResultTable
from .fdstore import (
    FDEntry,
    FDSet,
    attr_closure,
    diff_fdsets,
    eval_fdml,
    import_fdset,
    is_implied,
    load_fdset,
    parse_fdml,
    save_fdset,
)
from .cfd import (
    CFD,
    PatternTableau,
    cfd_confidence,
    cfd_support,
    tableau_match_rows,
)
from .miner import MiningSpec, execute_minefd, mine_fds, parse_minefd
from .query import (
    ExtendedSelect,
    FdPredicate,
    eval_dependent,
    eval_holds,
    eval_not_holds,
    eval_violates,
    execute,
    parse_extended_select,
    select_to_text,
)
from .cli import Session, render, run_command

__all__ = [name for name in dir() if not name.startswith("_")]
