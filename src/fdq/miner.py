"""Dependency discovery.

`mine_fds` is a pruned levelwise walk over the attribute lattice (TANE,
Huhtala et al. 1999). A candidate X -> A is validated by counting A's
value ids inside each cluster of X's partition, so no partition product
is built just to score it. Scoring is bound-aware: `pair_errors` counts
cluster by cluster in growing stages and drops a dependent as soon as
its partial count is past the error threshold, which a partial count can
decide because violating pairs only accumulate. Most candidates fail,
most of those within the first stage, and only those that pass are
counted over every clustered row, so emitted errors stay exact. A
candidate is skipped once a smaller determinant for the same dependent
has been emitted, so only minimal dependencies surface. A node whose
every dependent is settled that way is dead: no superset can yield a
candidate, so level k+1 builds only the nodes whose k-subsets are all
live, each by one partition product. No level is built past the size
cap. Validation runs serially and in a fixed order, so the outcome does
not depend on the requested worker count.

`brute_force_mine` answers the same question by brute force over row
pairs, with no partitions involved, and exists to cross-check the fast
path at small scale (intended for relations up to about 10 attributes).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping, Sequence

from .errors import ContractError, NameResolutionError, ParameterError
from .fdstore import (
    ErrorLeq,
    FDEntry,
    FDSet,
    LhsLength,
    LhsLike,
    MINED,
    RhsLike,
    canonical_key,
    parse_fdml_condition,
)
from .partition import PLI, build_pli, grouped, intersect, pair_errors, value_ids
from .query import Cell, PatternTableau, cell_matches
from .relation import Or, Relation, walk
from .setexpr import SetExpr, eval_subset_expr, literal_patterns
from .tokens import TokenStream, statement_parser

log = logging.getLogger("fdq.miner")


@dataclass(frozen=True)
class MiningSpec:
    """What to mine: determinant/dependent filters, size cap, error bound."""

    lhs_filter: SetExpr | None = None
    rhs_filter: SetExpr | None = None
    max_lhs_len: int | None = None
    error_threshold: float = 0.0

    def __post_init__(self):
        if self.max_lhs_len is not None and self.max_lhs_len < 1:
            raise ParameterError("max determinant size must be at least 1")
        if not 0.0 <= self.error_threshold < 1.0:
            raise ParameterError(
                f"error threshold {self.error_threshold} outside [0, 1)"
            )


def _check_literals(expr: SetExpr | None, names: Sequence[str], side: str) -> None:
    if expr is None:
        return
    known = set(names)
    for pattern in literal_patterns(expr):
        if pattern not in known:
            raise NameResolutionError(
                f"{side} filter names unknown attribute {pattern!r}"
            )


def _filter_universe(
    expr: SetExpr | None, relation: Relation, side: str
) -> list[int]:
    names = relation.attribute_names
    if expr is None:
        return list(range(len(names)))
    _check_literals(expr, names, side)
    hits: set[str] = set()
    for alternative in eval_subset_expr(expr, names):
        hits.update(alternative)
    if not hits:
        log.warning("%s filter matched no attributes; result will be empty", side)
    return [i for i, n in enumerate(names) if n in hits]


def mine_fds(
    relation: Relation,
    spec: MiningSpec = MiningSpec(),
    *,
    name: str = "",
    mined_at: str = "",
    workers: int = 1,
) -> FDSet:
    """Mine the minimal dependencies meeting the requested error bound.

    Emitted entries are sorted by (determinant size, determinant names,
    dependent name). Within the filter universe the result is a cover:
    every smaller determinant for the same dependent that also meets the
    bound would have been emitted first and pruned its supersets.
    `workers` is validated but mining runs serially.
    """
    if workers < 1:
        raise ParameterError("workers must be at least 1")
    names = relation.attribute_names
    lhs_universe = _filter_universe(spec.lhs_filter, relation, "determinant")
    rhs_universe = _filter_universe(spec.rhs_filter, relation, "dependent")

    singles = {
        a: build_pli(relation, a) for a in sorted(set(lhs_universe) | set(rhs_universe))
    }
    ids = {a: value_ids(singles[a]) for a in rhs_universe}
    emitted: dict[int, list[frozenset[int]]] = {a: [] for a in rhs_universe}
    entries: list[FDEntry] = []

    # nodes are ascending tuples of attribute indexes
    level: dict[tuple[int, ...], PLI] = {(a,): singles[a] for a in lhs_universe}
    size = 1
    while level:
        live: list[tuple[int, ...]] = []
        for node, pli in level.items():
            lhs = frozenset(node)
            todo = [
                a for a in rhs_universe
                if a not in lhs and not any(smaller <= lhs for smaller in emitted[a])
            ]
            if not todo:
                continue
            errors = pair_errors(
                pli, [ids[a] for a in todo], relation.row_count, spec.error_threshold
            )
            alive = False
            for a, err in zip(todo, errors):
                if err <= spec.error_threshold:
                    emitted[a].append(lhs)
                    entries.append(
                        FDEntry(
                            lhs=tuple(sorted(names[i] for i in lhs)),
                            rhs=names[a],
                            error=err,
                            origin=MINED,
                        )
                    )
                else:
                    alive = True
            if alive:
                live.append(node)

        if spec.max_lhs_len is not None and size >= spec.max_lhs_len:
            break
        # a dead node settles every dependent for all its supersets, so a
        # node is built only when each of its subsets one smaller is live
        live_set = set(live)
        next_level: dict[tuple[int, ...], PLI] = {}
        for base in live:
            for last in lhs_universe:
                if last <= base[-1]:
                    continue
                node = base + (last,)
                if all(node[:i] + node[i + 1:] in live_set for i in range(size)):
                    next_level[node] = intersect(level[base], singles[last])
        level = next_level
        size += 1

    entries.sort(key=canonical_key)
    return FDSet(
        name=name,
        table_binding=relation.name,
        table_fingerprint=relation.fingerprint,
        entries=tuple(entries),
        mined_at=mined_at,
    )


def brute_force_mine(
    relation: Relation,
    spec: MiningSpec = MiningSpec(),
    *,
    name: str = "",
    mined_at: str = "",
) -> FDSet:
    """Reference miner: errors from direct row-pair agreement counting.

    Enumerates every candidate in the filter universe, computes each error
    straight from agreement bitmasks over all row pairs, then keeps the
    minimal passing determinants. Quadratic in rows and exponential in
    attributes; meant for cross-checks at small scale.
    """
    n = relation.row_count
    names = relation.attribute_names
    width = len(names)
    lhs_universe = _filter_universe(spec.lhs_filter, relation, "determinant")
    rhs_universe = _filter_universe(spec.rhs_filter, relation, "dependent")

    # one bitmask per unordered pair: bit a set iff the rows agree on a
    mask_counts: dict[int, int] = {}
    rows = relation.rows
    for i in range(n):
        for j in range(i + 1, n):
            mask = 0
            for a in range(width):
                if rows[i][a] == rows[j][a]:
                    mask |= 1 << a
            mask_counts[mask] = mask_counts.get(mask, 0) + 1

    denominator = n * n - n

    def error_of(lhs_mask: int, rhs_bit: int) -> float:
        if denominator == 0:
            return 0.0
        violating = sum(
            2 * count
            for mask, count in mask_counts.items()
            if mask & lhs_mask == lhs_mask and not mask & rhs_bit
        )
        return violating / denominator

    max_size = len(lhs_universe)
    if spec.max_lhs_len is not None:
        max_size = min(max_size, spec.max_lhs_len)

    passing: dict[tuple[frozenset[int], int], float] = {}
    for size in range(1, max_size + 1):
        for combo in combinations(lhs_universe, size):
            lhs_mask = 0
            for a in combo:
                lhs_mask |= 1 << a
            for a in rhs_universe:
                if a in combo:
                    continue
                err = error_of(lhs_mask, 1 << a)
                if err <= spec.error_threshold:
                    passing[(frozenset(combo), a)] = err

    by_rhs: dict[int, list[tuple[frozenset[int], float]]] = {}
    for (lhs, a), err in passing.items():
        by_rhs.setdefault(a, []).append((lhs, err))

    entries = []
    for a, group in by_rhs.items():
        group.sort(key=lambda pair: len(pair[0]))
        minimal: list[frozenset[int]] = []
        for lhs, err in group:
            if any(m < lhs for m in minimal):
                continue
            minimal.append(lhs)
            entries.append(
                FDEntry(
                    lhs=tuple(sorted(names[i] for i in lhs)),
                    rhs=names[a],
                    error=err,
                    origin=MINED,
                )
            )
    entries.sort(key=canonical_key)
    return FDSet(
        name=name,
        table_binding=relation.name,
        table_fingerprint=relation.fingerprint,
        entries=tuple(entries),
        mined_at=mined_at,
    )


# --- conditional dependencies --------------------------------------------------

@dataclass(frozen=True)
class CFD:
    """A dependency embedded with a pattern tableau restricted to it."""

    lhs: tuple[str, ...]
    rhs: str
    tableau: PatternTableau

    def __post_init__(self):
        allowed = set(self.lhs) | {self.rhs}
        outside = set(self.tableau.attributes) - allowed
        if outside:
            raise ContractError(
                f"tableau touches attributes outside the dependency: {sorted(outside)}"
            )


def _match_cells(row, indexed_cells) -> bool:
    return all(cell_matches(row[j], cell) for j, cell in indexed_cells)


def cfd_support(
    relation: Relation,
    lhs: Sequence[str],
    rhs: str,
    pattern: Mapping[str, Cell],
) -> float:
    """Fraction of rows the single pattern row matches (0.0 on no rows).

    The pattern must cover exactly the dependency's attributes; wildcards
    are None values, constraints are (op, constant) cells.
    """
    expected = set(lhs) | {rhs}
    if set(pattern) != expected:
        raise ContractError(
            f"pattern must cover exactly {sorted(expected)}, got {sorted(pattern)}"
        )
    if relation.row_count == 0:
        return 0.0
    indexed = [
        (relation.attribute(a).index, cell)
        for a, cell in pattern.items()
        if cell is not None
    ]
    matched = sum(1 for row in relation.rows if _match_cells(row, indexed))
    return matched / relation.row_count


def cfd_confidence(relation: Relation, cfd: CFD) -> float:
    """Largest fraction of rows keepable so the conditional dependency holds.

    Rows are grouped by the full determinant. A group matched by no
    pattern row is kept whole. A matched group keeps the rows of its most
    frequent dependent value among values compatible with every matching
    pattern's dependent cell; if no value is compatible the group drops
    entirely. An empty relation scores 1.0.
    """
    n = relation.row_count
    if n == 0:
        return 1.0
    lhs_idx = [relation.attribute(a).index for a in cfd.lhs]
    rhs_idx = relation.attribute(cfd.rhs).index
    tab_idx = [relation.attribute(a).index for a in cfd.tableau.attributes]
    lhs_cells_per_pattern = []
    rhs_cell_per_pattern: list[Cell] = []
    for pattern in cfd.tableau.rows:
        lhs_cells = []
        rhs_cell: Cell = None
        for j, cell in zip(tab_idx, pattern):
            if j == rhs_idx:
                rhs_cell = cell
            else:
                lhs_cells.append((j, cell))
        lhs_cells_per_pattern.append(lhs_cells)
        rhs_cell_per_pattern.append(rhs_cell)

    kept = 0
    for rows_in_group in grouped(relation, lhs_idx).values():
        sample = relation.rows[rows_in_group[0]]
        matched_patterns = [
            p for p, cells in enumerate(lhs_cells_per_pattern)
            if _match_cells(sample, cells)
        ]
        if not matched_patterns:
            kept += len(rows_in_group)
            continue
        counts: dict = {}
        for i in rows_in_group:
            value = relation.rows[i][rhs_idx]
            if all(
                cell_matches(value, rhs_cell_per_pattern[p]) for p in matched_patterns
            ):
                counts[value] = counts.get(value, 0) + 1
        if counts:
            kept += max(counts.values())
    return kept / n


# --- the MINEFD statement --------------------------------------------------------

@dataclass(frozen=True)
class MinefdStatement:
    """Parsed `MINEFD <name> AS SELECT LHS -> RHS [, ERROR] [WHERE ...] FROM
    <table> [ERROR <bound>]`."""

    name: str
    table: str
    show_error: bool = False
    lhs_filter: SetExpr | None = None
    rhs_filter: SetExpr | None = None
    length_bounds: tuple[tuple[str, int], ...] = ()
    error_threshold: float = 0.0

    def mining_spec(self) -> MiningSpec:
        """Fold the parsed filters into a spec; upper length bounds cap the
        lattice walk, other length operators filter afterwards."""
        cap = None
        for op, k in self.length_bounds:
            limit = k if op in {"<=", "="} else k - 1 if op == "<" else None
            if limit is not None:
                cap = limit if cap is None else min(cap, limit)
        return MiningSpec(
            lhs_filter=self.lhs_filter,
            rhs_filter=self.rhs_filter,
            max_lhs_len=cap,
            error_threshold=self.error_threshold,
        )

    def keeps_length(self, size: int) -> bool:
        return all(LhsLength(op, k).admits(size) for op, k in self.length_bounds)


@statement_parser
def parse_minefd(text: str) -> MinefdStatement:
    """Parse a mining statement.

    A trailing `ERROR <bound>` after the table sets the mining threshold;
    `, ERROR` inside the SELECT list asks for the error column in the
    rendered output. WHERE takes SELECTDEP's LHS LIKE, RHS LIKE and LHS
    LENGTH atoms, joined by AND only (parentheses allowed); each LIKE side
    may appear once.
    """
    ts = TokenStream(text)
    ts.expect_kw("MINEFD")
    name = ts.expect_ident("a dependency-set name")
    ts.expect_kw("AS")
    ts.expect_kw("SELECT")
    ts.expect_kw("LHS")
    ts.expect_punct("->")
    ts.expect_kw("RHS")
    show_error = False
    if ts.accept_punct(","):
        ts.expect_kw("ERROR")
        show_error = True

    lhs_filter = None
    rhs_filter = None
    length_bounds: list[tuple[str, int]] = []
    if ts.accept_kw("WHERE"):
        where = ts.peek()
        for node in walk(parse_fdml_condition(ts)):
            if isinstance(node, Or):
                raise ts.error("mining constraints combine with AND only", where)
            if isinstance(node, ErrorLeq):
                raise ts.error(
                    "the mining bound goes after the table: FROM <table> ERROR <bound>",
                    where,
                )
            if isinstance(node, LhsLike):
                if lhs_filter is not None:
                    raise ts.error("LHS LIKE given twice", where)
                lhs_filter = node.expr
            elif isinstance(node, RhsLike):
                if rhs_filter is not None:
                    raise ts.error("RHS LIKE given twice", where)
                rhs_filter = node.expr
            elif isinstance(node, LhsLength):
                length_bounds.append((node.op, node.length))

    ts.expect_kw("FROM")
    table = ts.expect_ident("a table name")
    threshold = 0.0
    if ts.accept_kw("ERROR"):
        threshold = ts.expect_bound()
    ts.expect_end()
    return MinefdStatement(
        name=name,
        table=table,
        show_error=show_error,
        lhs_filter=lhs_filter,
        rhs_filter=rhs_filter,
        length_bounds=tuple(length_bounds),
        error_threshold=threshold,
    )


def execute_minefd(
    statement: MinefdStatement,
    relation: Relation,
    *,
    workers: int = 1,
    mined_at: str = "",
) -> FDSet:
    """Mine per the statement and apply any non-cap length constraints."""
    mined = mine_fds(
        relation,
        statement.mining_spec(),
        name=statement.name,
        mined_at=mined_at,
        workers=workers,
    )
    if all(op in {"<=", "<"} for op, _ in statement.length_bounds):
        return mined
    kept = tuple(e for e in mined.entries if statement.keeps_length(len(e.lhs)))
    return replace(mined, entries=kept)
