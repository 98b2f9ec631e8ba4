r"""Dependency discovery.

`mine_fds` is a pruned levelwise walk over the attribute lattice (TANE,
Huhtala et al. 1999). A candidate X -> A is validated by counting A's
value ids inside each cluster of X's partition, so no partition product
is built just to score it. Scoring is bound-aware: `pair_errors` counts
cluster by cluster in growing stages and drops a dependent as soon as
its partial count is past the error threshold, which a partial count can
decide because violating pairs only accumulate. Most candidates fail,
most of those within the first stage, and only those that pass are
counted over every clustered row, so emitted errors stay exact. Each
node X carries its open dependents, TANE's C+(X): at level 1 every
dependent but X's attribute, and above it the dependents still past the
bound at every subset of X one smaller. A dependent within the bound at
a node is emitted there and so is settled for all its supersets, which
keeps every emitted dependency minimal. Level k+1 builds only the nodes
whose k-subsets share an open dependent, each by one partition product:
the smallest of those subsets split by the attribute it lacks. It builds
no node X that holds an attribute A whose X \ {A} -> A scored exactly 0,
where TANE empties C+(X): X then has the partition of X \ {A}, so every
candidate of X is settled below it or fails, and as X is not built, none
of its supersets is. Only error 0 prunes, since an approximate
X \ {A} -> A leaves the two partitions different. No level
is built past the size cap, so the level at the cap builds no product:
each of its nodes keeps that smallest subset and the lacking attribute's
value ids, and `pair_errors` splits the subset's clusters by those ids
as it scores.

The snapshot keeps every score, in `Relation.derived` under the bitmask
of X u {A}, then A and the bound, and a walk sends `pair_errors` only
the dependents of a node that have no kept score. A kept score decides
its bound as a new one would: it is exact when within the bound, and
past it otherwise, whether it was counted from a product or from a base
and a split. A score at another bound is not used. The error of X -> A
reads only the X u {A} columns, so `Relation.with_rows` passes a score
to the child snapshot when its edit left those columns equal, and a
re-mine after an UPDATE scores only the candidates that touch an updated
column (Schirmer et al., DynFD, EDBT 2019).

Validation runs serially and in a fixed order, so the outcome does not
depend on the requested worker count.

This module also parses and runs the MINEFD statement. The walk must
agree with the brute-force reference miner in `tests/oracle.py`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import NameResolutionError, ParameterError
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
from .partition import PLI, build_pli, intersect, pair_errors
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
    bound = spec.error_threshold
    kept = relation.derived
    lhs_universe = _filter_universe(spec.lhs_filter, relation, "determinant")
    rhs_universe = _filter_universe(spec.rhs_filter, relation, "dependent")

    singles = {
        a: build_pli(relation, a) for a in sorted(set(lhs_universe) | set(rhs_universe))
    }
    ids = {a: singles[a].ids for a in rhs_universe}
    entries: list[FDEntry] = []

    # nodes are ascending tuples of attribute indexes, each with its
    # partition, at the size cap the ids of the attribute that partition
    # lacks (see below), and its open dependents
    level: dict[tuple[int, ...], tuple[PLI, list[int] | None, set[int]]] = {
        (a,): (singles[a], None, set(rhs_universe) - {a}) for a in lhs_universe
    }
    size = 1
    while level:
        # each scored node with a dependent past the bound, and those
        # dependents; and each (node, dependent) at error exactly 0
        live: dict[tuple[int, ...], set[int]] = {}
        exact: set[tuple[tuple[int, ...], int]] = set()
        for node, (pli, split, open_rhs) in level.items():
            todo = sorted(open_rhs)
            # each candidate's kept score, under the bitmask of its columns
            mask = sum(1 << i for i in node)
            keys = {a: (mask | 1 << a, a, bound) for a in todo}
            unscored = [a for a in todo if keys[a] not in kept]
            if unscored:
                errors = pair_errors(
                    pli, [ids[a] for a in unscored], relation.row_count, bound, split
                )
                for a, err in zip(unscored, errors):
                    kept[keys[a]] = err
            for a in todo:
                err = kept[keys[a]]
                if err <= bound:
                    if err == 0:
                        exact.add((node, a))
                    entries.append(
                        FDEntry(
                            lhs=tuple(sorted(names[i] for i in node)),
                            rhs=names[a],
                            error=err,
                            origin=MINED,
                        )
                    )
                else:
                    live.setdefault(node, set()).add(a)

        if spec.max_lhs_len is not None and size >= spec.max_lhs_len:
            break
        # no level splits the nodes at the cap, so their products would be
        # scored once and dropped: keep each as its base and the lacking
        # attribute's ids, and split the base while scoring instead
        at_cap = size + 1 == spec.max_lhs_len
        next_level: dict[tuple[int, ...], tuple[PLI, list[int] | None, set[int]]] = {}
        for base in live:
            for last in lhs_universe:
                if last <= base[-1]:
                    continue
                node = base + (last,)
                subsets = [node[:i] + node[i + 1:] for i in range(size + 1)]
                # a dependent stays open at a node only while it is open and
                # past the bound at every subset one smaller (TANE's C+ sets):
                # a determinant emitted at a subset settles it, and a node
                # with nothing open is not built
                open_rhs = set.intersection(*(live.get(s, set()) for s in subsets))
                # nor is a node that holds an attribute its subset determines
                # at error exactly 0: it has that subset's partition, so its
                # candidates, and its supersets', are settled or fail
                if open_rhs and not any(
                    (s, node[i]) in exact for i, s in enumerate(subsets)
                ):
                    # every subset gives the same product, at a cost linear
                    # in the rows it covers: split the smallest (the first
                    # of equals) by the one attribute it lacks
                    _, i = min((level[s][0].covered, i) for i, s in enumerate(subsets))
                    smallest, lacking = level[subsets[i]][0], singles[node[i]]
                    next_level[node] = (
                        (smallest, lacking.ids, open_rhs)
                        if at_cap
                        else (intersect(smallest, lacking), None, open_rhs)
                    )
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
