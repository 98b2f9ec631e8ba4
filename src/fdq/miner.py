r"""Dependency discovery.

`mine_fds` is a pruned levelwise walk over the attribute lattice (TANE,
Huhtala et al. 1999). Each node X carries its open dependents, TANE's
C+(X): at level 1 every dependent but X's attribute, and above it the
dependents still past the bound at every subset of X one smaller. A
dependent within the bound at a node is emitted there and so is settled
for all its supersets, which keeps every emitted dependency minimal.
Level k+1 holds only the nodes whose k-subsets share an open dependent,
each built by one partition product: the smallest of those subsets split
by the attribute it lacks.

A candidate X -> A is scored from pair counts where the walk has the
product X u {A}, as TANE validates: pairs(P) is the number of ordered
pairs of distinct rows in one cluster of P, and X -> A has
pairs(X) - pairs(X u {A}) violating pairs, the integer `pair_errors`
counts, so the error is the same float. So before it scores level k, the
walk builds the products of level k+1 that score a candidate of level k,
among the nodes whose subsets share an open dependent; a product that the
scores then leave without a shared open dependent is dropped before the
next level. Any other candidate goes to `pair_errors`, which counts A's
value ids inside each cluster of X, in growing stages, and drops a
dependent as soon as its partial count is past the bound: violating
pairs only accumulate, so a partial count decides that, and a dependent
within the bound is counted to the end, so emitted errors stay exact.

A node whose partition equals that of a subset holds an attribute the
subset determines exactly; every candidate of such a node, and of its
supersets, is settled below it or fails, as TANE empties its C+. So no
such node enters a level, and as it is not live none of its supersets is
built. Such a node is seen before its product is built when its
subset scored the attribute it lacks at exactly 0, and otherwise, at any
bound, as a product whose pair count equals a subset's: splitting a
cluster of a + b rows removes 2ab pairs, so equal counts mean equal
partitions. At the cap, where no product is built, only the first test
applies.

No level is built past the size cap, so the level at the cap builds no
product, and the level below it scores with `pair_errors`: each node at
the cap keeps that smallest subset and the lacking attribute's value
ids, and `pair_errors` splits the subset's clusters by those ids as it
scores.

The snapshot keeps every score, in `Relation.derived` under the bitmask
of X u {A} and A, as (error, exact): a count from pair counts, or one
that `pair_errors` counted to the end, is exact, and any other is a
partial count past the bound it was taken at. A kept score decides a
bound when it is exact or already past it, so a walk at a looser bound
reuses it and scores only the candidates no kept score decides. The error of X -> A reads only the
X u {A} columns, so `Relation.with_rows` passes a score to the child
snapshot when its edit left those columns equal, and a re-mine after an
UPDATE scores only the candidates that touch an updated column (Schirmer
et al., DynFD, EDBT 2019).

Validation runs serially and in a fixed order, so the outcome does not
depend on the requested worker count.

This module also parses and runs the MINEFD statement. The walk must
agree with the brute-force reference miner in `tests/oracle.py`.
"""

from __future__ import annotations

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
from .partition import PLI, build_pli, intersect, pair_errors, value_ids
from .record import Record, replace
from .relation import Or, Relation, walk
from .setexpr import SetExpr, eval_subset_expr, literal_patterns
from .tokens import TokenStream, statement_parser


class MiningSpec(Record):
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


def _filter_universe(
    expr: SetExpr | None, relation: Relation, side: str
) -> list[int]:
    names = relation.attribute_names
    if expr is None:
        return list(range(len(names)))
    for pattern in literal_patterns(expr):
        if pattern not in names:
            raise NameResolutionError(
                f"{side} filter names unknown attribute {pattern!r}"
            )
    hits: set[str] = set()
    for alternative in eval_subset_expr(expr, names):
        hits.update(alternative)
    if not hits:
        import logging  # loaded here, its only use, so no other start pays for it

        logging.getLogger("fdq.miner").warning(
            "%s filter matched no attributes; result will be empty", side
        )
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

    # a partition for each determinant attribute, value ids for each dependent
    singles = {a: build_pli(relation, a) for a in lhs_universe}
    ids = {a: value_ids(relation, a) for a in rhs_universe}
    n = relation.row_count
    denominator = n * n - n
    entries: list[FDEntry] = []

    # nodes are bitmasks of attribute indexes, each with its partition, at
    # the size cap the ids of the attribute that partition lacks (see
    # below), and its open dependents; X -> A's kept score sits under
    # (X | 1 << A, A), and the product X u {A} under X | 1 << A
    level: dict[int, tuple[PLI, list[int] | None, set[int]]] = {
        1 << a: (singles[a], None, set(rhs_universe) - {a}) for a in lhs_universe
    }
    size = 1
    while level:
        # the candidates whose kept score does not decide the bound
        unsettled = {
            node: {a for a in rhs if not _decides(kept.get((node | 1 << a, a)), bound)}
            for node, (_, _, rhs) in level.items()
        }
        # no level splits the nodes at the cap, so their products would be
        # scored once and dropped: keep each as its base and the lacking
        # attribute's ids, and split the base while scoring instead
        at_cap = size + 1 == spec.max_lhs_len
        grows = spec.max_lhs_len is None or size < spec.max_lhs_len
        # the nodes one larger whose subsets are all nodes: the next level
        # is drawn from them, and so are the products built before scoring
        candidates = list(_next_nodes(level, lhs_universe)) if grows else []
        # below the cap, build first the products of the next level that
        # score a candidate of this one, so that X -> A is scored from the
        # pair counts of X and X u {A}
        products: dict[int, PLI] = {}
        if not at_cap:
            for node, subsets in candidates:
                if set.intersection(*(level[s][2] for s, _ in subsets)) and any(
                    a in unsettled[s] for s, a in subsets
                ):
                    products[node] = intersect(*_smallest(subsets, level, singles))

        # each scored node with a dependent past the bound, and those
        # dependents; and each (node, dependent) at error exactly 0
        live: dict[int, set[int]] = {}
        exact: set[tuple[int, int]] = set()
        for node, (pli, split, open_rhs) in level.items():
            unscored = []
            for a in sorted(unsettled[node]):
                product = products.get(node | 1 << a)
                if product is None:
                    unscored.append(a)
                else:
                    # the same integer `pair_errors` counts, so the same float
                    violating = pli.pairs - product.pairs
                    err = violating / denominator if denominator else 0.0
                    kept[node | 1 << a, a] = (err, True)
            if unscored:
                scores = pair_errors(pli, [ids[a] for a in unscored], n, bound, split)
                for a, score in zip(unscored, scores):
                    kept[node | 1 << a, a] = score
            lhs = tuple(sorted(names[i] for i in lhs_universe if node >> i & 1))
            for a in sorted(open_rhs):
                err = kept[node | 1 << a, a][0]
                if err <= bound:
                    if err == 0:
                        exact.add((node, a))
                    entries.append(FDEntry(lhs, names[a], err, origin=MINED))
                else:
                    live.setdefault(node, set()).add(a)

        if not grows:
            break
        next_level: dict[int, tuple[PLI, list[int] | None, set[int]]] = {}
        for node, subsets in candidates:
            # a dependent stays open at a node only while it is open and
            # past the bound at every subset one smaller (TANE's C+ sets):
            # a determinant emitted at a subset settles it, and a node
            # with nothing open, or with a subset not live, is not built
            if not all(s in live for s, _ in subsets):
                continue
            open_rhs = set.intersection(*(live[s] for s, _ in subsets))
            # nor is a node that holds an attribute its subset determines
            # at error exactly 0: it has that subset's partition, so its
            # candidates, and its supersets', are settled or fail
            if not open_rhs or any(pair in exact for pair in subsets):
                continue
            if at_cap:
                smallest, lacking = _smallest(subsets, level, singles)
                next_level[node] = (smallest, lacking.ids, open_rhs)
                continue
            product = products.get(node)
            if product is None:
                product = intersect(*_smallest(subsets, level, singles))
            # the same holds wherever a subset has the node's pair count,
            # whatever scored it: splitting a cluster of a + b rows removes
            # 2ab of its pairs, so equal counts mean equal partitions
            if all(product.pairs != level[s][0].pairs for s, _ in subsets):
                next_level[node] = (product, None, open_rhs)
        # drop the products that became no node before the next level
        products.clear()
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


def _decides(score: tuple[float, bool] | None, bound: float) -> bool:
    """Whether a kept (error, exact) score decides `bound`: an exact error
    decides every bound, and a lower bound one it is already past."""
    return score is not None and (score[1] or score[0] > bound)


def _next_nodes(level, lhs_universe: Sequence[int]):
    """Each node one larger whose subsets one smaller are all in `level`,
    with those subsets, each paired with the attribute it lacks, in
    ascending order of that attribute; in serial order: by the subset that
    lacks the node's largest attribute, then by that attribute."""
    for base in level:
        for last in lhs_universe:
            if base >> last:  # not above the base's largest attribute
                continue
            node = base | 1 << last
            subsets = [(node ^ 1 << a, a) for a in lhs_universe if node >> a & 1]
            if all(s in level for s, _ in subsets):
                yield node, subsets


def _smallest(subsets, level, singles) -> tuple[PLI, PLI]:
    """The partition of the subset that covers the fewest rows (the first
    of equals, in ascending order of the attribute it lacks), and that of
    the attribute it lacks: every subset gives the same product, at a cost
    linear in the rows it covers."""
    s, a = min(subsets, key=lambda pair: level[pair[0]][0].covered)
    return level[s][0], singles[a]


# --- the MINEFD statement --------------------------------------------------------

class MinefdStatement(Record):
    """Parsed `MINEFD <name> AS SELECT LHS -> RHS [, ERROR] [WHERE ...] FROM
    <table> [ERROR <bound>]`: the spec to mine, whose `max_lhs_len` is the
    tightest upper `LHS LENGTH` bound, and every `LHS LENGTH` atom, which
    each kept entry must satisfy."""

    name: str
    table: str
    spec: MiningSpec
    show_error: bool
    lengths: tuple[LhsLength, ...]


@statement_parser
def parse_minefd(text: str) -> MinefdStatement:
    """Parse a mining statement.

    A trailing `ERROR <bound>` after the table sets the mining threshold;
    `, ERROR` inside the SELECT list asks for the error column in the
    rendered output. WHERE takes SELECTDEP's LHS LIKE, RHS LIKE and LHS
    LENGTH atoms, joined by AND only (parentheses allowed); each LIKE side
    may appear once. A cap or bound out of range is a `ParameterError`,
    raised once the whole statement has parsed.
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
    lengths: list[LhsLength] = []
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
                lengths.append(node)

    ts.expect_kw("FROM")
    table = ts.expect_ident("a table name")
    threshold = 0.0
    if ts.accept_kw("ERROR"):
        threshold = ts.expect_bound()
    ts.expect_end()
    # the upper length bounds cap the lattice walk, < k at k - 1
    caps = [n.length - (n.op == "<") for n in lengths if n.op in {"<", "<=", "="}]
    spec = MiningSpec(lhs_filter, rhs_filter, min(caps, default=None), threshold)
    return MinefdStatement(name, table, spec, show_error, tuple(lengths))


def execute_minefd(
    statement: MinefdStatement,
    relation: Relation,
    *,
    workers: int = 1,
    mined_at: str = "",
) -> FDSet:
    """Mine the statement's spec and keep the entries that every one of its
    `LHS LENGTH` atoms admits."""
    mined = mine_fds(
        relation,
        statement.spec,
        name=statement.name,
        mined_at=mined_at,
        workers=workers,
    )
    kept = tuple(
        e for e in mined.entries
        if all(atom.admits(len(e.lhs)) for atom in statement.lengths)
    )
    return replace(mined, entries=kept)
