"""Stripped partitions and the dependency error measure.

A PLI (position list index) keeps, for an attribute set, only the value
clusters with two or more rows; singleton clusters carry no violation
evidence and are dropped. Clusters and the rows inside them stay sorted,
so every partition has one canonical form and downstream results are
reproducible run to run. One function groups rows: `pli_of` builds the
whole-table partition of one attribute. Every other partition is derived
from those: `intersect` splits a partition by one attribute's value ids,
and `partition_of` gives any attribute set over all rows or a scope.
They keep the canonical form; `PLI` itself does not re-check it, since
the miner builds one per product.

The error of a candidate X -> A is the fraction of ordered row pairs that
agree on X but disagree on A, out of all n*(n-1) ordered pairs. It is 0
exactly when the dependency holds. For n <= 1 the denominator degenerates
and the error is defined as 0. The violating pairs are `PLI.pairs` of X
minus that of X u {A}, so where the miner has built the X u {A}
partition anyway it scores from those two counts. Every other score
comes from `pair_errors`, which never builds the X u {A} partition.
Queries reach it through one scorer, `error_measure`, which scores any
number of dependents of one determinant over its `partition_of`:
approximate HOLDS asks for one, DEPENDENT for all it tries. The miner
calls `pair_errors` itself, since it keeps scores and, given the value
ids of one more attribute y as `split`, scores X u {y} from X's
partition, keying each row by its (cluster, y value), so the X u {y}
partition is not built either; it does so at the level of its size cap,
which no later level splits.

Each snapshot keeps, per attribute, its value ids once they are built
(`value_ids`): for each row the smallest row holding the same value, the
attribute's dictionary code. Ids are what every grouping reads: `pli_of`
groups the rows by them into the attribute's whole-table partition,
which carries them as its `ids` (`build_pli` keeps it), a witness
cluster is one whose rows hold more than one id of the dependent, and a
dependent is scored by counting its ids, so no partition of a dependent
is built. The partition of an attribute set, over all rows or an ON
scope, is derived from the kept singles (`partition_of`): the single
covering the fewest rows, cut to the scope, split by the others' value
ids. Only singles are kept, never products or scoped partitions, so a
snapshot holds at most one partition and one id list per attribute.

Every caller asks whether the error is within a bound, so `pair_errors`
counts violating pairs in stages of whole clusters, the first of at
least STAGE_ROWS rows and each later one about twice the one before,
and stops scoring a dependent once its running count is past the bound.
A cluster's violating pairs never go negative, nor do those of a
(cluster, y value) key under a split, so a partial count is a lower
bound: once `partial / denominator > bound`, the full error is past it
too (float division is monotone). A dependent within the bound
is counted to the end, and its stage sums add up to the exact count; so
is one that goes past it only at the last stage, and `pair_errors` says
with each error whether it was counted to the end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from math import inf
from operator import add, attrgetter, itemgetter, mul
from typing import Iterable, Iterator, Sequence

from .errors import ContractError
from .relation import Relation


@dataclass(frozen=True)
class PLI:
    """Clusters of >= 2 rows sharing a value tuple, over a known row count.

    Canonical form: each cluster ascending, clusters ordered by their
    smallest row, no row in two clusters, rows below `relation_size`.
    A single attribute's whole-table partition (`pli_of`) carries as `ids`
    the value ids it was built from, which `intersect` splits by; any
    other partition carries none. Equality and hashing ignore `ids`.
    """

    clusters: tuple[tuple[int, ...], ...]
    relation_size: int
    ids: list[int] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def covered(self) -> int:
        return sum(map(len, self.clusters))

    @cached_property
    def pairs(self) -> int:
        """Ordered pairs of distinct rows in one cluster: c*c - c summed
        over clusters of c rows. X -> A has pairs(X) - pairs(X u {A})
        violating pairs, the count `pair_errors` takes."""
        return sum(len(c) * len(c) for c in self.clusters) - self.covered


def _bit(relation: Relation, attribute: int) -> int:
    """The attribute's bit, which starts its keys in `Relation.derived`."""
    if not 0 <= attribute < len(relation.schema):
        raise ContractError(f"attribute index {attribute} out of range")
    return 1 << attribute


def value_ids(relation: Relation, attribute: int) -> list[int]:
    """Per row, the smallest row holding the same value of `attribute`:
    equal to the `ids` of the attribute's whole-table partition.

    Kept on the snapshot, in `Relation.derived` under the attribute's bit
    and "value_ids", and passed on by `Relation.with_rows` as `build_pli`'s
    partitions are; callers share the list, so they only read it. The ids
    are the snapshot's row numbers, so a row costs a pointer, not an int.
    """
    key = (_bit(relation, attribute), "value_ids")
    kept = relation.derived
    ids = kept.get(key)
    if ids is None:
        # one C-level pass: setdefault gives the row that first held the value
        first: dict = {}
        column = map(itemgetter(attribute), relation.rows)
        ids = kept[key] = list(map(first.setdefault, column, relation.row_numbers))
    return ids


def pli_of(relation: Relation, attribute: int) -> PLI:
    """Stripped partition of one attribute over all rows, grouped by its
    value ids, which the partition carries as `ids`.

    The one function that groups rows: every other partition is derived
    from these. Ascending row iteration makes each cluster ascending and
    puts clusters in order of their smallest member without an extra sort.
    """
    ids = value_ids(relation, attribute)
    groups: dict[int, list[int]] = {}
    for row, first in zip(relation.row_numbers, ids):
        groups.setdefault(first, []).append(row)
    clusters = tuple(tuple(g) for g in groups.values() if len(g) >= 2)
    return PLI(clusters, relation.row_count, ids)


def build_pli(relation: Relation, attribute: int) -> PLI:
    """Stripped partition of one attribute over the whole relation.

    Kept on the snapshot, in `Relation.derived` under the attribute's bit
    and `PLI`: the first request builds it with `pli_of`, from the
    attribute's value ids, later ones read it, and `Relation.with_rows`
    passes it on to a child whose edit left the attribute equal on every
    changed row.
    """
    key = (_bit(relation, attribute), PLI)
    kept = relation.derived
    pli = kept.get(key)
    if pli is None:
        pli = kept[key] = pli_of(relation, attribute)
    return pli


def partition_of(
    relation: Relation, attrs: Sequence[int], scope: Iterable[int] | None = None
) -> PLI:
    """Stripped partition of `attrs` over the scope (default: all rows),
    from the snapshot's kept single-attribute partitions: the one covering
    the fewest rows, cut to the scope, then split by each other one in
    turn. With no attributes, every scope row agrees: one cluster of them
    all, or none below 2 rows. The result itself is not kept."""
    if not attrs:
        rows = relation.row_numbers if scope is None else tuple(sorted(scope))
        return PLI((rows,) if len(rows) >= 2 else (), relation.row_count)
    singles = sorted(
        {a: build_pli(relation, a) for a in attrs}.values(), key=attrgetter("covered")
    )
    pli = singles[0] if scope is None else _restrict(singles[0], scope)
    for other in singles[1:]:
        pli = intersect(pli, other)
    return pli


def _restrict(pli: PLI, scope: Iterable[int]) -> PLI:
    """The partition over the scope rows only: each cluster cut to them."""
    inside = set(scope)
    parts = (tuple(filter(inside.__contains__, c)) for c in pli.clusters)
    # a cut can drop a cluster's smallest row and move it past the next one
    clusters = sorted((c for c in parts if len(c) >= 2), key=itemgetter(0))
    return PLI(tuple(clusters), pli.relation_size)


def intersect(a: PLI, b: PLI) -> PLI:
    """Partition product: each cluster of `a` split by the value ids of
    `b`, a single attribute's partition from `pli_of`.

    Runs in time linear in the covered rows of `a`. A cluster whose rows
    share one id, or all differ, is kept or dropped whole after counting
    its ids, without bucketing.
    """
    if a.relation_size != b.relation_size:
        raise ContractError("cannot intersect partitions of different relations")
    ids = b.ids
    if ids is None:
        raise ContractError("intersect splits by a single attribute's partition")
    id_of = ids.__getitem__
    out: list[tuple[int, ...]] = []
    for cluster in a.clusters:
        distinct = len(set(map(id_of, cluster)))
        if distinct == 1:
            out.append(cluster)
        elif distinct < len(cluster):
            buckets: dict[int, list[int]] = {}
            for row in cluster:
                buckets.setdefault(ids[row], []).append(row)
            out.extend(tuple(g) for g in buckets.values() if len(g) >= 2)
    # a later cluster of `a` can split off a part that starts before an
    # earlier cluster's part
    out.sort(key=itemgetter(0))
    return PLI(tuple(out), a.relation_size)


STAGE_ROWS = 64


def _stages(
    clusters: Sequence[tuple[int, ...]], n: int
) -> Iterator[tuple[list[int], list[int], int]]:
    """Runs of whole clusters, the first of at least STAGE_ROWS rows and
    each later one of at least twice the rows of the one before, as
    (rows, tags, sum of squared cluster sizes). A tag is the row's cluster
    number times n, so adding a value id in [0, n) keys (cluster, value)."""
    start, target = 0, STAGE_ROWS
    while start < len(clusters):
        end, size = start, 0
        while end < len(clusters) and size < target:
            size += len(clusters[end])
            end += 1
        run = clusters[start:end]
        rows = list(chain.from_iterable(run))
        tags = list(
            chain.from_iterable(repeat(cid * n, len(c)) for cid, c in enumerate(run))
        )
        yield rows, tags, sum(len(c) * len(c) for c in run)
        start, target = end, 2 * size


def pair_errors(
    pli: PLI,
    id_columns: Iterable[Sequence[int]],
    scope_size: int,
    bound: float = inf,
    split: Sequence[int] | None = None,
) -> list[tuple[float, bool]]:
    """(error, exact) of X -> A for each dependent A given by its value ids,
    X being the partition's attribute set over a scope of `scope_size` rows.

    With `split`, the per-row value ids of one more attribute y, X is the
    partition's set plus y: each cluster is split by y's ids while it is
    scored, so the product partition is never built.

    An error within `bound` is exact. Past it, scoring may stop early and
    return some value still past the bound, with `exact` false; a dependent
    counted to the end is exact either way. The default never stops.
    """
    columns = list(id_columns)
    denominator = scope_size * scope_size - scope_size
    if not denominator:
        return [(0.0, True)] * len(columns)
    violating = [0] * len(columns)
    exact = [True] * len(columns)
    open_columns = list(enumerate(columns))
    n = pli.relation_size
    unread = pli.covered
    for rows, tags, square_sum in _stages(pli.clusters, n):
        unread -= len(rows)
        if split is not None:
            # a (cluster, y value) key per row: the rows of one key agree on
            # X and y, and the dependents' tags become key * n
            keys = list(map(add, tags, map(split.__getitem__, rows)))
            sizes = Counter(keys).values()
            square_sum = sum(map(mul, sizes, sizes))
            tags = list(map(n.__mul__, keys))
        still_open = []
        for j, ids in open_columns:
            # the c rows of one (cluster, value) agree on X and A in c*c - c
            # pairs; a cluster (or key) of s rows agrees on X in s*s - s
            counts = Counter(map(add, tags, map(ids.__getitem__, rows))).values()
            violating[j] += square_sum - sum(map(mul, counts, counts))
            if violating[j] / denominator <= bound:
                still_open.append((j, ids))
            elif unread:
                exact[j] = False  # dropped with rows left to count
        open_columns = still_open
        if not open_columns:
            break
    return [(v / denominator, e) for v, e in zip(violating, exact)]


def violating_rows(
    relation: Relation,
    lhs: Sequence[int],
    rhs: int,
    scope: Iterable[int] | None = None,
) -> set[int]:
    """Rows inside lhs-clusters that disagree on rhs (the witnesses): the
    clusters whose rows hold more than one of rhs's value ids, so no
    partition of rhs is built."""
    rhs_ids = value_ids(relation, rhs)
    bad: set[int] = set()
    for cluster in partition_of(relation, lhs, scope).clusters:
        if len(set(map(rhs_ids.__getitem__, cluster))) > 1:
            bad.update(cluster)
    return bad


def error_measure(
    relation: Relation,
    lhs: Sequence[int],
    dependents: Sequence[int],
    scope: Iterable[int] | None = None,
    bound: float = inf,
) -> list[float]:
    """Error of lhs -> A for each dependent A, as violating ordered pairs /
    all ordered pairs within the scope: one partition of lhs, one
    `pair_errors` call over the dependents' value ids. Exact when within
    `bound`, otherwise some value past it; a dependent inside lhs agrees on
    every cluster and scores 0.0."""
    if scope is not None:
        scope = set(scope)
        if not scope:
            raise ContractError("error measure needs a non-empty scope")
    size = relation.row_count if scope is None else len(scope)
    pli = partition_of(relation, lhs, scope)
    # value ids over the whole table tell the scope's values apart as well
    ids = [value_ids(relation, a) for a in dependents]
    return [error for error, _ in pair_errors(pli, ids, size, bound)]
