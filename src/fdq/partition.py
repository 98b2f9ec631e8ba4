"""Stripped partitions and the dependency error measure.

A PLI (position list index) keeps, for an attribute set, only the value
clusters with two or more rows; singleton clusters carry no violation
evidence and are dropped. Clusters and the rows inside them stay sorted,
so every partition has one canonical form and downstream results are
reproducible run to run. The constructors below keep that form; `PLI`
itself does not re-check it, since the miner builds one per product.

The error of a candidate X -> A is the fraction of ordered row pairs that
agree on X but disagree on A, out of all n*(n-1) ordered pairs. It is 0
exactly when the dependency holds. For n <= 1 the denominator degenerates
and the error is defined as 0. The miner, approximate HOLDS and DEPENDENT
all score through `pair_errors`, which never builds the X u {A} partition.

Every caller asks whether the error is within a bound, so `pair_errors`
counts violating pairs in stages of whole clusters, the first of at
least STAGE_ROWS rows and each later one about twice the one before,
and stops scoring a dependent once its running count is past the bound.
A cluster's violating pairs never go negative, so a partial count is a
lower bound: once `partial / denominator > bound`, the full error is
past it too (float division is monotone). A dependent within the bound
is counted to the end, and its stage sums add up to the exact count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from math import inf
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Sequence

from .errors import ContractError
from .relation import Relation


@dataclass(frozen=True)
class PLI:
    """Clusters of >= 2 rows sharing a value tuple, over a known row count.

    Canonical form: each cluster ascending, clusters ordered by their
    smallest row, no row in two clusters, rows below `relation_size`.
    """

    clusters: tuple[tuple[int, ...], ...]
    relation_size: int

    @property
    def covered(self) -> int:
        return sum(len(c) for c in self.clusters)

    def pair_count(self) -> int:
        """Ordered row pairs agreeing on the underlying attribute set."""
        return sum(len(c) * (len(c) - 1) for c in self.clusters)


@dataclass(frozen=True)
class FDCandidate:
    """Non-trivial dependency candidate over attribute indexes."""

    lhs: frozenset[int]
    rhs: int

    def __post_init__(self):
        if self.rhs in self.lhs:
            raise ContractError("trivial candidate: rhs inside lhs always holds")


def grouped(
    relation: Relation, attrs: Sequence[int], scope: Iterable[int] | None = None
) -> dict[tuple, list[int]]:
    """Scope rows (default: all) by their value tuple on `attrs`, ascending
    within each group, groups in order of their smallest row."""
    rows = relation.rows
    if scope is None:
        indices: Sequence[int] = range(len(rows))
        picked = rows
    else:
        indices = sorted(scope)
        picked = map(rows.__getitem__, indices)
    if len(attrs) == 1:
        # itemgetter of one index returns the bare value; keys stay 1-tuples
        keys = zip(map(itemgetter(attrs[0]), picked))
    elif attrs:
        keys = map(itemgetter(*attrs), picked)
    else:
        keys = repeat((), len(indices))
    groups: dict[tuple, list[int]] = {}
    for key, i in zip(keys, indices):
        groups.setdefault(key, []).append(i)
    return groups


def pli_of(
    relation: Relation, attrs: Sequence[int], scope: Iterable[int] | None = None
) -> PLI:
    """Stripped partition of `attrs` over the scope (default: all rows).

    Ascending row iteration makes each cluster ascending and puts clusters
    in order of their smallest member without an extra sort.
    """
    groups = grouped(relation, attrs, scope)
    clusters = tuple(tuple(g) for g in groups.values() if len(g) >= 2)
    return PLI(clusters, relation.row_count)


def build_pli(relation: Relation, attribute: int) -> PLI:
    """Stripped partition of one attribute over the whole relation."""
    if not 0 <= attribute < len(relation.schema):
        raise ContractError(f"attribute index {attribute} out of range")
    return pli_of(relation, [attribute])


def intersect(a: PLI, b: PLI) -> PLI:
    """Partition product via a probe table: rows clustered in both inputs.

    Runs in time linear in the covered rows of the two inputs.
    """
    if a.relation_size != b.relation_size:
        raise ContractError("cannot intersect partitions of different relations")
    probe: dict[int, int] = {}
    for cid, cluster in enumerate(a.clusters):
        for row in cluster:
            probe[row] = cid
    out: list[tuple[int, ...]] = []
    for cluster in b.clusters:
        buckets: dict[int, list[int]] = {}
        for row in cluster:
            cid = probe.get(row)
            if cid is not None:
                buckets.setdefault(cid, []).append(row)
        out.extend(tuple(g) for g in buckets.values() if len(g) >= 2)
    out.sort(key=lambda c: c[0])
    return PLI(tuple(out), a.relation_size)


def value_ids(pli: PLI) -> list[int]:
    """Per-row value id in [0, n) from a single-attribute partition: the
    smallest row holding the same value."""
    ids = list(range(pli.relation_size))
    for cluster in pli.clusters:
        first = cluster[0]
        for row in cluster:
            ids[row] = first
    return ids


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
) -> list[float]:
    """Error of X -> A for each dependent A given by its value ids, X being
    the partition's attribute set over a scope of `scope_size` rows.

    An error within `bound` is exact. Past it, scoring may stop early and
    return some value still past the bound; the default never stops.
    """
    columns = list(id_columns)
    denominator = scope_size * scope_size - scope_size
    if not denominator:
        return [0.0] * len(columns)
    violating = [0] * len(columns)
    open_columns = list(enumerate(columns))
    for rows, tags, square_sum in _stages(pli.clusters, pli.relation_size):
        still_open = []
        for j, ids in open_columns:
            # the c rows of one (cluster, value) agree on X and A in c*c - c
            # pairs; a cluster of s rows agrees on X in s*s - s
            counts = Counter(map(add, tags, map(ids.__getitem__, rows))).values()
            violating[j] += square_sum - sum(map(mul, counts, counts))
            if violating[j] / denominator <= bound:
                still_open.append((j, ids))
        open_columns = still_open
        if not open_columns:
            break
    return [v / denominator for v in violating]


def violating_rows(
    relation: Relation,
    lhs: Sequence[int],
    rhs: int,
    scope: Iterable[int] | None = None,
) -> set[int]:
    """Rows inside lhs-clusters that disagree on rhs (the witnesses)."""
    rows = relation.rows
    bad: set[int] = set()
    for group in grouped(relation, lhs, scope).values():
        if len(group) < 2:
            continue
        values = {rows[i][rhs] for i in group}
        if len(values) > 1:
            bad.update(group)
    return bad


def fd_holds(
    relation: Relation, cand: FDCandidate, scope: Iterable[int] | None = None
) -> bool:
    """True iff no row pair in scope agrees on lhs while disagreeing on rhs.

    Decided on the full partition: every lhs cluster must be single-valued
    on rhs. Cardinality shortcuts over stripped partitions misjudge
    clusters that merely shrink, so none are used.
    """
    return not violating_rows(relation, sorted(cand.lhs), cand.rhs, scope)


def error_measure(
    relation: Relation,
    cand: FDCandidate,
    scope: Iterable[int] | None = None,
    bound: float = inf,
) -> float:
    """Violating ordered pairs / all ordered pairs, within the scope; exact
    when within `bound`, otherwise some value past it (see `pair_errors`)."""
    if scope is None:
        indices: Sequence[int] = range(relation.row_count)
    else:
        indices = sorted(scope)
        if not indices:
            raise ContractError("error measure needs a non-empty scope")
    lhs_pli = pli_of(relation, sorted(cand.lhs), indices)
    rhs_ids = value_ids(pli_of(relation, [cand.rhs], indices))
    return pair_errors(lhs_pli, [rhs_ids], len(indices), bound)[0]
