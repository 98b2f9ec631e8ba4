"""Stripped partitions and the dependency error measure.

A PLI (position list index) keeps, for an attribute set, only the value
clusters with two or more rows; singleton clusters carry no violation
evidence and are dropped. Clusters and the rows inside them stay sorted,
so every partition has one canonical form and downstream results are
reproducible run to run.

The error of a candidate X -> A is the fraction of ordered row pairs that
agree on X but disagree on A, out of all n*(n-1) ordered pairs. It is 0
exactly when the dependency holds. For n <= 1 the denominator degenerates
and the error is defined as 0. The miner, approximate HOLDS and DEPENDENT
all score through `pair_errors`, which never builds the X u {A} partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import add, mul
from typing import Iterable, Sequence

from .errors import ContractError
from .relation import Relation


@dataclass(frozen=True)
class PLI:
    """Clusters of >= 2 rows sharing a value tuple, over a known row count."""

    clusters: tuple[tuple[int, ...], ...]
    relation_size: int

    def __post_init__(self):
        seen: set[int] = set()
        for cluster in self.clusters:
            if len(cluster) < 2:
                raise ContractError("stripped partitions keep only clusters of >= 2")
            if list(cluster) != sorted(cluster):
                raise ContractError("cluster rows must be ascending")
            for row in cluster:
                if row in seen:
                    raise ContractError(f"row {row} appears in two clusters")
                seen.add(row)
        firsts = [c[0] for c in self.clusters]
        if firsts != sorted(firsts):
            raise ContractError("clusters must be ordered by smallest member")
        if len(seen) > self.relation_size:
            raise ContractError("partition covers more rows than the relation has")

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
    indices = range(len(rows)) if scope is None else sorted(scope)
    groups: dict[tuple, list[int]] = {}
    for i in indices:
        row = rows[i]
        groups.setdefault(tuple(row[a] for a in attrs), []).append(i)
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


def pair_errors(
    pli: PLI, id_columns: Iterable[Sequence[int]], scope_size: int
) -> list[float]:
    """Error of X -> A for each dependent A given by its value ids, X being
    the partition's attribute set over a scope of `scope_size` rows."""
    denominator = scope_size * scope_size - scope_size
    agree_lhs = pli.pair_count()
    n = pli.relation_size
    rows = list(chain.from_iterable(pli.clusters))
    # one int per clustered row encodes (cluster, dependent value id);
    # the c rows sharing one make c*c - c pairs agreeing on X and A
    tags = [cid * n for cid, cluster in enumerate(pli.clusters) for _ in cluster]
    errors = []
    for ids in id_columns:
        counts = Counter(map(add, tags, map(ids.__getitem__, rows))).values()
        agree_both = sum(map(mul, counts, counts)) - len(rows)
        errors.append((agree_lhs - agree_both) / denominator if denominator else 0.0)
    return errors


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
    relation: Relation, cand: FDCandidate, scope: Iterable[int] | None = None
) -> float:
    """Violating ordered pairs / all ordered pairs, within the scope."""
    if scope is None:
        indices: Sequence[int] = range(relation.row_count)
    else:
        indices = sorted(scope)
        if not indices:
            raise ContractError("error measure needs a non-empty scope")
    lhs_pli = pli_of(relation, sorted(cand.lhs), indices)
    rhs_ids = value_ids(pli_of(relation, [cand.rhs], indices))
    return pair_errors(lhs_pli, [rhs_ids], len(indices))[0]
