"""The canonical form of a stripped partition, and a reference partition to
compare the package's against.

`PLI` does not re-check its own invariants, because the miner builds one
per partition product; the partition tests and the property suite pass
every partition they build through `assert_canonical` instead. The
package groups rows in one place, `pli_of`, by value ids; the tests group
them here with a plain value tuple per row instead, so that
`reference_partition` is the partition any attribute set over any scope
must have, whatever the package derived it from.
"""

from fdq.partition import PLI


def assert_canonical(pli: PLI) -> PLI:
    """Fail unless every cluster has >= 2 ascending rows, clusters are
    ordered by their smallest row, no row is in two clusters and no row is
    past the relation; return the partition for use in expressions."""
    seen: set[int] = set()
    for cluster in pli.clusters:
        assert len(cluster) >= 2, f"cluster {cluster} has fewer than 2 rows"
        assert list(cluster) == sorted(cluster), f"cluster {cluster} not ascending"
        for row in cluster:
            assert row not in seen, f"row {row} appears in two clusters"
            assert 0 <= row < pli.relation_size, f"row {row} outside the relation"
            seen.add(row)
    firsts = [c[0] for c in pli.clusters]
    assert firsts == sorted(firsts), "clusters not ordered by smallest member"
    return pli


def generator_grouped(relation, attrs, scope=None):
    """Scope rows (default: all) by their value tuple on `attrs`, one
    generator tuple per row: ascending within each group, groups in order
    of their smallest row."""
    rows = relation.rows
    indices = range(len(rows)) if scope is None else sorted(scope)
    groups = {}
    for i in indices:
        groups.setdefault(tuple(rows[i][a] for a in attrs), []).append(i)
    return groups


def reference_partition(relation, attrs, scope=None) -> PLI:
    """The stripped partition of `attrs` over the scope (default: all
    rows), from `generator_grouped`; it carries no value ids."""
    groups = generator_grouped(relation, attrs, scope).values()
    clusters = tuple(tuple(g) for g in groups if len(g) >= 2)
    return assert_canonical(PLI(clusters, relation.row_count))
