"""The canonical form of a stripped partition, checked where tests make one.

`PLI` does not re-check its own invariants, because the miner builds one
per partition product; the partition tests and the property suite pass
every partition they build through `assert_canonical` instead.
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
