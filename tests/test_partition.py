import itertools

import pytest
from canonical import assert_canonical, reference_partition

from fdq.errors import ContractError
from fdq.partition import (
    PLI,
    STAGE_ROWS,
    error_measure,
    pair_errors,
    violating_rows,
)
from fdq.partition import build_pli as _build_pli
from fdq.partition import intersect as _intersect
from fdq.relation import Relation, load_csv


def idx(relation, name):
    return relation.attribute(name).index


# every partition these tests build is also checked for canonical form
def build_pli(relation, attribute):
    return assert_canonical(_build_pli(relation, attribute))


def intersect(a, b):
    return assert_canonical(_intersect(a, b))


def pairwise_error(relation, lhs, rhs, scope=None):
    """Direct ordered-pair count, used as an independent check."""
    rows = relation.rows
    indices = sorted(scope) if scope is not None else range(len(rows))
    n = len(indices)
    if n <= 1:
        return 0.0
    bad = 0
    for i, j in itertools.permutations(indices, 2):
        if all(rows[i][a] == rows[j][a] for a in lhs) and rows[i][rhs] != rows[j][rhs]:
            bad += 1
    return bad / (n * n - n)


class TestBuildPli:
    def test_category_clusters(self, iowa):
        pli = build_pli(iowa, idx(iowa, "Category"))
        assert pli.clusters == ((0, 2, 9), (4, 7), (5, 6))

    def test_key_attribute_strips_to_empty(self, iowa):
        assert build_pli(iowa, idx(iowa, "Sale")).clusters == ()

    def test_empty_relation(self):
        rel = load_csv(b"A\n")
        assert build_pli(rel, 0).clusters == ()

    def test_nulls_group_together(self):
        rel = load_csv(b"A,B\n,1\n,2\nx,3\n")
        assert build_pli(rel, 0).clusters == ((0, 1),)

    def test_out_of_range_attribute(self, iowa):
        with pytest.raises(ContractError):
            build_pli(iowa, 11)

    def test_ids_share_the_snapshots_row_numbers(self):
        # past 256 the interpreter makes a new int each time, so a row
        # outside every cluster must cost the ids a pointer, not an int
        rel = load_csv(b"A\n0\n" + b"".join(b"%d\n" % i for i in range(600)))
        ids = build_pli(rel, 0).ids
        assert ids == [0, 0, *range(2, 601)]
        numbers = rel.row_numbers
        assert all(ids[i] is numbers[i] for i in range(2, 601))

    def test_invariants_enforced(self):
        with pytest.raises(AssertionError, match="fewer than 2"):
            assert_canonical(PLI(((3,),), 5))
        with pytest.raises(AssertionError, match="not ascending"):
            assert_canonical(PLI(((2, 1),), 5))
        with pytest.raises(AssertionError, match="two clusters"):
            assert_canonical(PLI(((0, 1), (1, 2)), 5))
        with pytest.raises(AssertionError, match="not ordered"):
            assert_canonical(PLI(((2, 3), (0, 1)), 5))


class TestIntersect:
    def test_category_with_btlvol(self, iowa):
        a = build_pli(iowa, idx(iowa, "Category"))
        b = build_pli(iowa, idx(iowa, "BtlVol"))
        assert intersect(a, b).clusters == ((2, 9), (4, 7), (5, 6))
        assert intersect(a, b) == reference_partition(
            iowa, [idx(iowa, "Category"), idx(iowa, "BtlVol")]
        )

    def test_commutes(self, iowa):
        names = iowa.attribute_names
        for x, y in itertools.combinations(range(len(names)), 2):
            a, b = build_pli(iowa, x), build_pli(iowa, y)
            assert intersect(a, b) == intersect(b, a)

    def test_idempotent(self, iowa):
        a = build_pli(iowa, idx(iowa, "Category"))
        assert intersect(a, a) == a

    def test_disjoint_inputs_give_empty(self):
        rel = load_csv(b"A,B\n1,5\n1,6\n2,5\n2,6\n")
        a = build_pli(rel, 0)
        b = build_pli(rel, 1)
        assert intersect(a, b).clusters == ()

    def test_splits_only_by_a_single(self, iowa):
        a = build_pli(iowa, idx(iowa, "Category"))
        with pytest.raises(ContractError):
            intersect(a, intersect(a, a))  # a product carries no value ids

    def test_size_mismatch_rejected(self):
        with pytest.raises(ContractError):
            intersect(PLI((), 3), PLI((), 4))


class TestFdHolds:
    # X -> A holds exactly when it has no witness rows
    def test_zip_determines_pack(self, iowa):
        assert not violating_rows(iowa, [idx(iowa, "Zip")], idx(iowa, "Pack"))

    def test_address_does_not_determine_zip(self, iowa):
        assert violating_rows(iowa, [idx(iowa, "Address")], idx(iowa, "Zip"))

    def test_shrinking_cluster_is_not_enough(self):
        # two clusters merge rows yet one still disagrees on B; cardinality
        # equality of the stripped partitions would wrongly say "holds"
        rel = Relation.build(
            "t",
            [("A", "integer"), ("B", "integer")],
            [[1, 1], [1, 1], [1, 2], [2, 3], [3, 3]],
        )
        assert violating_rows(rel, [0], 1)
        assert error_measure(rel, [0], [1])[0] > 0

    def test_trivial_dependency_has_no_witnesses_and_scores_zero(self):
        rel = Relation.build(
            "t",
            [("A", "integer"), ("B", "integer"), ("C", "integer")],
            [[1, 1, 1], [1, 2, 1], [2, 1, 2], [1, 1, 3]],
        )
        assert not violating_rows(rel, [1, 2], 1)
        assert error_measure(rel, [1, 2], [1]) == [0.0]

    def test_scoped_check(self, iowa):
        lhs, rhs = [idx(iowa, "Address")], idx(iowa, "Zip")
        assert violating_rows(iowa, lhs, rhs, scope={1, 2, 5, 7})
        assert not violating_rows(iowa, lhs, rhs, scope={0, 1, 2})


class TestErrorMeasure:
    def test_category_to_categoryname(self, iowa):
        lhs, rhs = [idx(iowa, "Category")], idx(iowa, "CategoryName")
        assert error_measure(iowa, lhs, [rhs]) == [4 / 90]

    def test_address_to_zip(self, iowa):
        assert error_measure(iowa, [idx(iowa, "Address")], [idx(iowa, "Zip")]) == [
            2 / 90
        ]

    def test_holding_fd_has_zero_error(self, iowa):
        assert error_measure(iowa, [idx(iowa, "Zip")], [idx(iowa, "Pack")]) == [0.0]

    def test_agrees_with_pairwise_count(self, iowa):
        names = iowa.attribute_names
        for lhs_name, rhs_name in itertools.permutations(names, 2):
            lhs, rhs = [idx(iowa, lhs_name)], idx(iowa, rhs_name)
            assert error_measure(iowa, lhs, [rhs]) == [pairwise_error(iowa, lhs, rhs)]

    def test_singleton_scope_is_zero(self, iowa):
        lhs, rhs = [idx(iowa, "Address")], idx(iowa, "Zip")
        assert error_measure(iowa, lhs, [rhs], scope={3}) == [0.0]

    def test_empty_scope_rejected(self, iowa):
        lhs, rhs = [idx(iowa, "Address")], idx(iowa, "Zip")
        with pytest.raises(ContractError):
            error_measure(iowa, lhs, [rhs], scope=set())

    def test_empty_relation_is_zero(self):
        rel = load_csv(b"A,B\n")
        assert error_measure(rel, [0], [1]) == [0.0]

    def test_larger_lhs_never_increases_error(self, iowa):
        rhs, address = idx(iowa, "Zip"), idx(iowa, "Address")
        (base,) = error_measure(iowa, [address], [rhs])
        for extra in range(len(iowa.schema)):
            if extra == rhs or extra == address:
                continue
            (grown,) = error_measure(iowa, [address, extra], [rhs])
            assert grown <= base


class CountingIds(list):
    """Value ids that count the rows the kernel reads."""

    reads = 0

    def __getitem__(self, row):
        self.reads += 1
        return super().__getitem__(row)


class TestPairErrors:
    # X = row // 4 makes 100 clusters of 4 rows: stages of 64, 128 and 208;
    # X -> A holds, B breaks in rows 0, 100, 200 and 300, C only in row 100,
    # D only in row 300
    ROWS = [
        [
            i // 4,
            i // 4,
            i // 4 if i % 100 else -1,
            -1 if i == 100 else i // 4,
            -1 if i == 300 else i // 4,
        ]
        for i in range(400)
    ]

    def scored(self, column, bound):
        rel = Relation.build("t", [(n, "integer") for n in "XABCD"], self.ROWS)
        pli = build_pli(rel, 0)
        ids = CountingIds(build_pli(rel, column).ids)
        ((error, exact),) = pair_errors(pli, [ids], 400, bound)
        return pli, error, exact, ids.reads

    def test_broken_dependent_reads_only_the_first_stage(self):
        pli, error, exact, reads = self.scored(2, 0.0)
        assert error > 0.0 and not exact
        assert reads == STAGE_ROWS == 64

    def test_stages_double(self):
        pli, error, exact, reads = self.scored(3, 0.0)
        assert error > 0.0 and not exact
        assert reads == 64 + 128

    def test_dependent_broken_in_the_last_stage_is_counted_exactly(self):
        pli, error, exact, reads = self.scored(4, 0.0)
        assert error == 6 / (400 * 399) and exact
        assert reads == pli.covered

    def test_holding_dependent_reads_every_clustered_row(self):
        pli, error, exact, reads = self.scored(1, 0.0)
        assert error == 0.0 and exact
        assert reads == pli.covered == 400

    def test_default_bound_counts_every_row_exactly(self):
        # rows 0, 100, 200 and 300 each split a cluster of 4: 3 * 2 pairs
        pli, error, exact, reads = self.scored(2, float("inf"))
        assert error == 4 * 6 / (400 * 399) and exact
        assert reads == pli.covered
