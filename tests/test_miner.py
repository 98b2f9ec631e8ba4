import logging
import random
from collections import Counter

import pytest
from oracle import brute_force_mine
from work import MiningWork, value_id_builds

import fdq.miner
from fdq.cfd import CFD, PatternTableau, cfd_confidence, cfd_support
from fdq.errors import ContractError, NameResolutionError, ParameterError, ParseError
from fdq.fdstore import FDEntry, LhsLength
from fdq.miner import MiningSpec, execute_minefd, mine_fds, parse_minefd
from fdq.partition import build_pli, value_ids
from fdq.relation import Relation, load_csv
from fdq.setexpr import GlobList


def keys(fdset):
    return {(e.lhs, e.rhs) for e in fdset.entries}


def scores(relation):
    """The kept (error, exact) of each X -> A on the snapshot, under
    (bitmask of X u {A}, A); kept partitions sit under (bit, PLI), value
    ids under (bit, "value_ids")."""
    return {
        key: score for key, score in relation.derived.items()
        if isinstance(key[1], int)
    }


class TestMineFds:
    def test_matches_brute_force_on_fixture(self, iowa):
        fast = mine_fds(iowa)
        slow = brute_force_mine(iowa)
        assert [e.key for e in fast.entries] == [e.key for e in slow.entries]
        assert [e.error for e in fast.entries] == [e.error for e in slow.entries]

    def test_minimal_cover_members(self, iowa):
        mined = keys(mine_fds(iowa))
        assert (("Zip",), "Pack") in mined
        assert (("Address", "Category"), "Date") in mined
        assert (("Address", "Category"), "Sale") in mined
        assert (("Address", "CategoryName"), "Date") in mined
        assert (("Address", "Zip"), "Sale") in mined
        # rows 5 and 8 of the fixture agree on (BtlVol, Category, Vendor) but
        # differ in BtlSold and VolSold, so no exact dependency exists there
        assert (("BtlVol", "Category", "Vendor"), "BtlSold") not in mined
        assert (("BtlVol", "Category", "Vendor"), "VolSold") not in mined

    def test_no_redundant_superset_determinants(self, iowa):
        mined = mine_fds(iowa)
        by_rhs = {}
        for e in mined.entries:
            by_rhs.setdefault(e.rhs, []).append(set(e.lhs))
        for sets in by_rhs.values():
            for i, a in enumerate(sets):
                for j, b in enumerate(sets):
                    assert i == j or not a < b

    def test_emission_order_is_canonical(self, iowa):
        entries = mine_fds(iowa).entries
        key = [(len(e.lhs), e.lhs, e.rhs) for e in entries]
        assert key == sorted(key)

    def test_threshold_widens_result(self, iowa):
        exact = keys(mine_fds(iowa))
        loose = keys(mine_fds(iowa, MiningSpec(error_threshold=0.05)))
        assert (("Category",), "CategoryName") in loose
        # a looser bound can promote smaller determinants, so the mined
        # keys are not a superset; but everything exact stays derivable
        loose_with_error = mine_fds(iowa, MiningSpec(error_threshold=0.05))
        for lhs, rhs in exact:
            assert any(
                set(e.lhs) <= set(lhs) and e.rhs == rhs
                for e in loose_with_error.entries
            )

    def test_max_lhs_len(self, iowa):
        bounded = mine_fds(iowa, MiningSpec(max_lhs_len=1))
        assert all(len(e.lhs) == 1 for e in bounded.entries)
        full = mine_fds(iowa)
        assert keys(bounded) == {k for k in keys(full) if len(k[0]) == 1}

    def test_lhs_filter_restricts_universe(self, iowa):
        spec = MiningSpec(lhs_filter=GlobList(("Address", "Zip", "Category")))
        mined = mine_fds(iowa, spec)
        assert mined.entries
        for e in mined.entries:
            assert set(e.lhs) <= {"Address", "Zip", "Category"}
        # dependents outside the universe still appear
        assert any(e.rhs == "Pack" for e in mined.entries)

    def test_rhs_filter(self, iowa):
        spec = MiningSpec(rhs_filter=GlobList(("Pack",)))
        mined = mine_fds(iowa, spec)
        assert mined.entries
        assert all(e.rhs == "Pack" for e in mined.entries)

    def test_zero_match_filter_warns_and_returns_empty(self, iowa, caplog):
        spec = MiningSpec(lhs_filter=GlobList(("Q*",)))
        with caplog.at_level(logging.WARNING, logger="fdq.miner"):
            mined = mine_fds(iowa, spec)
        assert mined.entries == ()
        assert any("matched no attributes" in r.message for r in caplog.records)

    def test_unknown_literal_in_filter_is_an_error(self, iowa):
        with pytest.raises(NameResolutionError):
            mine_fds(iowa, MiningSpec(lhs_filter=GlobList(("Addres",))))

    def test_single_attribute_relation(self):
        rel = load_csv(b"A\n1\n1\n2\n")
        assert mine_fds(rel).entries == ()

    def test_empty_relation_everything_holds_vacuously(self):
        rel = load_csv(b"A,B,C\n")
        mined = mine_fds(rel)
        assert keys(mined) == {
            (("A",), "B"), (("A",), "C"),
            (("B",), "A"), (("B",), "C"),
            (("C",), "A"), (("C",), "B"),
        }
        assert all(e.error == 0.0 for e in mined.entries)

    def test_worker_counts_agree(self, iowa):
        one = mine_fds(iowa, workers=1)
        two = mine_fds(iowa, workers=2)
        eight = mine_fds(iowa, workers=8)
        assert one.entries == two.entries == eight.entries

    @pytest.mark.parametrize(
        "spec, products, split_rows, rows, nodes",
        [
            # the walk builds the next level's products that score a
            # candidate before it scores the level, and scores those
            # candidates from pair counts: scoring every candidate with
            # pair_errors builds 38 products over 178 rows and reads 1 432
            # rows in all, and 19 over 124 and 1 223 at 0.05
            (MiningSpec(), 100, 230, 598, {1: 11, 2: 32, 3: 6}),
            (MiningSpec(max_lhs_len=1), 0, 0, 600, {1: 11}),
            # the cap level is scored from its bases, with no products
            (MiningSpec(max_lhs_len=2), 0, 0, 1788, {1: 11, 2: 32}),
            (MiningSpec(error_threshold=0.05), 74, 228, 581, {1: 11, 2: 17, 3: 2}),
        ],
        ids=["exact", "cap-1", "cap-2", "bound-0.05"],
    )
    def test_partition_products_are_pinned(
        self, iowa, monkeypatch, spec, products, split_rows, rows, nodes
    ):
        # deterministic work counters: losing a pruning rule raises the
        # product count, splitting a larger subset than needed raises the
        # rows covered by the left inputs (357 and 351 when each node
        # split its prefix), and scoring from pair counts less often raises
        # the rows read in all, so each fails here, not on a stopwatch;
        # a fresh snapshot, since the shared fixture keeps what others built
        iowa = Relation(iowa.name, iowa.schema, iowa.rows)
        work = MiningWork(monkeypatch)
        mined = mine_fds(iowa, spec)
        assert work.products == products
        assert work.product_rows == split_rows
        assert work.rows == rows
        assert mined.entries == brute_force_mine(iowa, spec).entries
        # the nodes scored per size, read from the kept scores' keys
        scored = {mask & ~(1 << a) for mask, a in scores(iowa)}
        assert Counter(node.bit_count() for node in scored) == nodes

    def test_wide_random_columns_read_fewer_rows(self, monkeypatch):
        # ten random columns of four values: few dependencies hold, so
        # pruning barely acts and nearly every node of the lower levels is
        # built. Scoring every candidate with pair_errors takes 959
        # products over 175 868 rows and scores 5 013 dependents, reading
        # 446 584 rows in all; building the products that score a candidate
        # first costs 43 more products and leaves 3 dependents to pair_errors
        rng = random.Random(0)
        rows = [tuple(rng.randrange(4) for _ in range(10)) for _ in range(300)]
        relation = Relation.build("w", [(f"c{i}", "integer") for i in range(10)], rows)
        work = MiningWork(monkeypatch)
        mined = mine_fds(relation)
        assert len(mined.entries) == 67
        assert (work.products, work.product_rows) == (1002, 175_938)
        assert (work.scored, work.rows) == (3, 175_946)

    def test_no_node_is_built_without_an_open_dependent(self, monkeypatch):
        # every single attribute determines the constant D at error 0, which
        # the products (A, D), (B, D) and (C, D) score from their pair
        # counts; none becomes a node, as each has the partition of its
        # other attribute. Each pair of A, B and C leaves only the third
        # open, so the pairs share no open dependent and (A, B, C) is neither
        # built nor scored, and the pairs are scored by pair_errors: 6
        # products, where building every node whose subsets are all nodes
        # takes 7 (and 3 when every candidate was scored by pair_errors)
        relation = Relation.build(
            "t",
            [(n, "integer") for n in "ABCD"],
            [(1, 0, 3, 0), (1, 0, 2, 0), (0, 0, 2, 0), (1, 3, 2, 0), (0, 0, 3, 0)],
        )
        work = MiningWork(monkeypatch)
        mined = mine_fds(relation)
        assert (work.products, work.scored) == (6, 3)
        assert mined.entries == brute_force_mine(relation).entries
        # the nodes scored, read from the kept scores' keys
        scored = {mask & ~(1 << a) for mask, a in scores(relation)}
        assert 0b0111 not in scored  # (A, B, C)
        assert scored == {0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b0101, 0b0110}

    @pytest.mark.parametrize(
        "spec, scorings, base_rows",
        [
            (MiningSpec(), 0, 0),
            (MiningSpec(max_lhs_len=1), 0, 0),
            # 45 over 198 rows and 34 over 103 if the nodes that hold an
            # exactly determined attribute were built
            (MiningSpec(max_lhs_len=2), 32, 154),
            (MiningSpec(max_lhs_len=3), 6, 24),
        ],
        ids=["exact", "cap-1", "cap-2", "cap-3"],
    )
    def test_cap_level_is_scored_from_its_bases(
        self, iowa, monkeypatch, spec, scorings, base_rows
    ):
        # each node at the cap, and no other, is scored from its smallest
        # subset, split by the attribute it lacks while it is scored; a
        # fresh snapshot, since the shared fixture keeps the scores others took
        iowa = Relation(iowa.name, iowa.schema, iowa.rows)
        covered = []
        real = fdq.miner.pair_errors

        def counting(pli, id_columns, scope_size, bound, split=None):
            if split is not None:
                covered.append(pli.covered)
            return real(pli, id_columns, scope_size, bound, split)

        monkeypatch.setattr(fdq.miner, "pair_errors", counting)
        mined = mine_fds(iowa, spec)
        assert len(covered) == scorings
        assert sum(covered) == base_rows
        assert mined.entries == brute_force_mine(iowa, spec).entries

    def test_single_partition_ids_are_built_once(self, iowa, monkeypatch):
        # intersect splits by the ids of its single-attribute input and
        # pair_errors counts each dependent's ids, so each attribute's value
        # ids are built once per snapshot, not per product or score, and a
        # single's partition shares them; a fresh snapshot, since the shared
        # fixture keeps what others built
        iowa = Relation(iowa.name, iowa.schema, iowa.rows)
        built = value_id_builds(monkeypatch)
        mine_fds(iowa)
        assert sorted(built) == sorted((id(iowa), n) for n in iowa.attribute_names)
        for a in range(len(iowa.schema)):
            assert build_pli(iowa, a).ids is value_ids(iowa, a)
        built.clear()
        mine_fds(iowa)
        assert built == []

    def test_kept_scores_are_reused(self, iowa, monkeypatch):
        # deterministic work counters: (pair_errors calls, dependents scored)
        # per mine, (56, 427) for the first if the nodes that hold an exactly
        # determined attribute were built; a fresh snapshot, since the
        # shared fixture keeps scores
        iowa = Relation(iowa.name, iowa.schema, iowa.rows)
        scored = []
        real = fdq.miner.pair_errors

        def counting(pli, id_columns, scope_size, bound, split=None):
            scored[-1][0] += 1
            scored[-1][1] += len(id_columns)
            return real(pli, id_columns, scope_size, bound, split)

        def mine(relation, spec):
            scored.append([0, 0])
            mined = mine_fds(relation, spec)
            assert mined.entries == brute_force_mine(relation, spec).entries
            return tuple(scored[-1])

        def errors(relation):
            # (bitmask of X u {A}, A) -> kept error
            return {key: error for key, (error, _) in scores(relation).items()}

        monkeypatch.setattr(fdq.miner, "pair_errors", counting)
        capped = MiningSpec(max_lhs_len=2)
        loose = MiningSpec(max_lhs_len=2, error_threshold=0.05)
        assert mine(iowa, capped) == (43, 336)
        assert mine(iowa, capped) == (0, 0)
        # an exact score decides every bound, and a partial count one it is
        # past, so a looser mine scores only the candidates with no kept
        # score or a partial count it admits. Ten rows fit in one stage, so
        # every score is counted to the end and none is left to rescore, of
        # the 209 dependents it scores on a fresh snapshot (72 when a score
        # past the bound was kept as a partial count, all 209 when kept
        # scores were keyed by their bound)
        assert mine(iowa, loose) == (0, 0)
        assert mine(Relation("t", iowa.schema, iowa.rows), loose) == (28, 209)

        # the street's zip typo, repaired: two of the ten rows change Zip
        z, a = iowa.attribute("Zip").index, iowa.attribute("Address").index
        edited = iowa.with_rows(
            row[:z] + (51333,) + row[z + 1:] if row[a] == "HWY 71" else row
            for row in iowa.rows
        )
        fresh = Relation(edited.name, edited.schema, edited.rows)
        assert mine(fresh, capped) == (42, 328)
        assert mine(edited, capped) == (34, 84)
        # the 84 are the candidates that read Zip; the rest were kept
        assert errors(edited) == errors(fresh)
        assert sum(bool(mask & 1 << z) for mask, _ in errors(fresh)) == 84

    def test_bad_parameters(self, iowa):
        with pytest.raises(ParameterError):
            MiningSpec(max_lhs_len=0)
        with pytest.raises(ParameterError):
            MiningSpec(error_threshold=1.0)
        with pytest.raises(ParameterError):
            mine_fds(iowa, workers=0)

    def test_binding_and_fingerprint(self, iowa):
        mined = mine_fds(iowa, name="fs")
        assert mined.name == "fs"
        assert mined.table_binding == "IOWA"
        assert mined.table_fingerprint == iowa.fingerprint


class TestBruteForce:
    def test_customer_area_code_determines_city(self, customers):
        mined = keys(brute_force_mine(customers))
        assert (("AC",), "CT") in mined
        # the two-attribute variant is redundant once AC alone works
        assert (("AC", "CC"), "CT") not in mined

    def test_respects_threshold(self, iowa):
        loose = brute_force_mine(iowa, MiningSpec(error_threshold=4 / 90))
        assert (("Category",), "CategoryName") in keys(loose)


class TestCfdSupport:
    def pattern(self, **cells):
        base = {"CC": None, "AC": None, "STR": None, "ZIP": None}
        base.update(cells)
        return base

    def test_constant_pattern(self, customers):
        support = cfd_support(
            customers,
            ["CC", "AC", "STR"],
            "ZIP",
            self.pattern(CC=("=", 1), AC=("=", 908)),
        )
        assert support == 2 / 6

    def test_all_wildcards(self, customers):
        assert cfd_support(customers, ["CC", "AC", "STR"], "ZIP", self.pattern()) == 1.0

    def test_unmatched_constant(self, customers):
        assert (
            cfd_support(
                customers, ["CC", "AC", "STR"], "ZIP", self.pattern(CC=("=", 99))
            )
            == 0.0
        )

    def test_empty_relation(self):
        rel = load_csv(b"A,B\n")
        assert cfd_support(rel, ["A"], "B", {"A": None, "B": None}) == 0.0

    def test_pattern_must_cover_dependency(self, customers):
        with pytest.raises(ContractError):
            cfd_support(customers, ["CC", "AC", "STR"], "ZIP", {"CC": None})
        with pytest.raises(ContractError):
            cfd_support(
                customers,
                ["CC", "AC", "STR"],
                "ZIP",
                self.pattern(CT=("=", "MH")),
            )


class TestCfdConfidence:
    def test_fixture_tableau(self, customers):
        tableau = PatternTableau(
            ("CC", "AC", "STR", "ZIP"),
            (
                (None, None, None, None),
                (("=", 1), ("=", 908), None, None),
                (("=", 1), ("=", 212), None, None),
            ),
        )
        cfd = CFD(("CC", "AC", "STR"), "ZIP", tableau)
        # rows 3 and 4 share a determinant yet disagree on ZIP: drop one row
        assert cfd_confidence(customers, cfd) == 5 / 6

    def test_holding_cfd_scores_one(self, customers):
        tableau = PatternTableau(("AC", "CT"), ((None, None),))
        assert cfd_confidence(customers, CFD(("AC",), "CT", tableau)) == 1.0

    def test_unmatched_groups_kept_whole(self, customers):
        tableau = PatternTableau(
            ("CC", "AC", "STR", "ZIP"),
            ((("=", 99), None, None, None),),
        )
        cfd = CFD(("CC", "AC", "STR"), "ZIP", tableau)
        assert cfd_confidence(customers, cfd) == 1.0

    def test_incompatible_rhs_cell_drops_group(self, customers):
        # every AC=908 row must have ZIP '00000'; none does, so both rows drop
        tableau = PatternTableau(
            ("CC", "AC", "STR", "ZIP"),
            ((None, ("=", 908), None, ("=", "00000")),),
        )
        cfd = CFD(("CC", "AC", "STR"), "ZIP", tableau)
        assert cfd_confidence(customers, cfd) == 4 / 6

    def test_empty_relation(self):
        rel = load_csv(b"A,B\n")
        tableau = PatternTableau(("A", "B"), ((None, None),))
        assert cfd_confidence(rel, CFD(("A",), "B", tableau)) == 1.0

    def test_tableau_outside_dependency_rejected(self, customers):
        tableau = PatternTableau(("CT",), ((None,),))
        with pytest.raises(ContractError):
            CFD(("AC",), "ZIP", tableau)


class TestMinefdStatement:
    def test_minimal_statement(self):
        stmt = parse_minefd("MINEFD fs AS SELECT LHS -> RHS FROM IOWA")
        assert stmt.name == "fs"
        assert stmt.table == "IOWA"
        assert not stmt.show_error
        assert stmt.spec.error_threshold == 0.0

    def test_error_column_flag(self):
        stmt = parse_minefd("MINEFD fs AS SELECT LHS -> RHS, ERROR FROM IOWA")
        assert stmt.show_error

    def test_trailing_error_is_threshold(self):
        stmt = parse_minefd("MINEFD fs AS SELECT LHS -> RHS FROM IOWA ERROR 0.05")
        assert stmt.spec.error_threshold == 0.05

    def test_filters(self):
        stmt = parse_minefd(
            'MINEFD fs AS SELECT LHS -> RHS WHERE LHS LIKE {"Address", "Zip"} '
            'AND RHS LIKE {"Sale"} AND LHS LENGTH <= 2 FROM IOWA'
        )
        assert stmt.spec.lhs_filter == GlobList(("Address", "Zip"))
        assert stmt.spec.rhs_filter == GlobList(("Sale",))
        assert stmt.lengths == (LhsLength("<=", 2),)
        assert stmt.spec.max_lhs_len == 2

    @pytest.mark.parametrize(
        "where",
        [
            'LHS LIKE {"A"} OR RHS LIKE {"B"}',
            'LHS LENGTH <= 1 AND (RHS LIKE {"A"} OR LHS LENGTH = 1)',
        ],
        ids=["or-at-top", "or-in-group"],
    )
    def test_or_rejected(self, where):
        with pytest.raises(Exception, match="AND only"):
            parse_minefd(f"MINEFD fs AS SELECT LHS -> RHS WHERE {where} FROM IOWA")

    def test_parenthesized_where_mines_the_same_set(self, iowa):
        plain = parse_minefd(
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA"
        )
        grouped = parse_minefd(
            "MINEFD fs AS SELECT LHS -> RHS WHERE (LHS LENGTH <= 1) FROM IOWA"
        )
        assert grouped == plain
        assert execute_minefd(grouped, iowa) == execute_minefd(plain, iowa)

    def test_error_atom_in_where_points_to_the_trailing_bound(self):
        with pytest.raises(ParseError, match=r"FROM <table> ERROR <bound>"):
            parse_minefd(
                "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 AND ERROR 0.1 "
                "FROM IOWA"
            )

    def test_execute_with_exact_length(self, iowa):
        stmt = parse_minefd(
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH = 1 FROM IOWA"
        )
        mined = execute_minefd(stmt, iowa)
        assert mined.entries
        assert all(len(e.lhs) == 1 for e in mined.entries)
        assert keys(mined) == {
            k for k in keys(mine_fds(iowa)) if len(k[0]) == 1
        }

    def test_execute_with_lower_bound(self, iowa):
        stmt = parse_minefd(
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH >= 2 FROM IOWA"
        )
        mined = execute_minefd(stmt, iowa)
        assert mined.entries
        assert all(len(e.lhs) >= 2 for e in mined.entries)

    @pytest.mark.parametrize(
        "where, cap, keep",
        [
            ("LHS LENGTH < 2", 1, lambda n: n < 2),
            ("LHS LENGTH <= 2", 2, lambda n: n <= 2),
            ("LHS LENGTH = 2", 2, lambda n: n == 2),
            ("LHS LENGTH != 1", None, lambda n: n != 1),
            ("LHS LENGTH > 1", None, lambda n: n > 1),
            ("LHS LENGTH >= 2", None, lambda n: n >= 2),
            ("LHS LENGTH <= 3 AND LHS LENGTH <= 1", 1, lambda n: n <= 1),
            ("LHS LENGTH < 3 AND LHS LENGTH >= 2", 2, lambda n: n == 2),
        ],
        ids=["lt", "le", "eq", "ne", "gt", "ge", "le-and-le", "lt-and-ge"],
    )
    def test_every_length_operator(self, iowa, where, cap, keep):
        # the tightest upper bound caps the walk; every atom filters after it
        stmt = parse_minefd(f"MINEFD fs AS SELECT LHS -> RHS WHERE {where} FROM IOWA")
        assert stmt.spec.max_lhs_len == cap
        fresh = Relation(iowa.name, iowa.schema, iowa.rows)
        expected = tuple(e for e in mine_fds(fresh).entries if keep(len(e.lhs)))
        assert expected
        assert execute_minefd(stmt, iowa).entries == expected
