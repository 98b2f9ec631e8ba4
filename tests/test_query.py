import random
from decimal import Decimal

import pytest

import fdq.partition
import fdq.query
from fdq.errors import (
    ContractError,
    NameResolutionError,
    ParameterError,
    ParseError,
)
from fdq.query import (
    ColumnProjection,
    DependentProjection,
    ExtendedSelect,
    FdPredicate,
    StarProjection,
    eval_dependent,
    eval_holds,
    eval_not_holds,
    eval_violates,
    execute,
    parse_extended_select,
    select_to_text,
    value_distance,
)
from fdq.relation import And, Comparison, Not, Or, Relation

# The fixture's on-scope workhorse: restrict to large bottles in the bourbon
# category or carrying the scotch label, then ask whether category and volume
# pin the label down.
SCOPED_HOLDS = (
    'SELECT "Category", "BtlVol", "CategoryName" FROM IOWA '
    'WHERE HOLDS ("Category", "BtlVol" -> "CategoryName" '
    'ON ["BtlVol" >= 750] AND (["Category" = 11200] OR ["CategoryName" = "SCOTCH"]))'
)


def rel(names, rows, kinds=None):
    kinds = kinds or ["text"] * len(names)
    return Relation.build("t", list(zip(names, kinds)), [tuple(r) for r in rows])


class TestParse:
    def test_star(self):
        ast = parse_extended_select("SELECT * FROM IOWA")
        assert ast == ExtendedSelect(StarProjection(), "IOWA", None)

    def test_column_list(self):
        ast = parse_extended_select('SELECT "Address", "Zip" FROM IOWA')
        assert ast.projection == ColumnProjection(("Address", "Zip"))
        assert ast.source == "IOWA"

    def test_scoped_holds(self):
        ast = parse_extended_select(SCOPED_HOLDS)
        pred = ast.where
        assert isinstance(pred, FdPredicate)
        assert pred.kind == "holds"
        assert pred.lhs == ("Category", "BtlVol")
        assert pred.rhs == "CategoryName"
        assert pred.error is None
        assert pred.on == And(
            (
                Comparison("BtlVol", ">=", 750),
                Or(
                    (
                        Comparison("Category", "=", 11200),
                        Comparison("CategoryName", "=", "SCOTCH"),
                    )
                ),
            )
        )

    def test_approximate_holds(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE HOLDS ("Category" -> "CategoryName", ERROR = 0.05)'
        )
        assert ast.where == FdPredicate(
            "holds", ("Category",), "CategoryName", error=0.05
        )

    def test_not_holds(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip")'
        )
        assert ast.where == FdPredicate("not_holds", ("Address",), "Zip")

    def test_violates(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE "Address" VIOLATES '
            '("Address", "Vendor" -> "Zip", ERROR <= 0.6)'
        )
        assert ast.where == FdPredicate(
            "violates", ("Address", "Vendor"), "Zip", error=0.6, suspect="Address"
        )

    def test_violates_default_threshold_stays_unset(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE "Address" VIOLATES ("Address", "Vendor" -> "Zip")'
        )
        assert ast.where.error is None

    def test_violates_suspect_outside_determinant(self):
        with pytest.raises(ParseError, match="suspect"):
            parse_extended_select(
                'SELECT * FROM IOWA WHERE "Zip" VIOLATES ("Address" -> "Zip")'
            )

    def test_dependent_projection(self):
        ast = parse_extended_select('SELECT DEPENDENT (["Zip", "Address"]) FROM IOWA')
        assert ast.projection == DependentProjection(("Zip", "Address"), None)

    def test_dependent_with_error(self):
        ast = parse_extended_select(
            'SELECT DEPENDENT (["Zip"], ERROR = 0.1) FROM IOWA'
        )
        assert ast.projection == DependentProjection(("Zip",), 0.1)

    def test_multi_rhs_fans_out(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack", "Category")'
        )
        assert ast.where == And(
            (
                FdPredicate("holds", ("Zip",), "Pack"),
                FdPredicate("holds", ("Zip",), "Category"),
            )
        )

    def test_multi_rhs_not_holds_fans_out_into_a_disjunction(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE NOT HOLDS ("Zip" -> "Pack", "Category")'
        )
        assert ast.where == Or(
            (
                FdPredicate("not_holds", ("Zip",), "Pack"),
                FdPredicate("not_holds", ("Zip",), "Category"),
            )
        )

    def test_predicates_mix_with_row_filters(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack") AND "BtlVol" >= 750'
        )
        assert ast.where == And(
            (
                FdPredicate("holds", ("Zip",), "Pack"),
                Comparison("BtlVol", ">=", 750),
            )
        )

    def test_not_flips_exact_holds(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE NOT (HOLDS ("Address" -> "Zip"))'
        )
        assert ast.where == FdPredicate("not_holds", ("Address",), "Zip")

    def test_double_not_cancels(self):
        ast = parse_extended_select(
            'SELECT * FROM IOWA WHERE NOT NOT HOLDS ("Address" -> "Zip")'
        )
        assert ast.where == FdPredicate("holds", ("Address",), "Zip")

    def test_not_over_approximate_holds_is_rejected(self):
        # the complement of "error within bound" is not a predicate the
        # evaluator can express, so the parser refuses it outright
        with pytest.raises(ParseError, match="exact"):
            parse_extended_select(
                'SELECT * FROM IOWA WHERE NOT (HOLDS ("A" -> "B", ERROR = 0.1))'
            )

    @pytest.mark.parametrize(
        "negated, direct",
        [
            ('NOT (HOLDS ("Zip" -> "Pack", "Category"))',
             'NOT HOLDS ("Zip" -> "Pack", "Category")'),
            ('NOT (NOT HOLDS ("Zip" -> "Pack", "Category"))',
             'HOLDS ("Zip" -> "Pack", "Category")'),
        ],
        ids=["holds", "not-holds"],
    )
    def test_not_over_multi_rhs_predicate_is_de_morgan(self, negated, direct):
        # the fan-out's AND flips into an OR of the flipped predicates, and back
        ast = parse_extended_select(f"SELECT * FROM IOWA WHERE {negated}")
        assert ast == parse_extended_select(f"SELECT * FROM IOWA WHERE {direct}")

    def test_not_over_multi_rhs_approximate_holds_is_rejected(self):
        with pytest.raises(ParseError, match="exact"):
            parse_extended_select(
                'SELECT * FROM IOWA WHERE NOT (HOLDS ("A" -> "B", "C", ERROR = 0.1))'
            )

    def test_not_over_mixed_group_is_rejected(self):
        with pytest.raises(ParseError, match="NOT"):
            parse_extended_select(
                'SELECT * FROM IOWA WHERE NOT (HOLDS ("A" -> "B") AND ["C" = 1])'
            )

    @pytest.mark.parametrize(
        "negated",
        [
            '(HOLDS ("Address" -> "Zip", "Pack", ERROR = 0.1))',
            '(HOLDS ("Address" -> "Zip") AND ["Pack" = 12])',
        ],
        ids=["approximate", "mixed"],
    )
    def test_rejected_not_points_at_the_not(self, negated):
        text = f'SELECT "Zip" FROM IOWA WHERE NOT {negated}'
        with pytest.raises(ParseError) as info:
            parse_extended_select(text)
        assert info.value.pos == text.index("NOT") + 1 == 30

    def test_not_over_row_condition_wraps(self):
        ast = parse_extended_select('SELECT * FROM IOWA WHERE NOT ["Pack" = 12]')
        assert ast.where == Not(Comparison("Pack", "=", 12))

    def test_error_bound_not_allowed_on_not_holds(self):
        with pytest.raises(ParseError, match="ERROR"):
            parse_extended_select(
                'SELECT * FROM IOWA WHERE NOT HOLDS ("A" -> "B", ERROR = 0.1)'
            )

    def test_violates_requires_leq_error(self):
        with pytest.raises(ParseError):
            parse_extended_select(
                'SELECT * FROM IOWA WHERE "A" VIOLATES ("A" -> "B", ERROR = 0.5)'
            )

    def test_negative_literal(self):
        ast = parse_extended_select('SELECT * FROM t WHERE ["x" > -3]')
        assert ast.where == Comparison("x", ">", -3)

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_extended_select("SELECT * FROM IOWA garbage")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse_extended_select('SELECT "A" WHERE ["B" = 1]')


class TestPrint:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM IOWA",
            'SELECT "Address", "Zip" FROM IOWA',
            SCOPED_HOLDS,
            'SELECT * FROM IOWA WHERE HOLDS ("Category" -> "CategoryName", ERROR = 0.05)',
            'SELECT * FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip")',
            'SELECT * FROM IOWA WHERE "Address" VIOLATES '
            '("Address", "Vendor" -> "Zip", ERROR <= 0.6)',
            'SELECT DEPENDENT (["Zip", "Address"]) FROM IOWA',
            'SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack") AND "BtlVol" >= 750',
            'SELECT * FROM IOWA WHERE ["Pack" = 12] OR NOT ["BtlVol" < 1000]',
        ],
    )
    def test_print_parse_fixpoint(self, text):
        ast = parse_extended_select(text)
        printed = select_to_text(ast)
        assert parse_extended_select(printed) == ast
        # printing is canonical: a second round trip is the identity
        assert select_to_text(parse_extended_select(printed)) == printed

    def test_multi_rhs_not_holds_prints_as_a_disjunction(self):
        ast = parse_extended_select(
            'SELECT * FROM t WHERE "A" = 1 AND NOT HOLDS ("A" -> "B", "C")'
        )
        printed = select_to_text(ast)
        assert printed == (
            'SELECT * FROM t WHERE "A" = 1 AND '
            '(NOT HOLDS ("A" -> "B") OR NOT HOLDS ("A" -> "C"))'
        )
        assert parse_extended_select(printed) == ast

    def test_string_constants_print_single_quoted(self):
        ast = parse_extended_select('SELECT * FROM t WHERE ["a" = "x"]')
        assert select_to_text(ast) == "SELECT * FROM t WHERE \"a\" = 'x'"

    @pytest.mark.parametrize(
        "literal, printed",
        [
            ("-1.00000000000000000000000000001", "-1.00000000000000000000000000001"),
            ("-0.0", "-0.0"),  # a decimal zero keeps its sign
            ("-0", "0"),  # an integer zero has none
            ("-12", "-12"),
        ],
    )
    def test_negative_literals_print_back(self, literal, printed):
        ast = parse_extended_select(f'SELECT * FROM t WHERE "c" = {literal}')
        assert select_to_text(ast) == f'SELECT * FROM t WHERE "c" = {printed}'
        assert parse_extended_select(select_to_text(ast)) == ast


class TestEvalHolds:
    def test_exact_full_table(self, iowa):
        # rows 3 and 10 share (62310, 750) but disagree on the name, every
        # other (Category, BtlVol) cluster is clean
        kept = eval_holds(iowa, ["Category", "BtlVol"], "CategoryName")
        assert kept == {0, 1, 3, 4, 5, 6, 7, 8}
        # every row agrees on no attributes: all are kept exactly when the
        # dependent is constant
        r = rel(["a", "b"], [("x", "1"), ("x", "2"), ("x", "1")])
        assert [eval_holds(r, [], a) for a in "ab"] == [{0, 1, 2}, set()]

    def test_scoped(self, iowa):
        ast = parse_extended_select(SCOPED_HOLDS)
        pred = ast.where
        kept = eval_holds(iowa, pred.lhs, pred.rhs, pred.on)
        assert kept == {4, 5, 6, 7}

    def test_approximate_within_bound(self, iowa):
        # error of Category -> CategoryName is 4/90, under the bound, so the
        # clean rows come back and the contradicting cluster {1, 3, 10} does not
        kept = eval_holds(iowa, ["Category"], "CategoryName", error=0.05)
        assert kept == {1, 3, 4, 5, 6, 7, 8}

    def test_approximate_over_bound_returns_nothing(self, iowa):
        assert eval_holds(iowa, ["Category"], "CategoryName", error=0.01) == set()

    def test_exact_bound_zero_matches_exact_mode_on_clean_fd(self, iowa):
        exact = eval_holds(iowa, ["Zip"], "Pack")
        assert exact == set(range(10))
        assert eval_holds(iowa, ["Zip"], "Pack", error=0.0) == exact

    def test_empty_scope(self, iowa):
        kept = eval_holds(
            iowa, ["Zip"], "Pack", on_condition=Comparison("Pack", "=", 999)
        )
        assert kept == set()

    def test_rhs_inside_lhs_is_trivially_exact(self, iowa):
        kept = eval_holds(iowa, ["Zip", "Pack"], "Pack", error=0.5)
        assert kept == set(range(10))

    @pytest.mark.parametrize(
        "lhs, rhs, bound, measured",
        [
            (["Zip"], "Pack", 0.5, []),  # no witness: the error is 0
            (["Zip", "Pack"], "Pack", 0.5, []),  # trivial
            (["Category"], "CategoryName", 0.05, [0.05]),
            (["Category"], "CategoryName", 0.01, [0.01]),
        ],
    )
    def test_error_is_measured_only_with_witnesses(
        self, iowa, monkeypatch, lhs, rhs, bound, measured
    ):
        bounds = []
        real = fdq.query.error_measure

        def counting(relation, lhs, dependents, scope=None, bound=float("inf")):
            bounds.append(bound)
            return real(relation, lhs, dependents, scope, bound)

        monkeypatch.setattr(fdq.query, "error_measure", counting)
        eval_holds(iowa, lhs, rhs, error=bound)
        assert bounds == measured

    @pytest.mark.parametrize(
        "on, cuts", [(None, 0), (Comparison("Pack", ">=", 12), 3)], ids=["whole", "scoped"]
    )
    def test_only_an_on_scope_is_cut(self, iowa, monkeypatch, on, cuts):
        # without ON the kept partition is the whole table's as it is
        cut = []
        real = fdq.partition._restrict

        def restricting(pli, scope):
            cut.append(pli)
            return real(pli, scope)

        monkeypatch.setattr(fdq.partition, "_restrict", restricting)
        exact = eval_holds(iowa, ["Category"], "CategoryName", on)
        approximate = eval_holds(iowa, ["Category"], "CategoryName", on, error=0.05)
        witnesses = eval_not_holds(iowa, ["Category"], "CategoryName", on)
        assert len(cut) == cuts
        assert exact == approximate - witnesses

    def test_bound_out_of_range(self, iowa):
        with pytest.raises(ParameterError):
            eval_holds(iowa, ["Zip"], "Pack", error=1.0)
        with pytest.raises(ParameterError):
            eval_holds(iowa, ["Zip"], "Pack", error=-0.1)

    @pytest.mark.parametrize(
        "on",
        [None, Comparison("Pack", ">=", 12), Comparison("Pack", ">", 100000)],
        ids=["whole-table", "scoped", "empty-scope"],
    )
    def test_bound_is_checked_before_any_row(self, iowa, on):
        with pytest.raises(ParameterError, match=r"error bound 1.5 outside \[0, 1\)"):
            eval_holds(iowa, ["Address"], "Zip", on, error=1.5)

    def test_unknown_attribute(self, iowa):
        with pytest.raises(NameResolutionError):
            eval_holds(iowa, ["Nope"], "Pack")


class TestEvalNotHolds:
    def test_address_zip_witnesses(self, iowa):
        # the two HWY 71 rows carry different zips
        assert eval_not_holds(iowa, ["Address"], "Zip") == {5, 7}

    def test_category_name_witnesses(self, iowa):
        assert eval_not_holds(iowa, ["Category"], "CategoryName") == {0, 2, 9}

    def test_partition_with_holds(self, iowa):
        kept = eval_holds(iowa, ["Address"], "Zip")
        bad = eval_not_holds(iowa, ["Address"], "Zip")
        assert kept | bad == set(range(10))
        assert kept & bad == set()

    def test_clean_fd_has_no_witnesses(self, iowa):
        assert eval_not_holds(iowa, ["Zip"], "Pack") == set()

    def test_empty_scope(self, iowa):
        bad = eval_not_holds(
            iowa, ["Address"], "Zip", on_condition=Comparison("Pack", "=", 999)
        )
        assert bad == set()


class TestValueDistance:
    def test_text_is_normalized_edit_distance(self):
        assert value_distance("COMM. AVE", "COMMERC. ST", "text") == 6 / 11
        assert value_distance("abc", "abc", "text") == 0.0
        assert value_distance("", "ab", "text") == 1.0

    def test_numeric_is_relative_difference(self):
        assert value_distance(10, 12, "integer") == 2 / 12
        assert value_distance(Decimal("1.5"), Decimal("1.5"), "decimal") == 0.0

    def test_numeric_distance_is_capped_at_one(self):
        # opposite signs differ by more than the larger magnitude
        assert value_distance(-1, 1, "integer") == 1.0
        assert value_distance(Decimal("-2.5"), Decimal("0.5"), "decimal") == 1.0
        assert value_distance(0, 7, "integer") == 1.0
        assert value_distance(-3, -4, "integer") == 1 / 4

    def test_null_is_rejected(self):
        with pytest.raises(ContractError):
            value_distance(None, "x", "text")


class TestEvalViolates:
    def test_near_duplicate_addresses(self, iowa):
        # rows 1 and 9 share vendor 260 and zip 50533 while spelling the
        # street two ways; the spellings sit within the default threshold
        found = eval_violates(iowa, "Address", ["Address", "Vendor"], "Zip")
        assert found == {0, 8}

    def test_tight_threshold_filters_them_out(self, iowa):
        found = eval_violates(
            iowa, "Address", ["Address", "Vendor"], "Zip", threshold=0.5
        )
        assert found == set()

    def test_zero_threshold(self, iowa):
        assert (
            eval_violates(iowa, "Address", ["Address", "Vendor"], "Zip", threshold=0.0)
            == set()
        )

    def test_agreeing_groups_are_silent(self):
        r = rel(["a", "b"], [("x", "1"), ("x", "1"), ("y", "2")])
        assert eval_violates(r, "a", ["a"], "b") == set()

    def test_null_suspects_never_come_back(self):
        r = rel(["a", "b"], [("x", "1"), (None, "1"), ("xx", "1")])
        found = eval_violates(r, "a", ["a"], "b", threshold=1.0)
        assert found == {0, 2}

    @pytest.mark.parametrize(
        "kind, values",
        [("integer", (-1, 1, -2, 3, 5)), ("text", ("a", "bcd", "x", "yz", "q"))],
    )
    def test_bound_of_one_flags_every_distinct_sibling(self, kind, values):
        a, b, c, d, e = values
        r = Relation.build(
            "t",
            [("s", kind), ("g", "integer")],
            [(a, 0), (b, 0), (None, 0), (e, 1), (e, 1), (c, 2), (d, 2)],
        )
        assert eval_violates(r, "s", ["s"], "g", threshold=1.0) == {0, 1, 5, 6}

    def test_only_close_values_in_a_mixed_group(self):
        # "abcd"/"abce" are one edit apart; "zzzzzzzz" is far from both
        r = rel(["a", "b"], [("abcd", "1"), ("abce", "1"), ("zzzzzzzz", "1")])
        assert eval_violates(r, "a", ["a"], "b", threshold=0.3) == {0, 1}

    def test_distance_calls_are_pinned(self, monkeypatch):
        # a deterministic work counter: each unordered pair of distinct
        # values is scored at most once, and not once both are known close,
        # so going back to one call per ordered pair, or to the minimum over
        # every sibling, fails here, not on a stopwatch
        rng = random.Random(6)
        streets = ["ELM ST", "OAK AVE", "MAPLE DR", "HWY 71", "PINE CT", "MAIN ST"]
        rows = []
        for _ in range(120):
            street = rng.choice(streets)
            if rng.random() < 0.2:
                at = rng.randrange(len(street))
                street = street[:at] + rng.choice("XYZ") + street[at + 1:]
            rows.append((street, str(rng.randrange(4))))
        r = rel(["a", "b"], rows)
        calls = []
        real = fdq.query.value_distance

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(fdq.query, "value_distance", counting)
        found = eval_violates(r, "a", ["a"], "b", threshold=0.2)
        siblings = [
            len({a for a, b in rows if b == zip_}) for zip_ in {b for _, b in rows}
        ]
        assert len(found) == 78
        assert len(calls) == 187
        assert len(calls) < sum(n * (n - 1) // 2 for n in siblings)

    @pytest.mark.parametrize(
        "rhs, threshold, rows, calls",
        [
            ("Zip", 0.75, {0, 1, 2, 8}, 2),  # two groups of two addresses
            ("Pack", 0.75, set(range(9)), 12),
            ("Pack", 0.3, set(), 28),  # every unordered pair of 8 addresses
        ],
    )
    def test_distance_calls_are_pinned_on_the_fixture(
        self, iowa, monkeypatch, rhs, threshold, rows, calls
    ):
        # scoring each ordered pair up to a value's first close sibling
        # made 4, 20 and 56 calls
        counted = []
        real = fdq.query.value_distance

        def counting(*args):
            counted.append(None)
            return real(*args)

        monkeypatch.setattr(fdq.query, "value_distance", counting)
        assert eval_violates(iowa, "Address", ["Address"], rhs, threshold) == rows
        assert len(counted) == calls

    def test_suspect_must_be_in_lhs(self, iowa):
        with pytest.raises(ContractError):
            eval_violates(iowa, "Zip", ["Address"], "Zip")

    def test_negative_threshold(self, iowa):
        with pytest.raises(ParameterError):
            eval_violates(iowa, "Address", ["Address"], "Zip", threshold=-0.1)


class TestEvalDependent:
    def test_fixture_golden(self, iowa):
        assert eval_dependent(iowa, ["Zip", "Address"]) == [
            "Date",
            "Category",
            "CategoryName",
            "Sale",
            "VolSold",
        ]

    def test_key_attribute_determines_everything(self, iowa):
        # Sale is unique across the ten rows
        assert eval_dependent(iowa, ["Sale"]) == [
            "Date",
            "Address",
            "Zip",
            "Category",
            "CategoryName",
            "Vendor",
            "Pack",
            "BtlVol",
            "BtlSold",
            "VolSold",
        ]

    def test_minimality_excludes_padded_determinants(self):
        # a alone determines c, so {a, b} -> c is not minimal
        r = rel(
            ["a", "b", "c"],
            [("1", "1", "1"), ("1", "2", "1"), ("2", "1", "2"), ("2", "2", "2")],
        )
        assert eval_dependent(r, ["a", "b"]) == []
        assert eval_dependent(r, ["a"]) == ["c"]

    def test_error_bound_widens(self, iowa):
        exact = set(eval_dependent(iowa, ["Category"]))
        loose = set(eval_dependent(iowa, ["Category"], error=0.05))
        assert "CategoryName" not in exact
        assert "CategoryName" in loose

    @pytest.mark.parametrize("module", [fdq.query, fdq.partition])
    def test_determinant_is_scored_from_its_partition(self, iowa, monkeypatch, module):
        # {Zip, Address} is scored on `partition_of`'s product, Address's
        # partition (2 rows; Zip's covers 4) split by Zip's ids, and with no
        # split, whether DEPENDENT (in fdq.query) or a direct `error_measure`
        # call asks; DEPENDENT then scores each one-attribute subset, its
        # own partition, which takes no product
        products, splits = [], []
        real_intersect, real_scoring = fdq.partition.intersect, fdq.partition.pair_errors

        def building(a, b):
            products.append((a.covered, b.covered))
            return real_intersect(a, b)

        def scoring(pli, id_columns, scope_size, bound, split=None):
            splits.append(split)
            return real_scoring(pli, id_columns, scope_size, bound, split)

        monkeypatch.setattr(fdq.partition, "intersect", building)
        monkeypatch.setattr(fdq.partition, "pair_errors", scoring)
        zip_, address = iowa.attribute("Zip").index, iowa.attribute("Address").index
        if module is fdq.query:
            eval_dependent(iowa, ["Zip", "Address"])
        else:
            category = iowa.attribute("Category").index
            fdq.partition.error_measure(iowa, [zip_, address], [category])
        assert products == [(2, 4)]
        assert splits and all(split is None for split in splits)

    def test_empty_attribute_list(self, iowa):
        with pytest.raises(ParameterError):
            eval_dependent(iowa, [])

    def test_bound_out_of_range(self, iowa):
        with pytest.raises(ParameterError):
            eval_dependent(iowa, ["Zip"], error=1.5)


class TestExecute:
    def run(self, text, relation):
        return execute(parse_extended_select(text), relation)

    def test_scoped_holds_projection(self, iowa):
        out = self.run(SCOPED_HOLDS, iowa)
        assert out.columns == ("Category", "BtlVol", "CategoryName")
        assert out.rows == (
            (11200, 750, "BOURBON"),
            (12210, 750, "SCOTCH"),
            (12210, 750, "SCOTCH"),
            (11200, 750, "BOURBON"),
        )

    def test_predicate_then_row_filter(self, iowa):
        out = self.run(
            'SELECT "Category", "BtlVol", "CategoryName" FROM IOWA '
            'WHERE HOLDS ("Category", "BtlVol" -> "CategoryName") AND "BtlVol" >= 750',
            iowa,
        )
        # the dependency predicate sees the whole table, so the row filter
        # cannot resurrect the two contradicting rows it removed
        assert len(out.rows) == 8
        assert (62310, 750, "BLACK RUM") not in out.rows
        assert (62310, 750, "WHITE RUM") not in out.rows

    def test_approximate_holds_select(self, iowa):
        out = self.run(
            'SELECT "Category", "CategoryName" FROM IOWA '
            'WHERE HOLDS ("Category" -> "CategoryName", ERROR = 0.05)',
            iowa,
        )
        assert out.rows == (
            (12100, "WHISKIES"),
            (81600, "LIQUEUR"),
            (11200, "BOURBON"),
            (12210, "SCOTCH"),
            (12210, "SCOTCH"),
            (11200, "BOURBON"),
            (32200, "VODKA"),
        )

    def test_not_holds_select(self, iowa):
        out = self.run('SELECT * FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip")', iowa)
        assert len(out.columns) == 11
        assert [r[1] for r in out.rows] == ["HWY 71", "HWY 71"]
        assert [r[2] for r in out.rows] == [51333, 51331]

    def test_violates_select(self, iowa):
        out = self.run(
            'SELECT * FROM IOWA WHERE "Address" VIOLATES '
            '("Address", "Vendor" -> "Zip")',
            iowa,
        )
        assert [r[1] for r in out.rows] == ["COMM. AVE", "COMMERC. ST"]

    def test_dependent_select(self, iowa):
        out = self.run('SELECT DEPENDENT (["Zip", "Address"]) FROM IOWA', iowa)
        assert out.columns == ("Date", "Category", "CategoryName", "Sale", "VolSold")
        assert len(out.rows) == 10

    def test_plain_row_filter(self, iowa):
        out = self.run('SELECT "Address" FROM IOWA WHERE ["Zip" = 52001]', iowa)
        assert out.rows == (("IOWA ST",), ("ELM ST",))

    def test_or_over_predicates(self, iowa):
        out = self.run(
            'SELECT * FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip") '
            'OR ["Zip" = 52001]',
            iowa,
        )
        assert [r[1] for r in out.rows] == ["IOWA ST", "ELM ST", "HWY 71", "HWY 71"]

    def test_multi_rhs_not_holds_is_the_complement_of_holds(self):
        t = rel(
            ["A", "B", "C"],
            [("1", "x", "p"), ("1", "y", "p"), ("2", "z", "q"), ("2", "z", "r"),
             ("3", "w", "s")],
        )
        holds = self.run('SELECT "A" FROM t WHERE HOLDS ("A" -> "B", "C")', t)
        witnesses = self.run('SELECT "A" FROM t WHERE NOT HOLDS ("A" -> "B", "C")', t)
        assert holds.rows == (("3",),)
        assert witnesses.rows == (("1",), ("1",), ("2",), ("2",))

    def test_not_over_multi_rhs_holds_returns_the_not_holds_rows(self, iowa):
        negated = self.run(
            'SELECT "Zip" FROM IOWA WHERE NOT (HOLDS ("Address" -> "Zip", "Pack"))', iowa
        )
        direct = self.run(
            'SELECT "Zip" FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip", "Pack")', iowa
        )
        assert negated.rows == direct.rows == ((51333,), (51331,))

    def test_empty_result(self, iowa):
        out = self.run('SELECT * FROM IOWA WHERE ["Pack" = 999]', iowa)
        assert out.rows == ()

    def test_no_where(self, iowa):
        out = self.run("SELECT * FROM IOWA", iowa)
        assert len(out.rows) == 10

    def test_unknown_projection_attribute(self, iowa):
        with pytest.raises(NameResolutionError):
            self.run('SELECT "Nope" FROM IOWA', iowa)
