import pytest
from oracle import brute_force_mine

import fdq.fdstore
from fdq.errors import (
    ContractError,
    NameResolutionError,
    ParseError,
    UnsupportedOperationError,
)
from fdq.fdstore import (
    ErrorLeq,
    FDEntry,
    FDSet,
    FdmlQuery,
    LhsLength,
    LhsLike,
    RhsLike,
    attr_closure,
    diff_fdsets,
    dumps_fdset,
    eval_fdml,
    fdml_to_text,
    import_fdset,
    is_implied,
    load_fdset,
    loads_fdset,
    parse_fdml,
    save_fdset,
)
from fdq.miner import mine_fds
from fdq.relation import And, Or
from fdq.setexpr import (
    AllOf,
    AnyOf,
    Combine,
    GlobList,
    Star,
    eval_subset_expr,
    set_expr_to_text,
)

SCHEMA = (
    "Date", "Address", "Zip", "Category", "CategoryName",
    "Vendor", "Pack", "BtlVol", "BtlSold", "Sale", "VolSold",
)


def fs(*entries, name="fs", table="IOWA", fingerprint=1, mined_at=""):
    return FDSet(name, table, fingerprint, tuple(entries), mined_at)


def e(lhs, rhs, error=0.0, origin="mined"):
    return FDEntry(tuple(sorted(lhs)), rhs, error, origin)


class TestSubsetExpr:
    def test_literal_and_glob(self):
        expr = GlobList(("Address", "Category*"))
        alts = eval_subset_expr(expr, SCHEMA)
        assert alts == [
            frozenset({"Address", "Category"}),
            frozenset({"Address", "CategoryName"}),
        ]

    def test_star_is_single_alternative(self):
        assert eval_subset_expr(Star(), SCHEMA) == [frozenset(SCHEMA)]

    def test_difference_keeps_emptied_alternatives(self):
        expr = Combine("-", GlobList(("*Sold",)), GlobList(("Vol*",)))
        assert eval_subset_expr(expr, SCHEMA) == [
            frozenset({"BtlSold"}),
            frozenset(),
        ]

    def test_union_concatenates(self):
        expr = Combine("+", GlobList(("Zip",)), GlobList(("Pack",)))
        assert eval_subset_expr(expr, SCHEMA) == [
            frozenset({"Zip"}),
            frozenset({"Pack"}),
        ]

    def test_star_minus_star_is_one_empty_alternative(self):
        expr = Combine("-", Star(), Star())
        assert eval_subset_expr(expr, SCHEMA) == [frozenset()]

    def test_unmatched_pattern_kills_the_list(self):
        expr = GlobList(("Address", "Nope*"))
        assert eval_subset_expr(expr, SCHEMA) == []

    def test_distinct_picks_only(self):
        expr = GlobList(("Category*", "Category*"))
        alts = eval_subset_expr(expr, SCHEMA)
        assert alts == [frozenset({"Category", "CategoryName"})]

    def test_all_of(self):
        expr = AllOf(GlobList(("Btl*",)))
        assert eval_subset_expr(expr, SCHEMA) == [frozenset({"BtlVol", "BtlSold"})]

    def test_any_of(self):
        expr = AnyOf(GlobList(("Btl*",)))
        assert eval_subset_expr(expr, SCHEMA) == [
            frozenset({"BtlVol"}),
            frozenset({"BtlSold"}),
        ]


class TestParseFdml:
    def test_bare_query(self):
        q = parse_fdml("SELECTDEP * FROM fs")
        assert q == FdmlQuery("star", "fs", None)

    def test_empty_projection_means_star(self):
        assert parse_fdml("SELECTDEP FROM fs").projection == "star"

    def test_pair_projection(self):
        q = parse_fdml("SELECTDEP LHS -> RHS FROM fs")
        assert q.projection == "pairs"

    def test_two_branch_filter(self):
        q = parse_fdml(
            'SELECTDEP LHS -> RHS FROM fs WHERE '
            '(LHS LIKE ({"Address", "Zip"} + {"Address", "Category*"}) '
            'AND RHS LIKE {"Sale", "Date"}) '
            'OR (LHS LIKE {"Vendor"} AND LHS LENGTH = 3 AND RHS LIKE {"*Sold"})'
        )
        assert isinstance(q.where, Or)
        first, second = q.where.items
        assert isinstance(first, And)
        assert isinstance(first.items[0], LhsLike)
        assert isinstance(first.items[1], RhsLike)
        assert second.items[1] == LhsLength("=", 3)

    def test_error_atom(self):
        q = parse_fdml("SELECTDEP * FROM fs WHERE ERROR 0.05")
        assert q.where == ErrorLeq(0.05)

    def test_paren_list_sugar(self):
        q = parse_fdml('SELECTDEP * FROM fs WHERE RHS LIKE ("Sale", "Date")')
        assert q.where == RhsLike(GlobList(("Sale", "Date")))

    def test_two_error_bounds_on_one_path_rejected(self):
        with pytest.raises(ParseError):
            parse_fdml("SELECTDEP * FROM fs WHERE ERROR 0.1 AND ERROR 0.2")
        with pytest.raises(ParseError):
            parse_fdml(
                "SELECTDEP * FROM fs WHERE ERROR 0.1 AND (ERROR 0.2 OR LHS LENGTH = 1)"
            )

    def test_error_bounds_on_separate_branches_allowed(self):
        q = parse_fdml("SELECTDEP * FROM fs WHERE ERROR 0.1 OR ERROR 0.2")
        assert isinstance(q.where, Or)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError, match="col"):
            parse_fdml("SELECTDEP * FROM fs WHERE LHS LIKE")
        with pytest.raises(ParseError):
            parse_fdml("SELECTDEP * FROM")
        with pytest.raises(ParseError):
            parse_fdml("SELECTDEP * FROM fs trailing")

    def test_round_trip_through_text(self):
        text = (
            'SELECTDEP LHS -> RHS FROM fs WHERE '
            '(LHS LIKE ({"Address", "Zip"} + [AND {"Category*"}]) AND ERROR 0.05) '
            'OR LHS LENGTH <= 2'
        )
        q = parse_fdml(text)
        assert parse_fdml(fdml_to_text(q)) == q


class TestEvalFdml:
    def setup_method(self):
        self.fdset = fs(
            e(["Address", "Zip"], "Sale"),
            e(["Address", "Category"], "Date"),
            e(["Zip"], "Pack"),
            e(["Category"], "CategoryName", error=4 / 90),
            e(["BtlVol", "Category", "Vendor"], "BtlSold", error=2 / 90),
        )

    def test_no_filter_returns_all_sorted(self):
        table = eval_fdml(parse_fdml("SELECTDEP * FROM fs"), self.fdset, SCHEMA)
        assert table.columns == ("lhs", "rhs", "error")
        assert [r[:2] for r in table.rows] == [
            ("Category", "CategoryName"),
            ("Zip", "Pack"),
            ("Address, Category", "Date"),
            ("Address, Zip", "Sale"),
            ("BtlVol, Category, Vendor", "BtlSold"),
        ]

    def test_pairs_projection_drops_error(self):
        table = eval_fdml(parse_fdml("SELECTDEP LHS -> RHS FROM fs"), self.fdset, SCHEMA)
        assert table.columns == ("lhs", "rhs")

    def test_lhs_like_means_containment(self):
        q = parse_fdml('SELECTDEP LHS -> RHS FROM fs WHERE LHS LIKE {"Address"}')
        table = eval_fdml(q, self.fdset, SCHEMA)
        assert [r[0] for r in table.rows] == ["Address, Category", "Address, Zip"]

    def test_error_filter_keeps_exact_only(self):
        q = parse_fdml("SELECTDEP LHS -> RHS FROM fs WHERE ERROR 0.0")
        table = eval_fdml(q, self.fdset, SCHEMA)
        assert len(table.rows) == 3

    def test_length_filter(self):
        q = parse_fdml("SELECTDEP LHS -> RHS FROM fs WHERE LHS LENGTH = 3")
        table = eval_fdml(q, self.fdset, SCHEMA)
        assert [r[0] for r in table.rows] == ["BtlVol, Category, Vendor"]

    def test_alternatives_with_glob(self):
        q = parse_fdml(
            'SELECTDEP LHS -> RHS FROM fs WHERE LHS LIKE {"Address", "Category*"}'
        )
        table = eval_fdml(q, self.fdset, SCHEMA)
        assert [r[0] for r in table.rows] == ["Address, Category"]

    def test_subset_expansions_are_pinned(self, iowa, monkeypatch):
        # a deterministic work counter: each LIKE atom expands its set
        # expression once, so going back to one expansion per entry (305
        # here) fails on the count, not on a stopwatch
        calls = []
        real = fdq.fdstore.eval_subset_expr

        def counting(expr, schema):
            calls.append(None)
            return real(expr, schema)

        monkeypatch.setattr(fdq.fdstore, "eval_subset_expr", counting)
        query = parse_fdml(
            "SELECTDEP LHS -> RHS FROM fs WHERE "
            '(LHS LIKE ({"Address", "Zip"} + {"Address", "Category*"}) '
            'AND RHS LIKE ("Sale", "Date")) '
            'OR (LHS LIKE ({"Vendor"}) AND LHS LENGTH = 3 AND RHS LIKE ("*Sold"))'
        )
        table = eval_fdml(query, mine_fds(iowa, name="fs"), iowa.attribute_names)
        assert len(calls) == 4
        assert [r[0] for r in table.rows] == [
            "Address, Category", "Address, Category",
            "Address, CategoryName", "Address, CategoryName",
            "Address, Zip", "Address, Zip",
        ]

    def test_schema_defaults_to_entry_universe(self):
        q = parse_fdml("SELECTDEP LHS -> RHS FROM fs WHERE LHS LIKE *")
        # with the full schema no entry covers all eleven attributes
        assert eval_fdml(q, self.fdset, SCHEMA).rows == ()


class TestClosureAndImplication:
    def test_transitive_closure(self):
        chain = fs(e(["A"], "B"), e(["B"], "C"))
        assert attr_closure({"A"}, chain) == {"A", "B", "C"}

    def test_approximate_entries_do_not_fire(self):
        leaky = fs(e(["A"], "B", error=0.1))
        assert attr_closure({"A"}, leaky) == {"A"}

    def test_fixture_key_closure(self, iowa):
        mined = mine_fds(iowa)
        closure = attr_closure({"Zip", "Address"}, mined)
        assert closure == set(SCHEMA)

    def test_unknown_attribute_with_schema(self):
        chain = fs(e(["A"], "B"))
        with pytest.raises(NameResolutionError):
            attr_closure({"Q"}, chain, schema=("A", "B"))

    def test_is_implied(self):
        chain = fs(e(["A"], "B"), e(["B"], "C"))
        assert is_implied(e(["A"], "C"), chain)
        assert not is_implied(e(["C"], "A"), chain)

    def test_implication_needs_exact_query(self):
        chain = fs(e(["A"], "B"))
        with pytest.raises(UnsupportedOperationError):
            is_implied(e(["A"], "C", error=0.5), chain)


class TestDiff:
    def test_reflexive_diff_is_empty(self, iowa):
        mined = mine_fds(iowa)
        assert diff_fdsets(mined, mined) == ((), (), ())

    def test_added_removed_changed(self):
        old = fs(e(["A"], "B"), e(["A"], "C", error=0.1))
        new = fs(e(["A"], "B"), e(["A"], "C", error=0.2), e(["B"], "C"))
        added, removed, changed = diff_fdsets(old, new)
        assert [x.key for x in added] == [(("B",), "C")]
        assert removed == ()
        assert [(a.error, b.error) for a, b in changed] == [(0.1, 0.2)]

    def test_table_mismatch_rejected(self):
        with pytest.raises(ContractError):
            diff_fdsets(fs(table="x"), fs(table="y"))

    def test_diff_after_edit(self, iowa):
        rows = [list(r) for r in iowa.rows]
        rows[7][iowa.attribute("Zip").index] = 51333  # align t8 with t6
        edited = iowa.with_rows(rows)
        before = brute_force_mine(iowa)
        after = brute_force_mine(edited.with_rows(edited.rows))
        added, removed, _ = diff_fdsets(before, after)
        added_keys = {x.key for x in added}
        removed_keys = {x.key for x in removed}
        assert (("Address",), "Zip") in added_keys
        assert added_keys.isdisjoint(removed_keys)


class TestEntriesAndSets:
    def test_entry_validation(self):
        with pytest.raises(ContractError):
            FDEntry((), "A")
        with pytest.raises(ContractError):
            FDEntry(("B", "A"), "C")
        with pytest.raises(ContractError):
            FDEntry(("A",), "A")
        with pytest.raises(ContractError):
            FDEntry(("A",), "B", error=1.0)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ContractError):
            fs(e(["A"], "B"), e(["A"], "B", error=0.1))

    def test_staleness(self, iowa):
        mined = mine_fds(iowa)
        assert not mined.is_stale_for(iowa)
        rows = [list(r) for r in iowa.rows]
        rows[0][0] = "01-01"
        assert mined.is_stale_for(iowa.with_rows(rows))


class TestPersistence:
    def test_round_trip(self, iowa, tmp_path):
        mined = mine_fds(iowa, name="fs", mined_at="2026-08-17T00:00:00Z")
        path = tmp_path / "iowa.fdset"
        save_fdset(mined, path)
        assert load_fdset(path) == mined

    def test_format_shape(self):
        text = dumps_fdset(fs(e(["A"], "B"), name="demo", fingerprint=7))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert '"fdset":"demo"' in lines[0]
        assert '"fingerprint":7' in lines[0]
        assert '"lhs":["A"]' in lines[1]

    def test_import_stamps_origin(self, iowa, tmp_path):
        mined = mine_fds(iowa, name="fs")
        path = tmp_path / "x.fdset"
        save_fdset(mined, path)
        imported = import_fdset(path, name="copy")
        assert imported.name == "copy"
        assert all(x.origin == "imported" for x in imported.entries)
        assert {x.key for x in imported.entries} == {x.key for x in mined.entries}

    def test_external_file_with_minimal_fields(self):
        text = '{"fdset":"ext","table":"t"}\n{"lhs":["A"],"rhs":"B"}\n'
        loaded = loads_fdset(text)
        assert loaded.entries[0].error == 0.0
        assert loaded.entries[0].origin == "imported"

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError, match="line 2"):
            loads_fdset('{"fdset":"x","table":"t"}\nnot json\n')

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"lhs":["A","A"],"rhs":"B"}', "line 3: duplicate attribute"),
            ('{"lhs":["A","B"],"rhs":"B"}', "line 3: trivial dependency"),
            ('{"lhs":["B","A"],"rhs":"C"}', "line 3: repeats the dependency of line 2"),
        ],
    )
    def test_invalid_entry_reports_line(self, entry, message):
        text = '{"fdset":"x","table":"t"}\n{"lhs":["A","B"],"rhs":"C"}\n' + entry
        with pytest.raises(ParseError, match=message):
            loads_fdset(text)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            loads_fdset('{"lhs":["A"],"rhs":"B"}\n')
