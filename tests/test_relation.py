import io
import sys
from decimal import Decimal

import pytest

from fdq.errors import (
    IngestError,
    KindMismatchError,
    NameResolutionError,
    SchemaError,
)
from fdq.relation import (
    And,
    Comparison,
    Not,
    Or,
    Relation,
    TRUE,
    eval_row_predicate,
    load_csv,
)


class TestLoadCsv:
    def test_fixture_kinds(self, iowa):
        kinds = {m.name: m.kind for m in iowa.schema}
        assert kinds == {
            "Date": "text",
            "Address": "text",
            "Zip": "integer",
            "Category": "integer",
            "CategoryName": "text",
            "Vendor": "integer",
            "Pack": "integer",
            "BtlVol": "integer",
            "BtlSold": "integer",
            "Sale": "decimal",
            "VolSold": "decimal",
        }
        assert iowa.row_count == 10
        assert iowa.rows[0][9] == Decimal("50.82")

    def test_mixed_zip_column_falls_back_to_text(self, customers):
        kinds = {m.name: m.kind for m in customers.schema}
        # one alphanumeric postcode forces the whole column to text
        assert kinds["ZIP"] == "text"
        assert customers.rows[0][5] == "07974"
        # all-digit columns lose leading zeros by becoming integers
        assert kinds["CC"] == "integer"
        assert customers.rows[0][0] == 1

    def test_numeric_with_stray_text_cell_is_text(self):
        rel = load_csv(b"A\n1\n2\nx\n")
        assert rel.schema[0].kind == "text"
        assert rel.rows[2][0] == "x"

    def test_decimal_column_with_integer_cells(self):
        rel = load_csv(b"A\n1\n2.5\n")
        assert rel.schema[0].kind == "decimal"
        assert rel.rows[0][0] == Decimal("1")

    def test_header_only_gives_zero_rows(self):
        rel = load_csv(b"A,B\n")
        assert rel.row_count == 0
        assert rel.attribute_names == ("A", "B")

    def test_empty_source_rejected(self):
        with pytest.raises(SchemaError):
            load_csv(b"")

    def test_duplicate_header_rejected(self):
        with pytest.raises(SchemaError):
            load_csv(b"A,A\n1,2\n")

    def test_ragged_row_reports_line(self):
        with pytest.raises(IngestError, match="line 3"):
            load_csv(b"A,B\n1,2\n1\n")

    def test_null_token_becomes_none(self):
        rel = load_csv(b"A,B\n1,\n,x\n")
        assert rel.rows[0] == (1, None)
        assert rel.rows[1] == (None, "x")

    def test_custom_null_token(self):
        rel = load_csv(b"A\nNA\n7\n", null_token="NA")
        assert rel.schema[0].kind == "integer"
        assert rel.rows[0][0] is None

    def test_all_null_column_is_text(self):
        rel = load_csv(b"A\n\n\n")
        assert rel.schema[0].kind == "text"

    def test_no_header_names_columns_positionally(self):
        rel = load_csv(b"1,2\n3,4\n", has_header=False)
        assert rel.attribute_names == ("col0", "col1")
        assert rel.row_count == 2

    def test_accepts_stream(self):
        rel = load_csv(io.BytesIO(b"A\n1\n"))
        assert rel.rows == ((1,),)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() converts integers of any length",
    )
    def test_integer_past_the_conversion_limit_names_its_line(self):
        digits = b"9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(IngestError, match="line 3: integer in 'B'"):
            load_csv(b"A,B\n1,2\n2," + digits + b"\n")

    def test_decimal_exponent_out_of_range_names_its_line(self):
        # the null cell takes the conversion path that keeps None
        with pytest.raises(IngestError, match="line 4: decimal in 'B'"):
            load_csv(b"A,B\n1,2.5\n2,\n3,1e1000000000000000000\n")


class TestFingerprint:
    def test_stable_across_loads(self, data_dir):
        a = load_csv(data_dir / "iowa.csv")
        b = load_csv(data_dir / "iowa.csv")
        assert a.fingerprint == b.fingerprint

    def test_changes_on_cell_edit(self, iowa):
        rows = [list(r) for r in iowa.rows]
        rows[3][2] = 99999
        assert iowa.with_rows(rows).fingerprint != iowa.fingerprint

    def test_changes_on_schema_edit(self):
        a = load_csv(b"A,B\n1,2\n")
        b = load_csv(b"A,C\n1,2\n")
        assert a.fingerprint != b.fingerprint

    def test_equal_decimals_hash_equally(self):
        a = Relation.build("t", [("A", "decimal")], [[Decimal("1.5")]])
        b = Relation.build("t", [("A", "decimal")], [[Decimal("1.50")]])
        assert a.fingerprint == b.fingerprint

    @pytest.mark.parametrize(
        "a, b",
        [
            # past the default context's 28 digits
            ("1.00000000000000000000000000001", "1.00000000000000000000000000002"),
            # below its smallest exponent
            ("1e-9999999", "0"),
            # above its largest exponent, where the default context overflows
            ("1e9999999", "2e9999999"),
        ],
    )
    def test_decimals_are_compared_exactly(self, a, b):
        def fingerprint(value):
            rows = [[Decimal(value)]]
            return Relation.build("t", [("A", "decimal")], rows).fingerprint

        assert fingerprint(a) != fingerprint(b)

    def test_derived_fingerprint_sees_a_29th_digit(self):
        old, new = Decimal("1.00000000000000000000000000001"), Decimal(
            "1.00000000000000000000000000002"
        )
        rows = [[old], [Decimal(2)], [Decimal(3)], [Decimal(4)]]
        parent = Relation.build("t", [("A", "decimal")], rows)
        assert parent.fingerprint
        # one changed row of four: the child's fingerprint is derived
        child = parent.with_rows([[new], *parent.rows[1:]])
        assert "fingerprint" in child.__dict__
        fresh = Relation.build("t", [("A", "decimal")], [[new], *rows[1:]])
        assert child.fingerprint == fresh.fingerprint != parent.fingerprint

    def test_signed_zero_decimals_hash_equally(self):
        # Decimal.normalize keeps the sign of a zero; -0.0 == 0.0
        plain = load_csv(b"A\n0.0\n1.5\n")
        signed = load_csv(b"A\n-0.0\n1.5\n")
        assert plain.rows == signed.rows
        assert plain.fingerprint == signed.fingerprint
        # a child whose fingerprint is derived from its changed row
        rows = [[Decimal("0E+3")], [Decimal(2)], [Decimal(3)], [Decimal(4)]]
        parent = Relation.build("t", [("A", "decimal")], rows)
        assert parent.fingerprint
        child = parent.with_rows([[Decimal("-0.00")], *parent.rows[1:]])
        assert child.__dict__["fingerprint"] == parent.fingerprint

    def test_iowa_fingerprint_is_pinned(self, data_dir):
        # exported dependency sets carry it, so a change would make them stale
        assert load_csv(data_dir / "iowa.csv").fingerprint == 15099278799887765266

    def test_name_does_not_affect_fingerprint(self, data_dir):
        a = load_csv(data_dir / "iowa.csv", name="x")
        b = load_csv(data_dir / "iowa.csv", name="y")
        assert a.fingerprint == b.fingerprint


def test_fingerprint_keeps_cells_apart():
    # a separator byte inside a text cell must not shift a cell boundary
    attributes = [("A", "text"), ("B", "text")]
    a = Relation.build("t", attributes, [["a\x1ftb", "c"], ["x\xff", "y"]])
    b = Relation.build("t", attributes, [["a", "b\x1ftc"], ["x", "\xffy"]])
    assert a.fingerprint != b.fingerprint
    c = Relation.build("t", [("A\x1fB", "text")], [])
    d = Relation.build("t", [("A", "text"), ("B", "text")], [])
    assert c.fingerprint != d.fingerprint


class TestRelation:
    def test_attribute_lookup(self, iowa):
        assert iowa.attribute("Zip").index == 2
        with pytest.raises(NameResolutionError):
            iowa.attribute("Zap")

    def test_build_validates_arity(self):
        with pytest.raises(SchemaError):
            Relation.build("t", [("A", "integer")], [[1, 2]])

    def test_build_validates_kinds(self):
        with pytest.raises(SchemaError):
            Relation.build("t", [("A", "integer")], [["x"]])

    def test_with_rows_passes_on_what_the_edit_left_equal(self):
        parent = Relation.build(
            "t", [("A", "integer"), ("B", "integer")], [(1, 1), (1, 2), (2, 2)]
        )
        # keys start with the bitmask of the attributes; the rest is opaque
        kept = {(0b01, "p"): "kept A", (0b10, "p"): "kept B", (0b11, "s"): 0.5}
        parent.derived.update(kept)
        # row 1 is a new object equal on A; rows 0 and 2 are passed through
        child = parent.with_rows([parent.rows[0], (1, 3), parent.rows[2]])
        assert child == Relation("t", parent.schema, ((1, 1), (1, 3), (2, 2)))
        assert child.derived == {(0b01, "p"): "kept A"}
        assert child.row_numbers is parent.row_numbers
        # an equal value of another type groups the same way
        assert parent.with_rows([(1, 1), (Decimal("1.0"), 2), (2, 2)]).derived == kept
        assert Relation("t", parent.schema, parent.rows).derived == {}


class TestRowPredicates:
    def test_scoped_condition_from_fixture(self, iowa):
        # bottles of at least 750ml that are either category 11200 or SCOTCH
        pred = And((
            Comparison("BtlVol", ">=", 750),
            Or((
                Comparison("Category", "=", 11200),
                Comparison("CategoryName", "=", "SCOTCH"),
            )),
        ))
        assert eval_row_predicate(iowa, pred) == {4, 5, 6, 7}

    def test_single_row_match(self, iowa):
        assert eval_row_predicate(iowa, Comparison("Pack", "=", 6)) == {9}

    def test_true_matches_all(self, iowa):
        assert eval_row_predicate(iowa, TRUE) == set(range(10))

    def test_not_complements(self, iowa):
        pred = Comparison("BtlVol", "=", 1000)
        direct = eval_row_predicate(iowa, pred)
        assert eval_row_predicate(iowa, Not(pred)) == set(range(10)) - direct

    def test_text_order_is_codepoint_order(self, iowa):
        hits = eval_row_predicate(iowa, Comparison("Address", "<", "8TH ST W"))
        # digits sort before letters
        assert hits == {3, 9}

    def test_null_never_matches_even_negated_op(self):
        rel = load_csv(b"A,B\n1,\n2,5\n")
        assert eval_row_predicate(rel, Comparison("B", "!=", 5)) == set()
        assert eval_row_predicate(rel, Comparison("B", "=", 5)) == {1}
        # NOT is complement, so the null row reappears
        assert eval_row_predicate(rel, Not(Comparison("B", "=", 5))) == {0}

    def test_unknown_attribute(self, iowa):
        with pytest.raises(NameResolutionError):
            eval_row_predicate(iowa, Comparison("Nope", "=", 1))

    def test_kind_mismatch(self, iowa):
        with pytest.raises(KindMismatchError):
            eval_row_predicate(iowa, Comparison("Address", "<", 10))
        with pytest.raises(KindMismatchError):
            eval_row_predicate(iowa, Comparison("Zip", "=", "50533"))

    def test_decimal_constant_against_integer_column(self, iowa):
        hits = eval_row_predicate(iowa, Comparison("Pack", "<", Decimal("11.5")))
        assert hits == {9}
