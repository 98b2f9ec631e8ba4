import contextlib
import inspect
import io
import pathlib
import re
import sys
import tempfile
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st
from literals import number_literals

import fdq.partition
import fdq.relation
from work import value_id_builds
from fdq.cli import (
    QuitRequested,
    Session,
    main,
    render,
    run_command,
    run_repl,
    run_script,
    split_statements,
)
from fdq.errors import KindMismatchError, NameResolutionError, ParseError
from fdq.fdstore import load_fdset
from fdq.query import execute, parse_extended_select
from fdq.result import ResultTable
from fdq.tokens import tokenize

FIXED_CLOCK = "2026-01-01T00:00:00Z"
REPO = pathlib.Path(__file__).resolve().parent.parent

# rebuilt per Listing-style exploration scripts: mine everything exact,
# then pick determinant families by glob
DEP_QUERY = (
    "SELECTDEP LHS -> RHS FROM fs WHERE "
    '(LHS LIKE ({"Address", "Zip"} + {"Address", "Category*"}) '
    'AND RHS LIKE ("Sale", "Date")) '
    'OR (LHS LIKE ({"Vendor"}) AND LHS LENGTH = 3 AND RHS LIKE ("*Sold"))'
)


def fresh_session(data_dir):
    return Session(data_dir=str(data_dir), clock=lambda: FIXED_CLOCK)


def run(session, *statements):
    outputs = []
    for statement in statements:
        session, out = run_command(session, statement)
        outputs.append(out)
    return outputs


class TestSplitStatements:
    def test_semicolons_and_comments(self):
        text = "LOAD 'a.csv' AS A; -- trailing note\nSELECT * FROM A;\n"
        assert split_statements(text) == ["LOAD 'a.csv' AS A", "SELECT * FROM A"]

    def test_semicolon_inside_quotes(self):
        text = "SELECT * FROM A WHERE [\"x\" = 'a;b'];"
        assert split_statements(text) == ["SELECT * FROM A WHERE [\"x\" = 'a;b']"]

    def test_comment_marker_inside_quotes(self):
        text = "SELECT * FROM A WHERE [\"x\" = '--'];"
        assert split_statements(text) == ["SELECT * FROM A WHERE [\"x\" = '--']"]

    def test_metacommand_line_is_its_own_statement(self):
        text = "SELECT *\nFROM A;\n\\help\nSELECT * FROM B;"
        assert split_statements(text) == [
            "SELECT *\nFROM A",
            "\\help",
            "SELECT * FROM B",
        ]

    def test_unterminated_final_statement_counts(self):
        assert split_statements("SELECT * FROM A") == ["SELECT * FROM A"]

    def test_blank_and_comment_only_input(self):
        assert split_statements("  \n-- nothing here\n") == []


class TestRender:
    TABLE = ResultTable(("name", "n"), (("ada", 1), ("grace", 20)))

    def test_grid(self):
        assert render(self.TABLE, "table") == (
            "name  | n\n"
            "------+---\n"
            "ada   | 1\n"
            "grace | 20\n"
            "(2 rows)"
        )

    def test_grid_empty(self):
        empty = ResultTable(("name", "n"), ())
        assert render(empty, "table") == "name | n\n-----+--\n(0 rows)"

    def test_grid_single_row_footer(self):
        one = ResultTable(("a",), (("x",),))
        assert render(one, "table").endswith("(1 row)")

    def test_csv_uses_crlf_and_quoting(self):
        table = ResultTable(("a", "b"), (("x,y", 'say "hi"'), (None, "plain")))
        assert render(table, "csv") == (
            'a,b\r\n"x,y","say ""hi"""\r\n,plain'
        )

    def test_records(self):
        assert render(self.TABLE, "records") == (
            "name: ada\nn   : 1\n\nname: grace\nn   : 20"
        )

    def test_records_empty(self):
        assert render(ResultTable(("a",), ()), "records") == "(0 rows)"

    def test_decimal_and_none_cells(self):
        table = ResultTable(("v",), ((Decimal("5.10"),), (None,)))
        assert render(table, "csv") == "v\r\n5.10\r\n"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            render(self.TABLE, "html")


class TestBasicStatements:
    def test_load_reports_shape(self, data_dir):
        session = fresh_session(data_dir)
        (out,) = run(session, "LOAD 'iowa.csv' AS IOWA")
        assert out == "loaded IOWA: 10 rows, 11 attributes"
        assert session.relations["IOWA"].name == "IOWA"

    def test_load_unknown_file(self, data_dir):
        with pytest.raises(Exception) as info:
            run(fresh_session(data_dir), "LOAD 'missing.csv' AS X")
        assert "missing.csv" in str(info.value)

    def test_select_renders_in_session_mode(self, data_dir):
        session = fresh_session(data_dir)
        session.output_mode = "csv"
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'SELECT "Address" FROM IOWA WHERE ["Zip" = 52001]',
        )
        assert out == "Address\r\nIOWA ST\r\nELM ST"

    def test_select_scoped_holds_grid(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'SELECT "Category", "BtlVol", "CategoryName" FROM IOWA '
            'WHERE HOLDS ("Category", "BtlVol" -> "CategoryName" '
            'ON ["BtlVol" >= 750] AND (["Category" = 11200] '
            'OR ["CategoryName" = "SCOTCH"]))',
        )
        assert out == (
            "Category | BtlVol | CategoryName\n"
            "---------+--------+-------------\n"
            "11200    | 750    | BOURBON\n"
            "12210    | 750    | SCOTCH\n"
            "12210    | 750    | SCOTCH\n"
            "11200    | 750    | BOURBON\n"
            "(4 rows)"
        )

    def test_unknown_table(self, data_dir):
        with pytest.raises(NameResolutionError):
            run(fresh_session(data_dir), "SELECT * FROM NOPE")

    def test_unknown_statement(self, data_dir):
        with pytest.raises(ParseError):
            run(fresh_session(data_dir), "FROBNICATE 3")

    def test_blank_line_is_a_no_op(self, data_dir):
        session = fresh_session(data_dir)
        assert run(session, "   ") == [""]

    def test_help_lists_statements(self, data_dir):
        (out,) = run(fresh_session(data_dir), "\\help")
        for word in ("LOAD", "MINEFD", "SELECTDEP", "DIFF", "UPDATE", "\\quit"):
            assert word in out

    def test_quit_raises(self, data_dir):
        with pytest.raises(QuitRequested):
            run(fresh_session(data_dir), "\\quit")

    def test_unknown_metacommand(self, data_dir):
        with pytest.raises(ParseError):
            run(fresh_session(data_dir), "\\frob")


class TestMineAndQueryDeps:
    def test_minefd_renders_pairs_without_errors(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
        )
        assert out.startswith("fdset fs: 23 dependencies\n")
        assert out.splitlines()[1] == "lhs          | rhs"
        assert "error" not in out

    def test_minefd_error_column_on_request(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS, ERROR WHERE LHS LENGTH <= 1 FROM IOWA",
        )
        assert out.splitlines()[1].endswith("| error")

    def test_minefd_error_column_when_approximate(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 "
            "FROM IOWA ERROR 0.05",
        )
        assert "| error" in out.splitlines()[1]
        assert "0.044444444444444446" in out

    def test_exact_mine_then_dependency_query(self, data_dir):
        # the address determinant family is the whole answer: rows 5 and 8
        # agree on (BtlVol, Category, Vendor) yet differ in both sold
        # figures, so no three-attribute determinant with Vendor survives
        session = fresh_session(data_dir)
        _, _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS FROM IOWA",
            DEP_QUERY,
        )
        assert out == (
            "lhs                   | rhs\n"
            "----------------------+-----\n"
            "Address, Category     | Date\n"
            "Address, Category     | Sale\n"
            "Address, CategoryName | Date\n"
            "Address, CategoryName | Sale\n"
            "Address, Zip          | Date\n"
            "Address, Zip          | Sale\n"
            "(6 rows)"
        )

    def test_selectdep_star_carries_error_column(self, data_dir):
        session = fresh_session(data_dir)
        _, _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
            "SELECTDEP * FROM fs WHERE RHS LIKE (\"Pack\")",
        )
        lines = out.splitlines()
        assert lines[0] == "lhs          | rhs  | error"
        assert lines[-1] == "(7 rows)"

    def test_selectdep_unknown_set(self, data_dir):
        with pytest.raises(NameResolutionError):
            run(fresh_session(data_dir), "SELECTDEP * FROM nope")

    def test_minefd_needs_loaded_table(self, data_dir):
        with pytest.raises(NameResolutionError):
            run(fresh_session(data_dir), "MINEFD fs AS SELECT LHS -> RHS FROM IOWA")


class TestUpdateAndStaleness:
    def test_update_reports_row_count(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'UPDATE IOWA SET "Zip" = 51333 WHERE ["Address" = "HWY 71"]',
        )
        assert out == "updated 2 rows in IOWA"
        zips = {row[2] for row in session.relations["IOWA"].rows}
        assert 51331 not in zips

    def test_update_without_where_touches_all_rows(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session, "LOAD 'iowa.csv' AS IOWA", 'UPDATE IOWA SET "Pack" = 6'
        )
        assert out == "updated 10 rows in IOWA"
        assert {row[6] for row in session.relations["IOWA"].rows} == {6}

    def test_update_coerces_int_literal_into_decimal_column(self, data_dir):
        session = fresh_session(data_dir)
        run(session, "LOAD 'iowa.csv' AS IOWA", 'UPDATE IOWA SET "Sale" = 5')
        assert session.relations["IOWA"].rows[0][9] == Decimal(5)

    def test_update_null_literal(self, data_dir):
        session = fresh_session(data_dir)
        run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'UPDATE IOWA SET "Date" = NULL WHERE ["Zip" = 52001]',
        )
        assert session.relations["IOWA"].rows[1][0] is None

    def test_update_rejects_wrong_kind(self, data_dir):
        session = fresh_session(data_dir)
        run(session, "LOAD 'iowa.csv' AS IOWA")
        with pytest.raises(KindMismatchError):
            run(session, 'UPDATE IOWA SET "Pack" = "a dozen"')

    def test_update_makes_dependent_fdsets_stale(self, data_dir):
        session = fresh_session(data_dir)
        outputs = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
            "SELECTDEP LHS -> RHS FROM fs WHERE RHS LIKE (\"Pack\")",
            'UPDATE IOWA SET "Zip" = 51333 WHERE ["Address" = "HWY 71"]',
            "SELECTDEP LHS -> RHS FROM fs WHERE RHS LIKE (\"Pack\")",
        )
        assert not outputs[2].startswith("warning:")
        assert outputs[4].startswith(
            "warning: fdset 'fs' is stale: table 'IOWA' has changed"
        )
        # the stale set still answers, after the warning line
        assert outputs[4].splitlines()[1:] == outputs[2].splitlines()

    def test_update_past_the_28th_digit_makes_fdsets_stale(self, tmp_path):
        (tmp_path / "t.csv").write_text(
            "A,B\n1,1.00000000000000000000000000001\n2,3.5\n", encoding="utf-8"
        )
        session = Session(data_dir=str(tmp_path), clock=lambda: FIXED_CLOCK)
        *_, out = run(
            session,
            "LOAD 't.csv' AS T",
            "MINEFD fs AS SELECT LHS -> RHS FROM T",
            'UPDATE T SET "B" = 1.00000000000000000000000000002 WHERE ["A" = 1]',
            "SELECTDEP LHS -> RHS FROM fs",
        )
        assert out.startswith("warning: fdset 'fs' is stale")

    def test_update_of_a_signed_zero_to_zero_keeps_fdsets_fresh(self, tmp_path):
        # -0.0 == 0.0, so no value changed
        (tmp_path / "t.csv").write_text("A,C\n1,-0.0\n2,1.5\n", encoding="utf-8")
        session = Session(data_dir=str(tmp_path), clock=lambda: FIXED_CLOCK)
        *_, out = run(
            session,
            "LOAD 't.csv' AS T",
            "MINEFD fs AS SELECT LHS -> RHS FROM T",
            'UPDATE T SET "C" = 0.0 WHERE ["C" = 0.0]',
            "SELECTDEP LHS -> RHS FROM fs",
        )
        assert not session.relations["T"].rows[0][1].is_signed()
        assert not out.startswith("warning:")

    # negative decimals past the 28th digit keep every digit
    LONG_C = "C\n-1\n-1.00000000000000000000000000001\n1.00000000000000000000000000001\n"

    def test_negative_literal_past_the_28th_digit_selects_its_own_row(self, tmp_path):
        (tmp_path / "n.csv").write_text(self.LONG_C, encoding="utf-8")
        session = Session(data_dir=str(tmp_path), clock=lambda: FIXED_CLOCK)
        session, _ = run_command(session, "LOAD 'n.csv' AS N")
        relation = session.relations["N"]
        statement = parse_extended_select(
            'SELECT * FROM N WHERE ["C" = -1.00000000000000000000000000001]'
        )
        assert execute(statement, relation).rows == (
            (Decimal("-1.00000000000000000000000000001"),),
        )

    def test_update_writes_a_negative_literal_exactly(self, tmp_path):
        (tmp_path / "n.csv").write_text(self.LONG_C, encoding="utf-8")
        session = Session(data_dir=str(tmp_path), clock=lambda: FIXED_CLOCK)
        run(
            session,
            "LOAD 'n.csv' AS N",
            'UPDATE N SET "C" = -1.00000000000000000000000000002 '
            'WHERE ["C" = 1.00000000000000000000000000001]',
        )
        value = session.relations["N"].rows[2][0]
        assert str(value) == "-1.00000000000000000000000000002"

    def test_repair_shows_up_in_diff(self, data_dir):
        # fixing the zip typo gives the street a single zip, so the
        # one-attribute determinant appears in the re-mined set
        session = fresh_session(data_dir)
        outputs = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD before AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
            'UPDATE IOWA SET "Zip" = 51333 WHERE ["Address" = "HWY 71"]',
            "MINEFD after AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
            "DIFF before after",
        )
        assert outputs[4] == (
            "added (1):\n"
            "  Address -> Zip\n"
            "removed (0):\n"
            "error changed (0):"
        )


class TestSnapshotWork:
    """Deterministic work counters for the table fingerprint: the rows each
    statement hashes, counted by wrapping the per-row digest."""

    @pytest.fixture()
    def hashed(self, monkeypatch):
        rows = []
        real = fdq.relation._row_digest

        def counting(index, row):
            rows.append(index)
            return real(index, row)

        monkeypatch.setattr(fdq.relation, "_row_digest", counting)
        return rows

    def test_rows_hashed_per_statement(self, data_dir, hashed):
        session = fresh_session(data_dir)
        run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack")',
            'SELECT * FROM IOWA WHERE "Address" VIOLATES ("Address", "Vendor" -> "Zip")',
            'SELECT DEPENDENT (["Address"]) FROM IOWA',
        )
        assert hashed == []  # nothing has read the fingerprint yet

        run(session, "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA")
        assert sorted(hashed) == list(range(10))

        hashed.clear()
        outputs = run(
            session,
            'UPDATE IOWA SET "Zip" = 51333 WHERE ["Address" = "HWY 71"]',
            "SELECTDEP * FROM fs",
        )
        assert outputs[0] == "updated 2 rows in IOWA"
        assert len(hashed) <= 2 * 2
        assert outputs[1].startswith("warning: fdset 'fs' is stale")

        hashed.clear()
        outputs = run(
            session,
            "MINEFD after AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
            "SELECTDEP * FROM after",
            "SELECTDEP * FROM fs",
        )
        assert hashed == []
        assert not outputs[1].startswith("warning:")
        assert outputs[2].startswith("warning: fdset 'fs' is stale")

    def test_update_of_most_rows_leaves_the_fingerprint_lazy(self, data_dir, hashed):
        session = fresh_session(data_dir)
        run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
        )
        hashed.clear()
        assert run(session, 'UPDATE IOWA SET "Zip" = 51333') == [
            "updated 10 rows in IOWA"
        ]
        assert hashed == []  # deriving would cost 2 digests per row
        outputs = run(session, "SELECTDEP * FROM fs")
        assert sorted(hashed) == list(range(10))
        assert outputs[0].startswith("warning: fdset 'fs' is stale")


class TestPartitionWork:
    """Deterministic work counters for the partitions a snapshot keeps: the
    attributes grouped per statement, counted by wrapping `pli_of`, the one
    function that groups rows, which builds every partition not kept yet."""

    @pytest.fixture()
    def built(self, monkeypatch):
        attrs = []
        real = fdq.partition.pli_of

        def counting(relation, attribute):
            attrs.append((relation.attribute_names[attribute],))
            return real(relation, attribute)

        monkeypatch.setattr(fdq.partition, "pli_of", counting)
        return attrs

    @pytest.fixture()
    def coded(self, monkeypatch):
        return value_id_builds(monkeypatch)

    def test_holds_then_not_holds_groups_each_column_once(self, data_dir, built):
        session = fresh_session(data_dir)
        run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'SELECT * FROM IOWA WHERE HOLDS ("Address", "Vendor" -> "Zip")',
            'SELECT * FROM IOWA WHERE NOT HOLDS ("Address", "Vendor" -> "Zip")',
            'SELECT * FROM IOWA WHERE NOT HOLDS ("Vendor" -> "Zip" ON ["Pack" = 12])',
        )
        # the witnesses read Zip's values, so Zip is never grouped
        assert built == [("Address",), ("Vendor",)]

    @pytest.mark.parametrize("on", ["", ' ON ["Sale" < 200]'], ids=["whole", "scoped"])
    def test_approximate_holds_groups_x_and_a_once(self, data_dir, built, coded, on):
        session = fresh_session(data_dir)
        statement = (
            'SELECT "Category" FROM IOWA WHERE '
            f'HOLDS ("Category" -> "CategoryName"{on}, ERROR = 0.05)'
        )
        first = run(session, "LOAD 'iowa.csv' AS IOWA", statement)[1]
        # the witnesses and the error read CategoryName's value ids, built
        # once, so only Category is grouped
        assert built == [("Category",)]
        assert [name for _, name in coded] == ["CategoryName", "Category"]
        built.clear()
        coded.clear()
        assert run(session, statement) == [first]
        assert built == coded == []

    def test_update_keeps_the_partitions_it_leaves_equal(self, data_dir, built):
        session = fresh_session(data_dir)
        mine = "MINEFD {} AS SELECT LHS -> RHS WHERE LHS LENGTH <= 2 FROM IOWA"
        run(session, "LOAD 'iowa.csv' AS IOWA", mine.format("before"))
        assert len(built) == 11
        built.clear()
        run(
            session,
            'UPDATE IOWA SET "Zip" = 51333 WHERE ["Address" = \'HWY 71\']',
            'UPDATE IOWA SET "Pack" = 12 WHERE ["Pack" = 12]',  # same values
            mine.format("after"),
        )
        assert built == [("Zip",)]


class TestImportExport:
    def test_round_trip(self, data_dir, tmp_path):
        session = fresh_session(data_dir)
        target = tmp_path / "fs.fdset"
        outputs = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA",
            f"EXPORT fs TO '{target}'",
            f"IMPORT '{target}' AS copy",
        )
        assert outputs[2] == f"exported fs to {target}"
        assert outputs[3] == (
            "imported copy: 23 dependencies (bound to table 'IOWA')"
        )
        copy = session.fdsets["copy"]
        assert copy.name == "copy"
        assert {e.key for e in copy.entries} == {
            e.key for e in session.fdsets["fs"].entries
        }
        assert all(e.origin == "imported" for e in copy.entries)

    def test_export_unknown_set(self, data_dir, tmp_path):
        with pytest.raises(NameResolutionError):
            run(fresh_session(data_dir), f"EXPORT nope TO '{tmp_path}/x'")

    def test_exports_are_thread_count_invariant(self, data_dir, tmp_path):
        blobs = []
        for threads in (1, 2, 8):
            session = fresh_session(data_dir)
            session.threads = threads
            target = tmp_path / f"fs{threads}.fdset"
            run(
                session,
                "LOAD 'iowa.csv' AS IOWA",
                "MINEFD fs AS SELECT LHS -> RHS FROM IOWA ERROR 0.05",
                f"EXPORT fs TO '{target}'",
            )
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        assert load_fdset(tmp_path / "fs1.fdset").mined_at == FIXED_CLOCK

    HEADER = '{"fdset":"fs","table":"IOWA","fingerprint":7,"mined_at":""}'

    def test_diff_reports_any_error_change(self, tmp_path):
        # errors round-trip exactly, so the smallest change is a change
        for name, error in (("old", "0.1"), ("new", "0.1000000000001")):
            (tmp_path / f"{name}.fdset").write_text(
                f'{self.HEADER}\n{{"lhs":["Zip"],"rhs":"Pack","error":{error}}}\n',
                encoding="utf-8",
            )
        outputs = run(
            fresh_session(tmp_path),
            "IMPORT 'old.fdset' AS old",
            "IMPORT 'new.fdset' AS new",
            "DIFF old new",
        )
        assert outputs[2] == (
            "added (0):\n"
            "removed (0):\n"
            "error changed (1):\n"
            "  Zip -> Pack: 0.1 -> 0.1000000000001"
        )

    @pytest.mark.parametrize(
        "header, entry",
        [
            (HEADER, '{"lhs":["Zip"],"rhs":"Pack","error":"oops"}'),
            (
                '{"fdset":"fs","table":"IOWA","fingerprint":"abc","mined_at":""}',
                '{"lhs":["Zip"],"rhs":"Pack","error":0.0}',
            ),
            (HEADER, '{"lhs":"AB","rhs":"Pack","error":0.0}'),
            (HEADER, '{"lhs":["Zip"],"rhs":3,"error":0.0}'),
        ],
        ids=[
            "error-not-a-number",
            "fingerprint-not-an-int",
            "lhs-a-string",
            "rhs-not-a-string",
        ],
    )
    def test_malformed_fdset_is_a_user_error(self, tmp_path, capsys, header, entry):
        (tmp_path / "bad.fdset").write_text(f"{header}\n{entry}\n", encoding="utf-8")
        code = main(
            ["exec", "--data-dir", str(tmp_path), "-c", "IMPORT 'bad.fdset' AS fs;"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "internal error" not in err

    def test_export_into_missing_directory_is_a_user_error(
        self, data_dir, tmp_path, capsys
    ):
        target = tmp_path / "missing_dir" / "f.fdset"
        code = main(
            [
                "exec",
                "--data-dir",
                str(data_dir),
                "-c",
                "LOAD 'iowa.csv' AS IOWA; "
                "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA; "
                f"EXPORT fs TO '{target}';",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "internal error" not in err
        assert str(target) in err

    def test_deeply_nested_fdset_line_is_a_user_error(self, tmp_path, capsys):
        (tmp_path / "deep.fdset").write_text(
            f"{self.HEADER}\n{'[' * 100000}\n", encoding="utf-8"
        )
        code = main(
            ["exec", "--data-dir", str(tmp_path), "-c", "IMPORT 'deep.fdset' AS fs;"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "statement, content",
        [
            ("IMPORT '{}' AS fs;", None),
            ("IMPORT '{}' AS fs;", b"\xff\xfe{}\n"),
            ("LOAD '{}' AS T;", None),
        ],
        ids=["missing", "not-utf8", "load-missing"],
    )
    def test_unreadable_import_is_a_user_error(
        self, tmp_path, capsys, statement, content
    ):
        target = tmp_path / "in.file"
        if content is not None:
            target.write_bytes(content)
        code = main(["exec", "-c", statement.format(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert "internal error" not in err
        assert err.count(str(target)) == 1


class TestExplain:
    def test_explain_notes_predicate_order(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'EXPLAIN SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack") '
            'AND "BtlVol" >= 750',
        )
        assert out.splitlines() == [
            'statement: SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack") '
            'AND "BtlVol" >= 750',
            '  evaluate HOLDS ("Zip" -> "Pack") against the whole table',
            "note: dependency predicates run first; row filters combine "
            "with their results by set algebra, so written order is immaterial",
        ]

    def test_explain_plain_filter(self, data_dir):
        session = fresh_session(data_dir)
        _, out = run(
            session,
            "LOAD 'iowa.csv' AS IOWA",
            'EXPLAIN SELECT * FROM IOWA WHERE ["Pack" = 12]',
        )
        assert out.endswith("note: plain row filters only")

    def test_error_column_counts_from_the_typed_statement(self, data_dir):
        session = fresh_session(data_dir)
        run(session, "LOAD 'iowa.csv' AS IOWA")
        statement = 'EXPLAIN SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack" FOO)'
        with pytest.raises(ParseError, match="^col 57: ") as info:
            run_command(session, statement)
        assert info.value.pos == statement.index("FOO") + 1


class TestScriptsAndRepl:
    SCRIPT = (
        "LOAD 'iowa.csv' AS IOWA;\n"
        "MINEFD fs AS SELECT LHS -> RHS WHERE LHS LENGTH <= 1 FROM IOWA;\n"
        "SELECTDEP LHS -> RHS FROM fs WHERE RHS LIKE (\"Pack\");\n"
    )

    def test_run_script_prints_outputs(self, data_dir, capsys):
        assert run_script(fresh_session(data_dir), self.SCRIPT) == 0
        out = capsys.readouterr().out
        assert out.startswith("loaded IOWA: 10 rows, 11 attributes\n")
        assert out.rstrip().endswith("(7 rows)")

    def test_replay_is_byte_identical(self, data_dir):
        transcripts = []
        for _ in range(2):
            sink = io.StringIO()
            code = run_repl(
                fresh_session(data_dir), stdin=io.StringIO(self.SCRIPT), out=sink
            )
            assert code == 0
            transcripts.append(sink.getvalue())
        assert transcripts[0] == transcripts[1]

    # a ';' inside a comment ends nothing, and a comment after a ';' leaves
    # the statement before it complete, in a script and at the prompt alike
    INLINE = {
        "comment-semicolon": (
            "LOAD 'iowa.csv' AS IOWA;\n"
            'SELECT "Zip" FROM IOWA -- only pack 12;\n'
            'WHERE ["Pack" = 12];\n',
            "(9 rows)",
        ),
        "comment-after-semicolon": (
            "LOAD 'iowa.csv' AS IOWA; -- the fixture\n"
            'SELECT "Pack" FROM IOWA WHERE ["Pack" = 6];\n',
            "(1 row)",
        ),
    }

    @pytest.mark.parametrize("script", ["explore", "repair", *INLINE])
    def test_exec_and_repl_print_the_same_transcript(
        self, script, data_dir, tmp_path, capsys
    ):
        if script in self.INLINE:
            (text, last), base = self.INLINE[script], data_dir
        else:
            text = (REPO / "demos" / f"{script}.fdq").read_text(encoding="utf-8")
            text = text.replace("iowa-after.fdset", str(tmp_path / "after.fdset"))
            last, base = "", REPO
        executed = io.StringIO()
        assert run_script(fresh_session(base), text, out=executed) == 0
        assert capsys.readouterr().err == ""
        typed = io.StringIO()
        assert run_repl(fresh_session(base), stdin=io.StringIO(text), out=typed) == 0
        assert typed.getvalue() == executed.getvalue()
        assert executed.getvalue().rstrip().endswith(last)

    def test_script_stops_at_first_error(self, data_dir, capsys):
        text = "LOAD 'missing.csv' AS X;\nLOAD 'iowa.csv' AS IOWA;\n"
        assert run_script(fresh_session(data_dir), text) == 1
        captured = capsys.readouterr()
        assert "missing.csv" in captured.err
        assert "loaded" not in captured.out

    def test_script_quit_exits_cleanly(self, data_dir, capsys):
        assert run_script(fresh_session(data_dir), "\\quit\nLOAD 'x' AS X;") == 0
        assert capsys.readouterr().err == ""

    def test_repl_continues_after_errors(self, data_dir):
        sink = io.StringIO()
        stdin = io.StringIO(
            "SELECT * FROM NOPE;\nLOAD 'iowa.csv' AS IOWA;\n\\quit\n"
        )
        assert run_repl(fresh_session(data_dir), stdin=stdin, out=sink) == 0
        lines = sink.getvalue().splitlines()
        assert lines[0] == "error: no loaded table named 'NOPE'"
        assert lines[1] == "loaded IOWA: 10 rows, 11 attributes"

    def test_repl_multiline_statement(self, data_dir):
        sink = io.StringIO()
        stdin = io.StringIO(
            "LOAD 'iowa.csv' AS IOWA;\nSELECT \"Address\"\nFROM IOWA\n"
            "WHERE [\"Zip\" = 52001];\n"
        )
        assert run_repl(fresh_session(data_dir), stdin=stdin, out=sink) == 0
        assert sink.getvalue().rstrip().endswith("(2 rows)")

    def test_repl_flushes_unterminated_statement_at_eof(self, data_dir):
        sink = io.StringIO()
        stdin = io.StringIO("LOAD 'iowa.csv' AS IOWA")
        assert run_repl(fresh_session(data_dir), stdin=stdin, out=sink) == 0
        assert "loaded IOWA" in sink.getvalue()

    def test_repl_statement_after_semicolon_on_same_line(self, data_dir):
        sink = io.StringIO()
        stdin = io.StringIO("LOAD 'iowa.csv' AS IOWA; SELECT \"Pack\"\nFROM IOWA;\n")
        assert run_repl(fresh_session(data_dir), stdin=stdin, out=sink) == 0
        assert "(10 rows)" in sink.getvalue()

    def test_repl_interrupt_cancels_the_statement_not_the_session(
        self, data_dir, monkeypatch
    ):
        import fdq.cli as cli_module

        real = cli_module.run_command
        interrupts = []

        def interrupt_first_select(session, line):
            if line.startswith("SELECT") and not interrupts:
                interrupts.append(line)
                raise KeyboardInterrupt
            return real(session, line)

        monkeypatch.setattr(cli_module, "run_command", interrupt_first_select)
        sink = io.StringIO()
        stdin = io.StringIO(
            "LOAD 'iowa.csv' AS IOWA;\n"
            'SELECT "Pack" FROM IOWA;\n'
            'SELECT "Address" FROM IOWA WHERE ["Zip" = 52001];\n'
        )
        assert run_repl(fresh_session(data_dir), stdin=stdin, out=sink) == 0
        lines = sink.getvalue().splitlines()
        assert lines[:2] == ["loaded IOWA: 10 rows, 11 attributes", "cancelled"]
        assert lines[-1] == "(2 rows)"  # IOWA survived the cancelled statement

    def test_repl_interrupt_while_reading_drops_the_pending_statement(self, data_dir):
        class InterruptedStdin:
            lines = [
                "LOAD 'iowa.csv' AS IOWA;\n",
                'SELECT "Pack"\n',
                None,  # Ctrl-C half way through the statement
                'SELECT "Address" FROM IOWA WHERE ["Zip" = 52001];\n',
            ]

            def readline(self):
                line = self.lines.pop(0) if self.lines else ""
                if line is None:
                    raise KeyboardInterrupt
                return line

        sink = io.StringIO()
        assert run_repl(fresh_session(data_dir), stdin=InterruptedStdin(), out=sink) == 0
        lines = sink.getvalue().splitlines()
        assert lines[:2] == ["loaded IOWA: 10 rows, 11 attributes", "cancelled"]
        assert lines[2] == "Address"
        assert lines[-1] == "(2 rows)"


class TestMain:
    def test_exec_command(self, data_dir, capsys):
        code = main(
            [
                "exec",
                "--data-dir",
                str(data_dir),
                "-c",
                "LOAD 'iowa.csv' AS IOWA; SELECT \"Pack\" FROM IOWA;",
            ]
        )
        assert code == 0
        assert "(10 rows)" in capsys.readouterr().out

    def test_exec_file(self, data_dir, tmp_path, capsys):
        script = tmp_path / "s.fdq"
        script.write_text("LOAD 'iowa.csv' AS IOWA;\n", encoding="utf-8")
        assert main(["exec", "--data-dir", str(data_dir), "-f", str(script)]) == 0
        assert "loaded IOWA" in capsys.readouterr().out

    def test_minefd_over_a_decimal_past_the_default_exponents(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("A,B\n1,1e9999999\n2,3.5\n", encoding="utf-8")
        script = "LOAD 't.csv' AS T; MINEFD fs AS SELECT LHS -> RHS FROM T;"
        assert main(["exec", "--data-dir", str(tmp_path), "-c", script]) == 0
        assert "fdset fs: 2 dependencies" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "statement, number",
        [
            ('UPDATE T SET "A" = {}', "9" * 5000),
            (
                "MINEFD g AS SELECT LHS -> RHS FROM T ERROR {}",
                "1e1000000000000000000",
            ),
        ],
        ids=["integer-digits", "decimal-exponent"],
    )
    def test_number_out_of_range_is_a_parse_error(self, statement, number):
        if len(number) > 1000 and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("int() converts integers of any length")
        text = statement.format(number)
        with pytest.raises(ParseError, match="number out of range") as caught:
            run_command(Session(), text)
        assert caught.value.pos == text.index(number) + 1

    def test_exec_missing_script_file(self, capsys):
        assert main(["exec", "-f", "/nonexistent/x.fdq"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"a,b\n\xff,1\n", b"a,b\n" + b"x" * 131073 + b",1\n"],
        ids=["not-utf8", "field-over-limit"],
    )
    def test_unparsable_csv_is_a_user_error(self, tmp_path, capsys, content):
        (tmp_path / "t.csv").write_bytes(content)
        code = main(
            ["exec", "--data-dir", str(tmp_path), "-c", "LOAD 't.csv' AS T;"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "t.csv" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_rejected_up_front(self, data_dir, capsys, threads):
        code = main(
            [
                "exec", "--threads", threads, "--data-dir", str(data_dir),
                "-c", "LOAD 'iowa.csv' AS IOWA;",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "--threads" in captured.err
        assert "loaded" not in captured.out

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT * FROM T WHERE " + "(" * 5000,
            "SELECT * FROM T WHERE " + "NOT " * 5000 + '"A" = 1',
            'UPDATE T SET "A" = 1 WHERE ' + "NOT " * 5000 + '"A" = 1',
            "SELECTDEP * FROM fs WHERE " + "(" * 5000,
            "MINEFD fs AS SELECT LHS -> RHS WHERE " + "(" * 5000,
        ],
        ids=["select-parens", "select-not-chain", "update-not-chain",
             "selectdep-parens", "minefd-parens"],
    )
    def test_deep_nesting_is_a_user_error(self, capsys, statement):
        assert main(["exec", "-c", statement]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal error" not in err

    @pytest.mark.parametrize(
        "statement",
        [
            'SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack", ERROR = 1e400)',
            'EXPLAIN SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack", ERROR = 1e400)',
            'SELECT * FROM IOWA WHERE "Address" VIOLATES '
            '("Address" -> "Zip", ERROR <= 1e400)',
            'SELECT DEPENDENT (["Zip"], ERROR = 1e400) FROM IOWA',
            "SELECTDEP * FROM fs WHERE ERROR 1e400",
            "MINEFD fs AS SELECT LHS -> RHS FROM IOWA ERROR 1e400",
            'SELECT * FROM IOWA WHERE HOLDS ("Zip" -> "Pack", ERROR = 1' + "0" * 400 + ")",
        ],
        ids=["holds", "explain", "violates", "dependent", "selectdep", "minefd",
             "integer"],
    )
    def test_bound_past_the_float_range_is_a_user_error(
        self, data_dir, capsys, statement
    ):
        # such a bound would print as `inf`, which does not parse back
        code = main(
            [
                "exec", "--data-dir", str(data_dir),
                "-c", f"LOAD 'iowa.csv' AS IOWA; MINEFD fs AS SELECT LHS -> RHS "
                f"FROM IOWA; {statement};",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "too large" in err

    def test_violates_bound_past_one_flags_every_sibling(self, data_dir, capsys):
        outputs = []
        for bound in ("1.0", "1e308"):
            code = main(
                [
                    "exec", "--data-dir", str(data_dir),
                    "-c", "LOAD 'iowa.csv' AS IOWA; SELECT * FROM IOWA WHERE "
                    f'"Address" VIOLATES ("Address" -> "Zip", ERROR <= {bound});',
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].rstrip().endswith("(4 rows)")

    @pytest.mark.parametrize(
        "on", ["", ' ON ["Pack" >= 12]', ' ON ["Pack" > 100000]'],
        ids=["whole-table", "scoped", "empty-scope"],
    )
    def test_holds_bound_outside_the_range_is_a_user_error(self, data_dir, capsys, on):
        code = main(
            [
                "exec", "--data-dir", str(data_dir),
                "-c", "LOAD 'iowa.csv' AS IOWA; SELECT \"Zip\" FROM IOWA WHERE "
                f'HOLDS ("Address" -> "Zip"{on}, ERROR = 1.5);',
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error bound 1.5 outside [0, 1)" in captured.err
        assert "rows)" not in captured.out

    def test_exec_user_error_is_code_1(self, capsys):
        assert main(["exec", "-c", "SELECT * FROM NOPE;"]) == 1
        assert "error: no loaded table" in capsys.readouterr().err

    def test_internal_error_is_code_2(self, data_dir, capsys, monkeypatch):
        import fdq.cli as cli_module

        def boom(session, line):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli_module._HANDLERS, "LOAD", boom)
        assert main(["exec", "-c", "LOAD 'x' AS Y;"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_output_flag(self, data_dir, capsys):
        code = main(
            [
                "exec",
                "--data-dir",
                str(data_dir),
                "--output",
                "csv",
                "-c",
                "LOAD 'iowa.csv' AS IOWA; SELECT \"Address\" FROM IOWA "
                'WHERE ["Zip" = 52001];',
            ]
        )
        assert code == 0
        assert "Address\r\nIOWA ST\r\nELM ST\n" in capsys.readouterr().out

    def test_null_flag(self, tmp_path, capsys):
        csv_file = tmp_path / "t.csv"
        csv_file.write_text("a,b\nNA,1\nx,2\n", encoding="utf-8")
        code = main(
            [
                "exec",
                "--data-dir",
                str(tmp_path),
                "--null",
                "NA",
                "--output",
                "records",
                "-c",
                "LOAD 't.csv' AS T; SELECT * FROM T;",
            ]
        )
        assert code == 0
        assert "a: \nb: 1" in capsys.readouterr().out

    def test_data_dir_from_environment(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("FDQ_DATA_DIR", str(data_dir))
        assert main(["exec", "-c", "LOAD 'iowa.csv' AS IOWA;"]) == 0
        assert "loaded IOWA" in capsys.readouterr().out


# --- fuzzing: malformed input is a user error, never an internal one --------------

FUZZ_WORDS = (
    "SELECT", "SELECTDEP", "MINEFD", "FROM", "WHERE", "AND", "OR", "NOT",
    "HOLDS", "VIOLATES", "DEPENDENT", "ON", "ERROR", "LHS", "RHS", "LIKE",
    "LENGTH", "AS", "SET", "NULL", "IOWA", "fs",
)
FUZZ_PUNCT = (
    "(", ")", "[", "]", "{", "}", ",", "->", "*", "+", "-",
    "=", "!=", "<", "<=", ">", ">=", ";",
)
FUZZ_LITERALS = (
    '"Zip"', '"Address"', '"Pack"', '"Category*"', '"nope"', "'HWY 71'",
    "0", "1", "-3", "0.05", "750", "1e400",
)
FUZZ_PREFIXES = (
    "SELECT * FROM IOWA WHERE ",
    "SELECTDEP * FROM fs WHERE ",
    "MINEFD g AS SELECT LHS -> RHS WHERE ",
    "UPDATE IOWA SET ",
    "EXPLAIN ",
)
token_soup = st.lists(
    st.sampled_from(FUZZ_WORDS + FUZZ_PUNCT + FUZZ_LITERALS), max_size=14
).map(" ".join)
file_bytes = st.binary(max_size=200) | st.text(
    alphabet='{}[]",:0123456789.-eE abAB\n\r', max_size=200
).map(str.encode)
fuzz = settings(derandomize=True, deadline=None, max_examples=300)
_fuzz_base = []

# valid statements of every kind, run against run_fuzzed's session: the
# demos' statements with their sets renamed to fs (no LOAD, EXPORT or
# IMPORT, which name files), and the kinds the demos leave out
VALID_STATEMENTS = [
    re.sub(r"\b(before|after|small|restored)\b", "fs", statement)
    for name in ("explore", "repair")
    for statement in split_statements(
        (REPO / "demos" / f"{name}.fdq").read_text(encoding="utf-8")
    )
    if statement.split()[0] not in {"LOAD", "EXPORT", "IMPORT"}
] + [
    'SELECT * FROM IOWA WHERE ["Zip" = 51333] OR NOT ["BtlVol" < -3.5e2]',
    'SELECT "Zip" FROM IOWA WHERE HOLDS ("Address" -> "Zip" ON ["Pack" >= 6], '
    "ERROR = 0.05)",
    'SELECT * FROM IOWA WHERE "Address" VIOLATES ("Address" -> "Zip", ERROR <= 0.5)',
    'SELECT DEPENDENT (["Zip"], ERROR = 0.05) FROM IOWA',
    'SELECTDEP * FROM fs WHERE LHS LENGTH = 2 OR ERROR 0.01',
    "MINEFD g AS SELECT LHS -> RHS, ERROR WHERE LHS LENGTH <= 2 FROM IOWA ERROR 0.05",
    'UPDATE IOWA SET "Pack" = 12 WHERE ["Zip" >= 51000] AND NOT ["Pack" = 6]',
    "DIFF fs fs",
]
VALID_TOKENS = [
    [token.text for token in tokenize(statement)[:-1]] for statement in VALID_STATEMENTS
]


@st.composite
def mutated_statements(draw):
    """A valid statement with one token dropped, repeated, swapped with
    another, or replaced by a number literal."""
    tokens = list(draw(st.sampled_from(VALID_TOKENS)))
    i = draw(st.integers(0, len(tokens) - 1))
    mutation = draw(st.sampled_from(("drop", "repeat", "swap", "literal")))
    if mutation == "drop":
        del tokens[i]
    elif mutation == "repeat":
        tokens.insert(i, tokens[i])
    elif mutation == "swap":
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    else:
        tokens[i] = draw(number_literals)
    return " ".join(tokens)


def run_fuzzed(script: str) -> tuple[int, str]:
    """Run a script in a session holding IOWA and the set fs; (code, stderr)."""
    if not _fuzz_base:
        data = pathlib.Path(__file__).resolve().parent.parent / "data"
        base = Session(data_dir=str(data), clock=lambda: FIXED_CLOCK)
        run(base, "LOAD 'iowa.csv' AS IOWA", "MINEFD fs AS SELECT LHS -> RHS FROM IOWA")
        _fuzz_base.append(base)
    base = _fuzz_base[0]
    session = Session(
        relations=dict(base.relations),
        fdsets=dict(base.fdsets),
        data_dir=base.data_dir,
        clock=base.clock,
    )
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_script(session, script, out=io.StringIO())
    return code, err.getvalue()


class TestFuzz:
    @fuzz
    @given(st.sampled_from(FUZZ_PREFIXES), token_soup)
    def test_token_soup_is_never_an_internal_error(self, prefix, soup):
        code, err = run_fuzzed(prefix + soup)
        assert code in (0, 1)
        assert "internal error" not in err

    def test_valid_statements_run(self):
        for statement in VALID_STATEMENTS:
            assert run_fuzzed(statement) == (0, "")

    @fuzz
    @given(mutated_statements())
    def test_mutated_statements_are_never_an_internal_error(self, statement):
        code, err = run_fuzzed(statement)
        assert code in (0, 1)
        assert "internal error" not in err

    @fuzz
    @given(st.sampled_from(("LOAD '{}' AS T;", "IMPORT '{}' AS g;")), file_bytes)
    def test_random_file_bytes_are_never_an_internal_error(self, statement, content):
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "in.file"
            target.write_bytes(content)
            code, err = run_fuzzed(statement.format(target))
        assert code in (0, 1)
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "prefix, opening, leaf",
        [
            ("EXPLAIN SELECT * FROM IOWA WHERE ", 'HOLDS ("Zip" -> "Pack") AND (',
             '"Zip" = 1'),
            ("SELECT * FROM IOWA WHERE ", 'NOT ("Zip" = 1 OR ', '"Zip" = 1'),
            ("SELECTDEP * FROM fs WHERE ", "LHS LENGTH = 9 OR (", "LHS LENGTH = 9"),
        ],
        ids=["explain", "select", "selectdep"],
    )
    def test_deepest_parsable_statement_still_runs(self, prefix, opening, leaf):
        # printing and evaluating a tree must take no more stack per level
        # than parsing it, or the deepest statement that parses would crash.
        # A low recursion limit keeps the statements short, and `extra`
        # frames under the call shift the depth at which parsing gives up.
        def attempt(depth, extra):
            if extra:
                return attempt(depth, extra - 1)
            code, err = run_fuzzed(prefix + opening * depth + leaf + ")" * depth)
            assert code in (0, 1) and "internal error" not in err
            return "nests too deeply" not in err

        run_fuzzed("")  # builds the shared session under the normal limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 300)
        try:
            for extra in range(4):
                parses, too_deep = 1, 300  # each level costs at least a frame
                assert attempt(parses, extra) and not attempt(too_deep, extra)
                while too_deep - parses > 1:
                    middle = (parses + too_deep) // 2
                    if attempt(middle, extra):
                        parses = middle
                    else:
                        too_deep = middle
        finally:
            sys.setrecursionlimit(limit)
