import io
from decimal import Decimal

import pytest

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
from fdq.result import ResultTable

FIXED_CLOCK = "2026-01-01T00:00:00Z"

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
