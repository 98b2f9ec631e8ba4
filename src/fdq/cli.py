"""Command front end: a tiny REPL and batch runner over the engine.

One session holds named relations and named dependency sets. Statements
load CSV files, mine dependencies, query either kind of object, diff and
exchange dependency sets, and patch table values in place. All output is
rendered deterministically so a replayed script produces identical bytes.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from decimal import Decimal
from functools import partial
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import Iterable, Sequence

from .errors import (
    FdqError,
    KindMismatchError,
    NameResolutionError,
    ParseError,
)
from .fdstore import (
    FDEntry,
    FDSet,
    FdmlQuery,
    diff_fdsets,
    eval_fdml,
    import_fdset,
    parse_fdml,
    save_fdset,
)
from .miner import execute_minefd, parse_minefd
from .query import (
    execute,
    explain_select,
    parse_extended_select,
    parse_literal,
    parse_row_condition,
)
from .relation import (
    DECIMAL,
    Relation,
    Value,
    eval_row_predicate,
    holds_kind,
    load_csv,
)
from .result import ResultTable, format_cell
from .tokens import COMMENT, STRING, TokenStream, statement_parser

OUTPUT_MODES = ("table", "csv", "records")

HELP_TEXT = """\
statements end with ';' (metacommands do not):
  LOAD '<path>' AS <table>                      read a CSV file into the session
  MINEFD <fs> AS SELECT LHS -> RHS [, ERROR]
         [WHERE <LHS/RHS filters>] FROM <table>
         [ERROR <bound>]                        mine dependencies into a named set
  SELECTDEP ... FROM <fs>                       query a dependency set
  SELECT ... FROM <table> [WHERE ...]           query rows; WHERE may use HOLDS,
                                                NOT HOLDS, VIOLATES, comparisons
  EXPLAIN SELECT ...                            show the evaluation plan of a query
  DIFF <fs1> <fs2>                              compare two dependency sets
  EXPORT <fs> TO '<path>'                       write a dependency set to a file
  IMPORT '<path>' AS <fs>                       read a dependency set from a file
  UPDATE <table> SET "<attr>" = <value>
         [WHERE <condition>]                    patch cells; makes a new snapshot
  \\help                                         this text
  \\quit                                         leave"""


class QuitRequested(Exception):
    """Raised by \\quit; the loop catches it and exits cleanly."""


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class Session:
    def __init__(self, relations=None, fdsets=None, output_mode="table",
                 null_token="", threads=1, data_dir="", clock=_utc_now):
        self.relations: dict[str, Relation] = {} if relations is None else relations
        self.fdsets: dict[str, FDSet] = {} if fdsets is None else fdsets
        self.output_mode, self.null_token = output_mode, null_token
        self.threads, self.data_dir, self.clock = threads, data_dir, clock


# --- rendering ------------------------------------------------------------------

def render(table: ResultTable, mode: str = "table") -> str:
    """Deterministic text for a result table in one of the three modes.

    Every mode takes its texts from `_column_texts`, which decides once per
    column whether its cells share texts. Where a column's cell objects
    repeat, each distinct one is formatted, finished (csv quoting, a
    record's label, the grid's padding) and kept once, so that work and
    memory follow the distinct values, not the cells. Lines are built
    `_BLOCK` rows at a time, and each block's are joined into one string at
    once, so the peak is about the texts kept plus twice the output."""
    if mode == "csv":
        return _render_csv(table)
    if mode == "records":
        return _render_records(table)
    if mode == "table":
        return _render_grid(table)
    raise ValueError(f"unknown output mode {mode!r}")


# cells looked at to tell whether a column repeats its objects
_PROBE = 1024
# rows whose lines are held apart at once, before they are joined
_BLOCK = 1024


def _cell_texts(column: Sequence) -> dict | list:
    """The text of each cell of a column, by `format_cell`: a dict from
    each distinct cell object's `id` to its text, or a list of one text per
    cell.

    Cells are told apart by object, not by value: LOAD gives each distinct
    text of a column one object, and an UPDATE one per statement, so equal
    values that print differently (`1.0` and `1.00`, `-0` and `0.0`, an
    UPDATE's `Decimal(1)` beside a loaded `1.0`) are different objects.
    Where at most half of the first `_PROBE` objects are distinct, each
    object is formatted once, into the dict; a column of mostly distinct
    cells, where the dict would not pay for itself, is formatted cell by
    cell, into the list."""
    probe = list(map(id, column[:_PROBE]))
    if 2 * len(set(probe)) <= len(probe):
        cells = dict(zip(map(id, column), column))
        return dict(zip(cells, map(format_cell, cells.values())))
    text = list(map(str, column))
    # str gives "None" for a null; scanning the texts for it is cheaper
    # than scanning the cells, where Decimal's == against None is slow
    if "None" in text:
        text = list(map(format_cell, column))
    return text


def _column_texts(table: ResultTable) -> list:
    """`_cell_texts` of every column, taking the cells of one column at a
    time."""
    rows = table.rows
    return [
        _cell_texts(list(map(itemgetter(j), rows))) for j in range(len(table.columns))
    ]


def _blocks(table: ResultTable, texts: list, finishes: Iterable, lines, sep: str):
    """The rows' lines, `_BLOCK` rows at a time, each block's joined by `sep`
    into one string. `texts` are the columns' from `_column_texts`, each
    finished by its item of `finishes` unless that is None: once per object
    where they are a dict, else per cell as its block is built. `lines`
    maps rows of finished texts to their lines."""
    sources = []
    for source, finish in zip(texts, finishes):
        if finish is not None and type(source) is dict:
            source, finish = dict(zip(source, map(finish, source.values()))), None
        sources.append((source, finish))
    rows = table.rows
    blocks = []
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        columns = []
        for (source, finish), cells in zip(sources, zip(*block)):
            if type(source) is dict:
                columns.append(map(source.__getitem__, map(id, cells)))
            elif finish is None:
                columns.append(source[start : start + len(block)])
            else:
                columns.append(map(finish, source[start : start + len(block)]))
        # no column: as many empty rows as the block has
        text_rows = zip(*columns) if sources else repeat((), len(block))
        blocks.append(sep.join(lines(text_rows)))
    return blocks


def _render_grid(table: ResultTable) -> str:
    texts = _column_texts(table)
    widths = []
    for name, text in zip(table.columns, texts):
        shown = text.values() if type(text) is dict else text
        widths.append(max(len(name), max(map(len, shown), default=0)))
    # every line is stripped on the right, so the last column needs no padding
    pads = [methodcaller("ljust", w) for w in widths[:-1]] + [None]
    body = _blocks(
        table, texts, pads, lambda rows: map(str.rstrip, map(" | ".join, rows)), "\n"
    )
    del texts  # before the join, which makes a second copy of the output
    n = len(table.rows)
    header = [name.ljust(w) for name, w in zip(table.columns, widths)]
    lines = [" | ".join(header).rstrip(), "-+-".join("-" * w for w in widths)]
    lines += body
    lines.append(f"({n} row)" if n == 1 else f"({n} rows)")
    return "\n".join(lines)


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(table: ResultTable) -> str:
    lines = [",".join(map(_csv_field, table.columns))]
    lines += _blocks(
        table, _column_texts(table), repeat(_csv_field), partial(map, ",".join), "\r\n"
    )
    return "\r\n".join(lines)


def _render_records(table: ResultTable) -> str:
    if not table.rows:
        return "(0 rows)"
    width = max(map(len, table.columns), default=0)
    labels = [f"{name.ljust(width)}: ".__add__ for name in table.columns]
    return "\n\n".join(
        _blocks(table, _column_texts(table), labels, partial(map, "\n".join), "\n\n")
    )


# --- statement splitting ----------------------------------------------------------

# one piece of a line: a string (an unclosed quote runs to the end of the
# line), a comment, a semicolon, or a run of anything else
_PIECE_RE = re.compile(rf"""{STRING}|["'].*|{COMMENT}|;|[^"';-]+|-""")


def read_statements(text: str) -> tuple[list[str], str]:
    """Cut text into the statements it completes and the unterminated rest.

    Each line is cut into pieces by the tokenizer's rules for strings and
    comments: semicolons end statements outside quotes; `--` starts a
    comment outside quotes; a quote left open runs to the end of its line;
    a line whose first non-blank character is a backslash is a statement of
    its own. The rest keeps its line breaks, without comments, so appending
    more lines and reading again continues it; it is empty when only blanks
    and comments follow the last statement.
    """
    statements: list[str] = []
    buf: list[str] = []

    def flush():
        stmt = "".join(buf).strip()
        buf.clear()
        if stmt:
            statements.append(stmt)

    # "\n" alone ends a line, as in the tokenizer; splitlines() would also
    # cut inside a string or comment at "\r", "\x85", U+2028 and the like
    for line in text.removesuffix("\n").split("\n"):
        stripped = line.strip()
        if stripped.startswith("\\"):
            flush()
            statements.append(stripped)
            continue
        for piece in _PIECE_RE.findall(line):
            if piece == ";":
                flush()
            elif not piece.startswith("--"):
                buf.append(piece)
        buf.append("\n")
    rest = "".join(buf)
    return statements, rest if rest.strip() else ""


def split_statements(text: str) -> list[str]:
    """Cut a script into statements, as `read_statements` does; a final
    unterminated statement counts."""
    statements, rest = read_statements(text)
    return statements + [rest.strip()] if rest else statements


# --- statement handlers ------------------------------------------------------------

def _resolve_path(session: Session, path: str) -> str:
    if os.path.isabs(path) or not session.data_dir:
        return path
    return os.path.join(session.data_dir, path)


def _get_relation(session: Session, name: str) -> Relation:
    try:
        return session.relations[name]
    except KeyError:
        raise NameResolutionError(f"no loaded table named {name!r}") from None


def _get_fdset(session: Session, name: str) -> FDSet:
    try:
        return session.fdsets[name]
    except KeyError:
        raise NameResolutionError(f"no dependency set named {name!r}") from None


def _run_load(session: Session, line: str) -> str:
    ts = TokenStream(line)
    ts.expect_kw("LOAD")
    path = ts.expect_string("a quoted file path").value
    ts.expect_kw("AS")
    name = ts.expect_ident("a table name")
    ts.expect_end()
    relation = load_csv(
        _resolve_path(session, path), name=name, null_token=session.null_token
    )
    session.relations[name] = relation
    cols = len(relation.schema)
    return f"loaded {name}: {relation.row_count} rows, {cols} attributes"


def _run_minefd(session: Session, line: str) -> str:
    statement = parse_minefd(line)
    relation = _get_relation(session, statement.table)
    fdset = execute_minefd(
        statement, relation, workers=session.threads, mined_at=session.clock()
    )
    session.fdsets[statement.name] = fdset
    header = f"fdset {statement.name}: {len(fdset.entries)} dependencies"
    with_error = statement.show_error or any(e.error > 0 for e in fdset.entries)
    echo = FdmlQuery("star" if with_error else "pairs", statement.name)
    body = render(eval_fdml(echo, fdset), session.output_mode)
    return f"{header}\n{body}"


def _run_selectdep(session: Session, line: str) -> str:
    query = parse_fdml(line)
    fdset = _get_fdset(session, query.source)
    schema = None
    warning = ""
    bound = session.relations.get(fdset.table_binding)
    if bound is not None:
        schema = bound.attribute_names
        if fdset.is_stale_for(bound):
            warning = (
                f"warning: fdset {fdset.name!r} is stale: table "
                f"{fdset.table_binding!r} has changed since it was built\n"
            )
    result = eval_fdml(query, fdset, schema)
    return warning + render(result, session.output_mode)


def _run_select(session: Session, line: str) -> str:
    ast = parse_extended_select(line)
    relation = _get_relation(session, ast.source)
    return render(execute(ast, relation), session.output_mode)


def _run_explain(session: Session, line: str) -> str:
    # blank the keyword rather than cut it, so error columns match the input
    ast = parse_extended_select(" " * len("EXPLAIN") + line[len("EXPLAIN") :])
    _get_relation(session, ast.source)
    return explain_select(ast)


def _entry_line(entry: FDEntry) -> str:
    body = f"{', '.join(entry.lhs)} -> {entry.rhs}"
    if entry.error > 0:
        body += f" [error {entry.error!r}]"
    return body


def _run_diff(session: Session, line: str) -> str:
    ts = TokenStream(line)
    ts.expect_kw("DIFF")
    old = _get_fdset(session, ts.expect_ident("a dependency set name"))
    new = _get_fdset(session, ts.expect_ident("a dependency set name"))
    ts.expect_end()
    added, removed, changed = diff_fdsets(old, new)
    lines = [f"added ({len(added)}):"]
    lines.extend(f"  {_entry_line(e)}" for e in added)
    lines.append(f"removed ({len(removed)}):")
    lines.extend(f"  {_entry_line(e)}" for e in removed)
    lines.append(f"error changed ({len(changed)}):")
    lines.extend(
        f"  {', '.join(o.lhs)} -> {o.rhs}: {o.error!r} -> {n.error!r}"
        for o, n in changed
    )
    return "\n".join(lines)


def _run_export(session: Session, line: str) -> str:
    ts = TokenStream(line)
    ts.expect_kw("EXPORT")
    name = ts.expect_ident("a dependency set name")
    ts.expect_kw("TO")
    path = ts.expect_string("a quoted file path").value
    ts.expect_end()
    fdset = _get_fdset(session, name)
    save_fdset(fdset, _resolve_path(session, path))
    return f"exported {name} to {path}"


def _run_import(session: Session, line: str) -> str:
    ts = TokenStream(line)
    ts.expect_kw("IMPORT")
    path = ts.expect_string("a quoted file path").value
    ts.expect_kw("AS")
    name = ts.expect_ident("a dependency set name")
    ts.expect_end()
    fdset = import_fdset(_resolve_path(session, path), name=name)
    session.fdsets[name] = fdset
    return (
        f"imported {name}: {len(fdset.entries)} dependencies "
        f"(bound to table {fdset.table_binding!r})"
    )


def _coerce_for(kind: str, value: Value, attr: str) -> Value:
    """`value` as a cell of a `kind` column: an int widens to a decimal."""
    if kind == DECIMAL and type(value) is int:
        value = Decimal(value)
    if holds_kind(kind, value):
        return value
    raise KindMismatchError(f"{attr!r} holds {kind} values, not {value!r}")


@statement_parser
def _parse_update(line: str):
    """`UPDATE <table> SET "<attr>" = <value> [WHERE <condition>]`."""
    ts = TokenStream(line)
    ts.expect_kw("UPDATE")
    table = ts.expect_ident("a table name")
    ts.expect_kw("SET")
    attr = ts.expect_string("a quoted attribute name").value
    ts.expect_punct("=")
    literal = None if ts.accept_kw("NULL") else parse_literal(ts)
    condition = None
    if ts.accept_kw("WHERE"):
        condition = parse_row_condition(ts)
    ts.expect_end()
    return table, attr, literal, condition


def _run_update(session: Session, line: str) -> str:
    table, attr, literal, condition = _parse_update(line)
    relation = _get_relation(session, table)
    meta = relation.attribute(attr)
    value = _coerce_for(meta.kind, literal, attr)
    targets = (
        relation.row_numbers
        if condition is None
        else eval_row_predicate(relation, condition)
    )
    rows = list(relation.rows)
    for i in targets:
        row = rows[i]
        rows[i] = row[: meta.index] + (value,) + row[meta.index + 1 :]
    session.relations[table] = relation.with_rows(rows)
    noun = "row" if len(targets) == 1 else "rows"
    return f"updated {len(targets)} {noun} in {table}"


def _run_meta(session: Session, line: str) -> str:
    command = line.split()[0].lower()
    if command == "\\quit":
        raise QuitRequested()
    if command == "\\help":
        return HELP_TEXT
    raise ParseError(f"unknown metacommand {line.split()[0]!r}; try \\help")


_HANDLERS = {
    "LOAD": _run_load,
    "MINEFD": _run_minefd,
    "SELECTDEP": _run_selectdep,
    "SELECT": _run_select,
    "EXPLAIN": _run_explain,
    "DIFF": _run_diff,
    "EXPORT": _run_export,
    "IMPORT": _run_import,
    "UPDATE": _run_update,
}


def run_command(session: Session, line: str) -> tuple[Session, str]:
    """Execute one statement; returns the session and its rendered output."""
    stripped = line.strip().rstrip(";").strip()
    if not stripped:
        return session, ""
    if stripped.startswith("\\"):
        return session, _run_meta(session, stripped)
    head = re.match(r"[A-Za-z]+", stripped)
    handler = _HANDLERS.get(head.group(0).upper()) if head else None
    if handler is None:
        raise ParseError("unrecognized statement; try \\help")
    return session, handler(session, stripped)


# --- entry points ------------------------------------------------------------------

def run_script(session: Session, text: str, out=None) -> int:
    """Run a statement script; prints each non-empty output. Batch exit code."""
    out = out if out is not None else sys.stdout
    try:
        for statement in split_statements(text):
            session, output = run_command(session, statement)
            if output:
                print(output, file=out)
    except QuitRequested:
        return 0
    except FdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_repl(session: Session, stdin=None, out=None) -> int:
    """Line-oriented loop: metacommands run at once, statements at ';'."""
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    interactive = hasattr(stdin, "isatty") and stdin.isatty()

    def run_one(statement: str) -> bool:
        nonlocal session
        try:
            session, output = run_command(session, statement)
        except QuitRequested:
            return False
        except KeyboardInterrupt:
            print("cancelled", file=out)  # the session stays as it was
        except FdqError as exc:
            print(f"error: {exc}", file=out)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"internal error: {exc}", file=out)
        else:
            if output:
                print(output, file=out)
        return True

    buffer = ""
    while True:
        if interactive:
            print("fdq> " if not buffer else "...> ", end="", file=out, flush=True)
        try:
            line = stdin.readline()
        except KeyboardInterrupt:
            buffer = ""  # drop the statement being typed, keep the session
            print("cancelled", file=out)
            continue
        if not line:
            break
        statements, buffer = read_statements(buffer + line)
        for statement in statements:
            if not run_one(statement):
                return 0
    if buffer:
        run_one(buffer)  # the last statement may lack its ';'
    return 0


def build_session(args) -> Session:
    return Session(
        output_mode=args.output,
        null_token=args.null,
        threads=args.threads,
        data_dir=args.data_dir,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdq", description="query tables and their functional dependencies"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=OUTPUT_MODES, default="table")
    common.add_argument("--null", default="", metavar="TOKEN",
                        help="CSV token read as a missing value")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--data-dir", default=os.environ.get("FDQ_DATA_DIR", ""),
                        help="base directory for relative paths "
                             "(default: $FDQ_DATA_DIR)")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("repl", parents=[common], help="interactive session")
    execp = sub.add_parser("exec", parents=[common], help="run statements and exit")
    group = execp.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--file", help="script file of statements")
    group.add_argument("-c", "--command", help="statements given inline")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    session = build_session(args)
    if args.mode == "repl":
        return run_repl(session)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        text = args.command
    return run_script(session, text)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
