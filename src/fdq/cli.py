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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from typing import Callable

from .errors import (
    FdqError,
    KindMismatchError,
    NameResolutionError,
    ParseError,
)
from .fdstore import FDEntry, FDSet, diff_fdsets, eval_fdml, import_fdset, parse_fdml, save_fdset
from .miner import execute_minefd, parse_minefd
from .query import (
    FdPredicate,
    execute,
    parse_extended_select,
    parse_row_condition,
    select_to_text,
    _fd_predicate_to_text,
)
from .relation import And, Not, Or, Relation, Value, eval_row_predicate, load_csv
from .result import ResultTable, format_cell
from .tokens import TokenStream

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
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class Session:
    relations: dict[str, Relation] = field(default_factory=dict)
    fdsets: dict[str, FDSet] = field(default_factory=dict)
    output_mode: str = "table"
    null_token: str = ""
    threads: int = 1
    data_dir: str = ""
    clock: Callable[[], str] = _utc_now


# --- rendering ------------------------------------------------------------------

def render(table: ResultTable, mode: str = "table") -> str:
    """Deterministic text for a result table in one of the three modes."""
    if mode == "csv":
        return _render_csv(table)
    if mode == "records":
        return _render_records(table)
    if mode == "table":
        return _render_grid(table)
    raise ValueError(f"unknown output mode {mode!r}")


def _render_grid(table: ResultTable) -> str:
    cells = [list(table.columns)] + [
        [format_cell(v) for v in row] for row in table.rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(table.columns))]
    lines = [" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    n = len(table.rows)
    lines.append(f"({n} row)" if n == 1 else f"({n} rows)")
    return "\n".join(lines)


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(table: ResultTable) -> str:
    lines = [",".join(_csv_field(c) for c in table.columns)]
    for row in table.rows:
        lines.append(",".join(_csv_field(format_cell(v)) for v in row))
    return "\r\n".join(lines)


def _render_records(table: ResultTable) -> str:
    if not table.rows:
        return "(0 rows)"
    width = max(len(c) for c in table.columns)
    blocks = []
    for row in table.rows:
        blocks.append(
            "\n".join(
                f"{c.ljust(width)}: {format_cell(v)}"
                for c, v in zip(table.columns, row)
            )
        )
    return "\n\n".join(blocks)


def _fdset_table(fdset: FDSet, show_error: bool) -> ResultTable:
    if show_error or any(e.error > 0 for e in fdset.entries):
        return ResultTable(
            ("lhs", "rhs", "error"),
            tuple((", ".join(e.lhs), e.rhs, e.error) for e in fdset.entries),
        )
    return ResultTable(
        ("lhs", "rhs"),
        tuple((", ".join(e.lhs), e.rhs) for e in fdset.entries),
    )


# --- statement splitting ----------------------------------------------------------

def split_statements(text: str) -> list[str]:
    """Cut a script into statements.

    Semicolons separate statements outside quotes; `--` starts a comment
    outside quotes; a line whose first non-blank character is a backslash
    is a statement of its own. A final unterminated statement counts.
    """
    statements: list[str] = []
    buf: list[str] = []

    def flush():
        stmt = "".join(buf).strip()
        buf.clear()
        if stmt:
            statements.append(stmt)

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("\\"):
            flush()
            statements.append(stripped)
            continue
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            if ch in "'\"":
                end = line.find(ch, i + 1)
                end = n - 1 if end == -1 else end
                buf.append(line[i : end + 1])
                i = end + 1
            elif ch == "-" and line.startswith("--", i):
                break
            elif ch == ";":
                flush()
                i += 1
            else:
                buf.append(ch)
                i += 1
        buf.append("\n")
    flush()
    return statements


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
    body = render(_fdset_table(fdset, statement.show_error), session.output_mode)
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


def _collect_fd_predicates(node) -> list[FdPredicate]:
    if isinstance(node, FdPredicate):
        return [node]
    if isinstance(node, (And, Or)):
        out = []
        for item in node.items:
            out.extend(_collect_fd_predicates(item))
        return out
    if isinstance(node, Not):
        return _collect_fd_predicates(node.item)
    return []


def _run_explain(session: Session, line: str) -> str:
    rest = re.sub(r"^\s*EXPLAIN\b\s*", "", line, flags=re.IGNORECASE)
    ast = parse_extended_select(rest)
    _get_relation(session, ast.source)
    lines = [f"statement: {select_to_text(ast)}"]
    preds = _collect_fd_predicates(ast.where) if ast.where is not None else []
    for pred in preds:
        scope = "its ON scope" if pred.on is not None else "the whole table"
        lines.append(f"  evaluate {_fd_predicate_to_text(pred)} against {scope}")
    if preds:
        lines.append(
            "note: dependency predicates run first; row filters combine "
            "with their results by set algebra, so written order is immaterial"
        )
    else:
        lines.append("note: plain row filters only")
    return "\n".join(lines)


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


def _parse_update_literal(ts: TokenStream) -> Value:
    if ts.accept_kw("NULL"):
        return None
    tok = ts.peek()
    if tok.kind == "string":
        ts.advance()
        return tok.value
    negative = bool(ts.accept_punct("-"))
    value = ts.expect_number().value
    return -value if negative else value


def _coerce_for(kind: str, value: Value, attr: str) -> Value:
    if value is None:
        return None
    if kind == "text":
        if isinstance(value, str):
            return value
    elif kind == "integer":
        if isinstance(value, int):
            return value
    elif kind == "decimal":
        if isinstance(value, Decimal):
            return value
        if isinstance(value, int):
            return Decimal(value)
    raise KindMismatchError(f"{attr!r} holds {kind} values, not {value!r}")


def _run_update(session: Session, line: str) -> str:
    ts = TokenStream(line)
    ts.expect_kw("UPDATE")
    table = ts.expect_ident("a table name")
    ts.expect_kw("SET")
    attr = ts.expect_string("a quoted attribute name").value
    ts.expect_punct("=")
    literal = _parse_update_literal(ts)
    condition = None
    if ts.accept_kw("WHERE"):
        condition = parse_row_condition(ts)
    ts.expect_end()
    relation = _get_relation(session, table)
    meta = relation.attribute(attr)
    value = _coerce_for(meta.kind, literal, attr)
    targets = (
        set(range(relation.row_count))
        if condition is None
        else eval_row_predicate(relation, condition)
    )
    rows = [
        row[: meta.index] + (value,) + row[meta.index + 1 :] if i in targets else row
        for i, row in enumerate(relation.rows)
    ]
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
        line = stdin.readline()
        if not line:
            break
        if line.strip().startswith("\\"):
            if not run_one(line.strip()):
                return 0
            continue
        buffer += line
        if ";" not in _strip_quoted(line):
            continue
        statements = split_statements(buffer)
        buffer = ""
        if statements and not line.rstrip().endswith(";"):
            buffer = statements.pop() + "\n"  # tail still lacks its terminator
        for statement in statements:
            if not run_one(statement):
                return 0
    for statement in split_statements(buffer):
        if not run_one(statement):
            return 0
    return 0


def _strip_quoted(line: str) -> str:
    return re.sub(r"'[^']*'|\"[^\"]*\"", "", line)


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
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        text = args.command
    return run_script(session, text)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
