"""Named dependency sets: the query language over them, inference, persistence.

An FDSet is a snapshot of mined (or imported) dependencies bound to a
source table by name and content fingerprint. SELECTDEP queries filter a
set's entries; LIKE on the left-hand side means containment, so asking
for {"Address"} finds every dependency whose determinant includes
Address. Closure and implication work on the exact entries only.

The on-disk format is JSON lines: one header record, then one record per
entry. It round-trips byte-identically and is easy for other tools to
emit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import (
    ContractError,
    IngestError,
    NameResolutionError,
    ParseError,
    UnsupportedOperationError,
)
from .relation import COMPARISON_OPS
from .result import ResultTable
from .setexpr import (
    SetExpr,
    eval_subset_expr,
    parse_set_expr,
    set_expr_to_text,
)
from .tokens import TokenStream

MINED = "mined"
IMPORTED = "imported"


@dataclass(frozen=True)
class FDEntry:
    """One dependency: sorted determinant, dependent attribute, error, origin."""

    lhs: tuple[str, ...]
    rhs: str
    error: float = 0.0
    origin: str = MINED

    def __post_init__(self):
        if not self.lhs:
            raise ContractError("a dependency needs a non-empty determinant")
        if tuple(sorted(self.lhs)) != self.lhs:
            raise ContractError("determinant attributes must be sorted")
        if len(set(self.lhs)) != len(self.lhs):
            raise ContractError("duplicate attribute in determinant")
        if self.rhs in self.lhs:
            raise ContractError("trivial dependency: rhs inside lhs")
        if not 0.0 <= self.error < 1.0:
            raise ContractError(f"error {self.error} outside [0, 1)")

    @property
    def key(self) -> tuple[tuple[str, ...], str]:
        return (self.lhs, self.rhs)


def canonical_key(entry: FDEntry):
    return (len(entry.lhs), entry.lhs, entry.rhs)


@dataclass(frozen=True)
class FDSet:
    name: str
    table_binding: str
    table_fingerprint: int
    entries: tuple[FDEntry, ...]
    mined_at: str = ""

    def __post_init__(self):
        keys = [e.key for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ContractError("duplicate (lhs, rhs) in dependency set")

    def is_stale_for(self, relation) -> bool:
        return relation.fingerprint != self.table_fingerprint

    def attribute_universe(self) -> list[str]:
        names = {a for e in self.entries for a in e.lhs}
        names.update(e.rhs for e in self.entries)
        return sorted(names)


# --- dependency query language ----------------------------------------------

@dataclass(frozen=True)
class LhsLike:
    expr: SetExpr


@dataclass(frozen=True)
class RhsLike:
    expr: SetExpr


@dataclass(frozen=True)
class LhsLength:
    """`LHS LENGTH <op> <length>`, shared by SELECTDEP and MINEFD."""

    op: str  # = != < <= > >=
    length: int

    def admits(self, size: int) -> bool:
        return COMPARISON_OPS[self.op](size, self.length)


def parse_lhs_length(ts: TokenStream) -> LhsLength:
    """The rest of an atom after `LHS LENGTH`: an operator and a count."""
    op_tok = ts.peek()
    if op_tok.kind != "punct" or op_tok.text not in COMPARISON_OPS:
        raise ts.error("expected a comparison operator after LENGTH")
    ts.advance()
    num = ts.expect_number()
    if not isinstance(num.value, int) or num.value < 0:
        raise ts.error("LENGTH compares against a non-negative integer", num)
    return LhsLength(op_tok.text, num.value)


@dataclass(frozen=True)
class ErrorLeq:
    threshold: float


@dataclass(frozen=True)
class CondAnd:
    items: tuple


@dataclass(frozen=True)
class CondOr:
    items: tuple


FdmlCond = object  # LhsLike | RhsLike | LhsLength | ErrorLeq | CondAnd | CondOr


@dataclass(frozen=True)
class FdmlQuery:
    projection: str  # "star" (lhs, rhs, error) or "pairs" (lhs, rhs)
    source: str
    where: object | None = None


def _parse_fdml_atom(ts: TokenStream):
    if ts.accept_punct("("):
        node = _parse_fdml_or(ts)
        ts.expect_punct(")")
        return node
    tok = ts.peek()
    if tok.kind == "ident" and tok.text.upper() == "LHS":
        ts.advance()
        if ts.accept_kw("LIKE"):
            return LhsLike(parse_set_expr(ts, allow_lhs_forms=True))
        if ts.accept_kw("LENGTH"):
            return parse_lhs_length(ts)
        raise ts.error("expected LIKE or LENGTH after LHS")
    if tok.kind == "ident" and tok.text.upper() == "RHS":
        ts.advance()
        ts.expect_kw("LIKE")
        return RhsLike(parse_set_expr(ts))
    if tok.kind == "ident" and tok.text.upper() == "ERROR":
        ts.advance()
        num = ts.expect_number()
        return ErrorLeq(float(num.value))
    raise ts.error("expected LHS, RHS, ERROR, or a parenthesized condition")


def _parse_fdml_and(ts: TokenStream):
    items = [_parse_fdml_atom(ts)]
    while ts.accept_kw("AND"):
        items.append(_parse_fdml_atom(ts))
    return items[0] if len(items) == 1 else CondAnd(tuple(items))


def _parse_fdml_or(ts: TokenStream):
    items = [_parse_fdml_and(ts)]
    while ts.accept_kw("OR"):
        items.append(_parse_fdml_and(ts))
    return items[0] if len(items) == 1 else CondOr(tuple(items))


def _max_error_atoms_per_path(node) -> int:
    if isinstance(node, ErrorLeq):
        return 1
    if isinstance(node, CondAnd):
        return sum(_max_error_atoms_per_path(item) for item in node.items)
    if isinstance(node, CondOr):
        return max(_max_error_atoms_per_path(item) for item in node.items)
    return 0


def parse_fdml(text: str) -> FdmlQuery:
    """Parse a dependency query.

    SELECTDEP [* | LHS -> RHS] FROM <set> [WHERE <condition>]

    An empty projection means the same as *. Private rule: each AND-chain
    may constrain ERROR at most once; a second threshold on one path is a
    contradiction in waiting and is rejected.
    """
    ts = TokenStream(text)
    ts.expect_kw("SELECTDEP")
    if ts.accept_punct("*"):
        projection = "star"
    elif ts.accept_kw("LHS"):
        ts.expect_punct("->")
        ts.expect_kw("RHS")
        projection = "pairs"
    else:
        projection = "star"
    ts.expect_kw("FROM")
    source = ts.expect_ident("a dependency-set name")
    where = None
    if ts.accept_kw("WHERE"):
        where = _parse_fdml_or(ts)
        if _max_error_atoms_per_path(where) > 1:
            raise ParseError("at most one ERROR bound per AND-chain")
    ts.expect_end()
    return FdmlQuery(projection, source, where)


def _fdml_cond_to_text(node) -> str:
    if isinstance(node, LhsLike):
        return f"LHS LIKE {set_expr_to_text(node.expr)}"
    if isinstance(node, RhsLike):
        return f"RHS LIKE {set_expr_to_text(node.expr)}"
    if isinstance(node, LhsLength):
        return f"LHS LENGTH {node.op} {node.length}"
    if isinstance(node, ErrorLeq):
        return f"ERROR {node.threshold!r}"
    if isinstance(node, (CondAnd, CondOr)):
        word = " AND " if isinstance(node, CondAnd) else " OR "
        parts = [
            f"({_fdml_cond_to_text(i)})" if isinstance(i, (CondAnd, CondOr))
            else _fdml_cond_to_text(i)
            for i in node.items
        ]
        return word.join(parts)
    raise TypeError(f"not a condition node: {node!r}")


def fdml_to_text(query: FdmlQuery) -> str:
    """Canonical text form; parses back to an equal query."""
    proj = "*" if query.projection == "star" else "LHS -> RHS"
    text = f"SELECTDEP {proj} FROM {query.source}"
    if query.where is not None:
        text += f" WHERE {_fdml_cond_to_text(query.where)}"
    return text


def _entry_matches(node, entry: FDEntry, schema: Sequence[str]) -> bool:
    if isinstance(node, LhsLike):
        lhs = set(entry.lhs)
        return any(alt <= lhs for alt in eval_subset_expr(node.expr, schema))
    if isinstance(node, RhsLike):
        return any(entry.rhs in alt for alt in eval_subset_expr(node.expr, schema))
    if isinstance(node, LhsLength):
        return node.admits(len(entry.lhs))
    if isinstance(node, ErrorLeq):
        return entry.error <= node.threshold
    if isinstance(node, CondAnd):
        return all(_entry_matches(i, entry, schema) for i in node.items)
    if isinstance(node, CondOr):
        return any(_entry_matches(i, entry, schema) for i in node.items)
    raise TypeError(f"not a condition node: {node!r}")


def eval_fdml(
    query: FdmlQuery, fdset: FDSet, schema: Sequence[str] | None = None
) -> ResultTable:
    """Evaluate a dependency query against one set.

    `schema` supplies the glob domain (the bound table's attributes); when
    omitted, the attributes mentioned in the entries stand in, which only
    matters for patterns that should match attributes no entry uses.
    Output rows are sorted by (lhs size, lhs names, rhs) and the lhs cell
    joins its attributes with a comma.
    """
    names = list(schema) if schema is not None else fdset.attribute_universe()
    hits = [
        e for e in fdset.entries
        if query.where is None or _entry_matches(query.where, e, names)
    ]
    hits.sort(key=canonical_key)
    if query.projection == "pairs":
        columns = ("lhs", "rhs")
        rows = tuple((", ".join(e.lhs), e.rhs) for e in hits)
    else:
        columns = ("lhs", "rhs", "error")
        rows = tuple((", ".join(e.lhs), e.rhs, e.error) for e in hits)
    return ResultTable(columns, rows)


# --- inference ---------------------------------------------------------------

def attr_closure(
    attributes: Iterable[str], fdset: FDSet, schema: Sequence[str] | None = None
) -> set[str]:
    """Attributes determined by `attributes` under the set's exact entries."""
    closure = set(attributes)
    if schema is not None:
        unknown = closure - set(schema)
        if unknown:
            raise NameResolutionError(f"unknown attributes: {sorted(unknown)}")
    exact = [e for e in fdset.entries if e.error == 0.0]
    changed = True
    while changed:
        changed = False
        for entry in exact:
            if entry.rhs not in closure and set(entry.lhs) <= closure:
                closure.add(entry.rhs)
                changed = True
    return closure


def is_implied(entry: FDEntry, fdset: FDSet) -> bool:
    """Whether the set's exact entries already entail this exact dependency."""
    if entry.error != 0.0:
        raise UnsupportedOperationError(
            "implication is defined for exact dependencies only"
        )
    return entry.rhs in attr_closure(entry.lhs, fdset)


def diff_fdsets(
    old: FDSet, new: FDSet, *, tolerance: float = 1e-12
) -> tuple[tuple[FDEntry, ...], tuple[FDEntry, ...], tuple[tuple[FDEntry, FDEntry], ...]]:
    """(added, removed, error-changed) between two sets over the same table."""
    if old.table_binding != new.table_binding:
        raise ContractError(
            f"diff across tables: {old.table_binding!r} vs {new.table_binding!r}"
        )
    old_by_key = {e.key: e for e in old.entries}
    new_by_key = {e.key: e for e in new.entries}
    added = tuple(
        sorted((e for k, e in new_by_key.items() if k not in old_by_key),
               key=canonical_key)
    )
    removed = tuple(
        sorted((e for k, e in old_by_key.items() if k not in new_by_key),
               key=canonical_key)
    )
    changed = tuple(
        sorted(
            (
                (old_by_key[k], new_by_key[k])
                for k in old_by_key.keys() & new_by_key.keys()
                if abs(old_by_key[k].error - new_by_key[k].error) > tolerance
            ),
            key=lambda pair: canonical_key(pair[0]),
        )
    )
    return added, removed, changed


# --- persistence -------------------------------------------------------------

def _dump_line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def dumps_fdset(fdset: FDSet) -> str:
    lines = [
        _dump_line(
            {
                "fdset": fdset.name,
                "table": fdset.table_binding,
                "fingerprint": fdset.table_fingerprint,
                "mined_at": fdset.mined_at,
            }
        )
    ]
    for e in fdset.entries:
        lines.append(
            _dump_line(
                {"lhs": list(e.lhs), "rhs": e.rhs, "error": e.error, "origin": e.origin}
            )
        )
    return "\n".join(lines) + "\n"


def loads_fdset(text: str) -> FDSet:
    """Parse the JSON-lines form. Header first, then entry records.

    Field types are checked, so a mistyped field is a ParseError rather
    than a crash or a silent misread (a string determinant is not split
    into characters)."""
    header = None
    entries: list[FDEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ParseError(f"line {lineno}: expected an object")
        if header is None:
            if "fdset" not in record:
                raise ParseError(f"line {lineno}: first record must carry 'fdset'")
            header = record
            continue
        if "lhs" not in record or "rhs" not in record:
            raise ParseError(f"line {lineno}: entry needs 'lhs' and 'rhs'")
        lhs, rhs = record["lhs"], record["rhs"]
        if not (
            isinstance(lhs, list) and lhs and all(isinstance(a, str) for a in lhs)
        ):
            raise ParseError(f"line {lineno}: 'lhs' must be a non-empty list of names")
        if not isinstance(rhs, str):
            raise ParseError(f"line {lineno}: 'rhs' must be a name")
        error = record.get("error", 0.0)
        if (
            isinstance(error, bool)
            or not isinstance(error, (int, float))
            or not 0.0 <= error < 1.0
        ):
            raise ParseError(f"line {lineno}: 'error' must be a number in [0, 1)")
        origin = record.get("origin", IMPORTED)
        if not isinstance(origin, str):
            raise ParseError(f"line {lineno}: 'origin' must be a string")
        entries.append(
            FDEntry(lhs=tuple(sorted(lhs)), rhs=rhs, error=float(error), origin=origin)
        )
    if header is None:
        raise ParseError("no header record found")
    fingerprint = header.get("fingerprint", 0)
    if isinstance(fingerprint, bool) or not isinstance(fingerprint, int):
        raise ParseError("header 'fingerprint' must be an integer")
    for field in ("fdset", "table", "mined_at"):
        if not isinstance(header.get(field, ""), str):
            raise ParseError(f"header {field!r} must be a string")
    return FDSet(
        name=header.get("fdset", ""),
        table_binding=header.get("table", ""),
        table_fingerprint=fingerprint,
        entries=tuple(entries),
        mined_at=header.get("mined_at", ""),
    )


def save_fdset(fdset: FDSet, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps_fdset(fdset))
    except OSError as exc:
        raise IngestError(f"cannot write {os.fspath(path)!r}: {exc.strerror}") from exc


def load_fdset(path) -> FDSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read {os.fspath(path)!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    return loads_fdset(text)


def import_fdset(path, name: str | None = None) -> FDSet:
    """Load a file produced elsewhere: every entry is stamped as imported."""
    fdset = load_fdset(path)
    entries = tuple(replace(e, origin=IMPORTED) for e in fdset.entries)
    return FDSet(
        name=name if name is not None else fdset.name,
        table_binding=fdset.table_binding,
        table_fingerprint=fdset.table_fingerprint,
        entries=entries,
        mined_at=fdset.mined_at,
    )
