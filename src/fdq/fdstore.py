"""Named dependency sets: the query language over them, inference, persistence.

An FDSet is a snapshot of mined (or imported) dependencies bound to a
source table by name and content fingerprint. SELECTDEP queries filter a
set's entries; LIKE on the left-hand side means containment, so asking
for {"Address"} finds every dependency whose determinant includes
Address. Closure and implication work on the exact entries only.

The on-disk format is JSON lines: one header record, then one record per
entry. It round-trips byte-identically and is easy for other tools to
emit. IMPORT checks JSON syntax, field types and repeated entries, naming
the line; `FDEntry` owns every other rule of an entry. A bad file, numbers
out of range included, is a ParseError (exit 1).
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import Iterable, Sequence

from .errors import (
    ContractError,
    IngestError,
    NameResolutionError,
    ParseError,
    UnsupportedOperationError,
)
from .record import Record, replace
from .relation import (
    COMPARISON_OPS,
    And,
    Or,
    condition_to_text,
    eval_condition,
    parse_and_or,
)
from .result import ResultTable
from .setexpr import (
    SetExpr,
    eval_subset_expr,
    parse_set_expr,
    set_expr_to_text,
)
from .tokens import TokenStream, statement_parser

MINED = "mined"
IMPORTED = "imported"


class FDEntry(Record):
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
        # a float, and a zero one positive, so it prints and exports as 0.0
        object.__setattr__(self, "error", float(abs(self.error)))

    @property
    def key(self) -> tuple[tuple[str, ...], str]:
        return (self.lhs, self.rhs)


def canonical_key(entry: FDEntry):
    return (len(entry.lhs), entry.lhs, entry.rhs)


class FDSet(Record):
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

class LhsLike(Record):
    expr: SetExpr


class RhsLike(Record):
    expr: SetExpr


class LhsLength(Record):
    """`LHS LENGTH <op> <length>`, shared by SELECTDEP and MINEFD."""

    op: str  # = != < <= > >=
    length: int

    def admits(self, size: int) -> bool:
        return COMPARISON_OPS[self.op](size, self.length)


def parse_lhs_length(ts: TokenStream) -> LhsLength:
    """The rest of an atom after `LHS LENGTH`: an operator and a count."""
    op = ts.expect_comparison()
    num = ts.expect_number()
    if not isinstance(num.value, int) or num.value < 0:
        raise ts.error("LENGTH compares against a non-negative integer", num)
    return LhsLength(op, num.value)


class ErrorLeq(Record):
    threshold: float


class FdmlQuery(Record):
    projection: str  # "star" (lhs, rhs, error) or "pairs" (lhs, rhs)
    source: str
    where: object | None = None  # And/Or tree over the atoms above


def _parse_fdml_atom(ts: TokenStream):
    if ts.accept_kw("LHS"):
        if ts.accept_kw("LIKE"):
            return LhsLike(parse_set_expr(ts, allow_lhs_forms=True))
        if ts.accept_kw("LENGTH"):
            return parse_lhs_length(ts)
        raise ts.error("expected LIKE or LENGTH after LHS")
    if ts.accept_kw("RHS"):
        ts.expect_kw("LIKE")
        return RhsLike(parse_set_expr(ts))
    if ts.accept_kw("ERROR"):
        return ErrorLeq(ts.expect_bound())
    raise ts.error("expected LHS, RHS, ERROR, or a parenthesized condition")


def parse_fdml_condition(ts: TokenStream):
    """A dependency condition: LHS LIKE, RHS LIKE, LHS LENGTH and ERROR
    atoms under AND/OR. SELECTDEP and MINEFD both read their WHERE with it."""
    return parse_and_or(ts, _parse_fdml_atom)


def _max_error_atoms_per_path(node) -> int:
    if isinstance(node, ErrorLeq):
        return 1
    if isinstance(node, And):
        return sum(_max_error_atoms_per_path(item) for item in node.items)
    if isinstance(node, Or):
        return max(_max_error_atoms_per_path(item) for item in node.items)
    return 0


@statement_parser
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
        where = parse_fdml_condition(ts)
        if _max_error_atoms_per_path(where) > 1:
            raise ParseError("at most one ERROR bound per AND-chain")
    ts.expect_end()
    return FdmlQuery(projection, source, where)


def _fdml_atom_to_text(node) -> str:
    if isinstance(node, LhsLike):
        return f"LHS LIKE {set_expr_to_text(node.expr)}"
    if isinstance(node, RhsLike):
        return f"RHS LIKE {set_expr_to_text(node.expr)}"
    if isinstance(node, LhsLength):
        return f"LHS LENGTH {node.op} {node.length}"
    if isinstance(node, ErrorLeq):
        return f"ERROR {node.threshold!r}"
    raise TypeError(f"not a condition node: {node!r}")


def fdml_to_text(query: FdmlQuery) -> str:
    """Canonical text form; parses back to an equal query."""
    proj = "*" if query.projection == "star" else "LHS -> RHS"
    text = f"SELECTDEP {proj} FROM {query.source}"
    if query.where is not None:
        text += f" WHERE {condition_to_text(query.where, _fdml_atom_to_text)}"
    return text


def _admitted(node, entries: Sequence[FDEntry], schema: Sequence[str]) -> set[int]:
    """Indexes of the entries one condition atom admits. A LIKE atom
    expands its set expression once, whatever the number of entries."""
    if isinstance(node, LhsLike):
        alts = eval_subset_expr(node.expr, schema)
        return {
            i for i, e in enumerate(entries)
            if any(alt.issubset(e.lhs) for alt in alts)
        }
    if isinstance(node, RhsLike):
        names = set().union(*eval_subset_expr(node.expr, schema))
        return {i for i, e in enumerate(entries) if e.rhs in names}
    if isinstance(node, LhsLength):
        return {i for i, e in enumerate(entries) if node.admits(len(e.lhs))}
    if isinstance(node, ErrorLeq):
        return {i for i, e in enumerate(entries) if e.error <= node.threshold}
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
    entries = fdset.entries
    kept = range(len(entries))
    if query.where is not None:
        names = list(schema) if schema is not None else fdset.attribute_universe()
        leaf = partial(_admitted, entries=entries, schema=names)
        kept = eval_condition(query.where, leaf, kept)
    hits = sorted((entries[i] for i in kept), key=canonical_key)
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
    old: FDSet, new: FDSet
) -> tuple[tuple[FDEntry, ...], tuple[FDEntry, ...], tuple[tuple[FDEntry, FDEntry], ...]]:
    """(added, removed, error-changed) between two sets over the same table.

    Any difference in error is a change: mined errors are exact, and
    `.fdset` files keep them exactly.
    """
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
                if old_by_key[k].error != new_by_key[k].error
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


# each field's JSON type, and the words that name it in an error
_FIELDS = {
    **dict.fromkeys(("fdset", "table", "mined_at", "rhs", "origin"), (str, "a string")),
    "fingerprint": (int, "an integer"),
    "lhs": (list, "a list of strings"),
    "error": ((int, float), "a number"),
}


def _field(record: dict, name: str, default, lineno: int):
    """A record's field, or `default` where it is absent, of its JSON type."""
    value = record.get(name, default)
    kind, noun = _FIELDS[name]
    typed = isinstance(value, kind) and not isinstance(value, bool)
    if typed and kind in (str, list):
        try:  # no UTF-8 output holds a lone surrogate, as JSON's "\ud800" gives
            "".join([value] if kind is str else value).encode("utf-8")
        except (TypeError, UnicodeEncodeError):  # or a list item not a string
            typed = False
    if not typed:
        raise ParseError(f"line {lineno}: {name!r} must be {noun}")
    return value


def loads_fdset(text: str) -> FDSet:
    """Parse the JSON-lines form: a header record, then entry records. Only
    JSON syntax, field types (a string determinant is not split into
    characters) and repeated entries are checked here, each refusal a
    ParseError naming its line; `FDEntry` checks the rest."""
    header = None
    entries: list[FDEntry] = []
    first_line: dict[tuple[tuple[str, ...], str], int] = {}
    # dumps_fdset writes "\x85", U+2028 and U+2029 raw, so only "\n" ends
    # a record, not every break splitlines() knows
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
        except ValueError:
            # an integer of more digits than int() converts
            raise ParseError(f"line {lineno}: number out of range") from None
        except RecursionError:
            raise ParseError(f"line {lineno}: JSON nests too deeply") from None
        if not isinstance(record, dict):
            raise ParseError(f"line {lineno}: expected an object")
        if header is None:
            if "fdset" not in record:
                raise ParseError(f"line {lineno}: first record must carry 'fdset'")
            header = partial(
                FDSet,
                name=_field(record, "fdset", "", lineno),
                table_binding=_field(record, "table", "", lineno),
                table_fingerprint=_field(record, "fingerprint", 0, lineno),
                mined_at=_field(record, "mined_at", "", lineno),
            )
            continue
        try:
            entry = FDEntry(
                tuple(sorted(_field(record, "lhs", None, lineno))),
                _field(record, "rhs", None, lineno),
                _field(record, "error", 0.0, lineno),
                _field(record, "origin", IMPORTED, lineno),
            )
        except ContractError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        first = first_line.setdefault(entry.key, lineno)
        if first != lineno:
            raise ParseError(f"line {lineno}: repeats the dependency of line {first}")
        entries.append(entry)
    if header is None:
        raise ParseError("no header record found")
    return header(entries=tuple(entries))


def save_fdset(fdset: FDSet, path) -> None:
    data = dumps_fdset(fdset).encode("utf-8")  # before the file exists
    try:
        with open(path, "wb") as fh:
            fh.write(data)
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
    return replace(fdset, name=fdset.name if name is None else name, entries=entries)
