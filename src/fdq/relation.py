"""Typed in-memory relations, CSV ingestion, and row predicates.

A relation is an immutable snapshot: attribute metadata plus a tuple of
rows. Cell values are int, Decimal, str, or None. Decimal keeps CSV
decimals exact, and equal values hash equally across int/Decimal, which
the partition layer relies on. CSV ingestion converts each distinct cell
text of a column once, so equal cells share one value object.

Every relation has a 64-bit content fingerprint, so downstream artifacts
can detect that their source table changed. It is row-additive: a digest
of the schema and row count plus the sum, mod 2**64, of one 64-bit digest
per row, each taken over the row's index and cells (Bellare and
Micciancio's AdHash, 1997). Equal content gives an equal fingerprint, and
row order matters. It is computed on first use, so statements that
neither mine nor check a stored dependency set never pay for it, and a
snapshot derived by `with_rows` from a parent whose fingerprint is known
updates it by the changed rows alone when fewer than half the rows
changed. A decimal cell is digested by its exact normalized value, so
1.50 and 1.5 agree, and decimals that differ in any digit or exponent
do not. The hash module itself loads with the first fingerprint.

A snapshot also keeps what later layers derived from its columns, in
`derived`: the partition layer's value ids of one attribute (per row,
the smallest row holding the same value) and its partition, and the
miner's score of each dependency candidate X -> A. Each key starts with
the bitmask of the attributes its value was computed from (bit i for
attribute i), X u {A} for a score. This module treats the rest of the
key and the values as opaque; `with_rows` works out once which
attributes some changed row alters, and hands the child each entry whose
bitmask has none of them, since equal values group and score the same
way.
"""

from __future__ import annotations

import csv
import operator
import os
import re
from array import array
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation
from functools import cached_property
from itertools import compress, count, filterfalse
from typing import IO, Collection, Iterable, Iterator, Sequence, Union

from .errors import (
    IngestError,
    KindMismatchError,
    NameResolutionError,
    SchemaError,
)
from .record import Record
from .tokens import COMPARISONS, NUMBER, TokenStream

Value = Union[int, Decimal, str, None]

INTEGER = "integer"
DECIMAL = "decimal"
TEXT = "text"
# the Python type of each kind's cells
KIND_TYPES = {INTEGER: int, DECIMAL: Decimal, TEXT: str}

_INT_RE = re.compile(r"[+-]?\d+\Z")
_DEC_RE = re.compile(rf"[+-]?{NUMBER}\Z")


def holds_kind(kind: str, cell: Value) -> bool:
    """Whether a column of `kind` holds `cell`: a null, or a value of the
    kind's type that is not a bool (which is an int)."""
    return cell is None or (
        isinstance(cell, KIND_TYPES[kind]) and not isinstance(cell, bool)
    )


class AttributeMeta(Record):
    name: str
    index: int
    kind: str


class Relation(Record):
    """Immutable table: name, attribute metadata, rows."""

    name: str
    schema: tuple[AttributeMeta, ...]
    rows: tuple[tuple[Value, ...], ...]

    @cached_property
    def fingerprint(self) -> int:
        """64-bit content digest, computed on first read (see the module
        docstring). Not a field, so equality and hashing ignore it."""
        rows = self.rows
        total = _header_digest(self.schema, len(rows))
        return (total + sum(map(_row_digest, range(len(rows)), rows))) % _MODULUS

    @cached_property
    def row_numbers(self) -> tuple[int, ...]:
        """The row indexes 0..n-1, made once per snapshot and passed on by
        `with_rows`, so that the partitions kept over a snapshot and its
        children share one int object per row instead of making their
        own. Not a field, so equality and hashing ignore it."""
        return tuple(range(len(self.rows)))

    @cached_property
    def derived(self) -> dict[tuple, object]:
        """What later layers derived from some of the snapshot's columns
        over all its rows, filled by those layers; each key starts with
        the bitmask of those columns (see the module docstring). Not a
        field, so equality and hashing ignore it."""
        return {}

    @staticmethod
    def build(
        name: str,
        attributes: Sequence[tuple[str, str]],
        rows: Iterable[Sequence[Value]],
    ) -> "Relation":
        """Construct a relation from (name, kind) pairs and row sequences.

        Validates name uniqueness, kinds, arity, and that each cell is
        either None or an instance matching its column kind.
        """
        metas = tuple(
            AttributeMeta(n, i, k) for i, (n, k) in enumerate(attributes)
        )
        seen = set()
        for meta in metas:
            if meta.kind not in KIND_TYPES:
                raise SchemaError(f"unknown kind {meta.kind!r} for {meta.name!r}")
            if meta.name in seen:
                raise SchemaError(f"duplicate attribute name {meta.name!r}")
            seen.add(meta.name)
        checked = []
        for rowno, row in enumerate(rows):
            row = tuple(row)
            if len(row) != len(metas):
                raise SchemaError(
                    f"row {rowno}: expected {len(metas)} cells, got {len(row)}"
                )
            for meta, cell in zip(metas, row):
                if not holds_kind(meta.kind, cell):
                    expected = KIND_TYPES[meta.kind].__name__
                    raise SchemaError(f"row {rowno}: {meta.name!r} expects {expected}")
            checked.append(row)
        return Relation(name, metas, tuple(checked))

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(meta.name for meta in self.schema)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def attribute(self, name: str) -> AttributeMeta:
        for meta in self.schema:
            if meta.name == name:
                return meta
        raise NameResolutionError(f"no attribute {name!r} in {self.name!r}")

    def with_rows(self, rows: Iterable[Sequence[Value]]) -> "Relation":
        """New snapshot with the same schema and replaced rows.

        Rows passed through unchanged keep their identity, so the rows that
        may differ are those that are not the parent's row objects. The
        attributes that some such row alters are found once, and each
        `derived` entry computed from none of them passes to the child,
        with the row numbers the kept partitions are made of. When a
        fingerprint was already read here and fewer than half the rows
        differ, the new snapshot's is derived from those rows alone;
        otherwise the new snapshot computes its own when read, which costs
        no more.
        """
        child = Relation(self.name, self.schema, tuple(map(tuple, rows)))
        # where cached_property keeps what was read
        known = self.__dict__.get("fingerprint")
        derived = self.__dict__.get("derived")
        if (known is None and not derived) or child.row_count != self.row_count:
            return child
        old_rows, new_rows = self.rows, child.rows
        changed = list(compress(count(), map(operator.is_not, old_rows, new_rows)))
        if derived:
            altered = sum(
                1 << a for a in range(len(self.schema))
                if not all(old_rows[i][a] == new_rows[i][a] for i in changed)
            )
            child.__dict__["derived"] = {
                key: value for key, value in derived.items() if not key[0] & altered
            }
            child.__dict__["row_numbers"] = self.row_numbers
        if known is None or 2 * len(changed) >= child.row_count:
            return child
        for index in changed:
            known += _row_digest(index, new_rows[index])
            known -= _row_digest(index, old_rows[index])
        child.__dict__["fingerprint"] = known % _MODULUS
        return child


# normalize() under the default context rounds to 28 digits, flushes tiny
# exponents to 0 and overflows past 1E+999999; this one keeps every value
# exact, and gives a decimal inside the default limits the same text. It
# also scales numbers exactly for `query.value_distance`
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _canonical_cell(value: Value) -> bytes:
    # exact type tests first: text and int cells are nearly all of them
    if type(value) is str:
        return b"t" + value.encode("utf-8")
    if type(value) is int:
        return b"i%d" % value
    if value is None:
        return b"n"
    if isinstance(value, bool):
        raise SchemaError("bool is not a supported cell value")
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, Decimal):
        # normalize() so 1.50 and 1.5 (equal values) hash identically; it
        # keeps the sign of a zero, so every zero takes the bytes of 0
        if not value:
            return b"d0"
        return b"d" + str(value.normalize(EXACT)).encode()
    return b"t" + value.encode("utf-8")


_MODULUS = 1 << 64
# 0xff never occurs in UTF-8, and the other encodings are ASCII, so fields
# joined by it cannot run together
_SEP = b"\xff"


def _blake2b(data: bytes, digest_size: int):
    """hashlib's blake2b. The first call imports it and rebinds this name to
    it, so a start that takes no fingerprint never loads the hash module
    and later digests call blake2b directly."""
    global _blake2b
    from hashlib import blake2b as _blake2b

    return _blake2b(data, digest_size=digest_size)


def _digest(fields: list[bytes]) -> int:
    data = _SEP.join(fields)
    return int.from_bytes(_blake2b(data, digest_size=8).digest(), "big")


def _header_digest(schema, row_count: int) -> int:
    # a row's fields start with its index, so a header never reads as a row
    fields = [b"schema", b"%d" % row_count]
    for meta in schema:
        fields += (meta.name.encode("utf-8"), meta.kind.encode())
    return _digest(fields)


def _row_digest(index: int, row) -> int:
    """The 64-bit digest of one row at its position."""
    return _digest([b"%d" % index, *map(_canonical_cell, row)])


def _infer_kind(cells: Collection[str]) -> str:
    """Kind of a column from its non-null cells: integer if every one is an
    integer literal, else decimal if every one parses as a decimal, else
    text (also for a column with no value). An integer literal always
    matches the decimal pattern, so that is tried only from the first cell
    that is not one."""
    if not cells:
        return TEXT
    cells = iter(cells)
    # str.isdecimal accepts exactly the unsigned literals (\d is category
    # Nd, as isdecimal is) at a fraction of a match's cost; filterfalse
    # consumes the cells up to and including the one it yields
    not_int = next(
        filterfalse(_INT_RE.match, filterfalse(str.isdecimal, cells)), None
    )
    if not_int is None:
        return INTEGER
    if _DEC_RE.match(not_int) and all(map(_DEC_RE.match, cells)):
        return DECIMAL
    return TEXT


def _out_of_range(
    column: Sequence[str], name: str, kind: str, lines: Sequence[int], null_token: str
) -> IngestError:
    """The error for the first cell of `column` that matches `kind` but that
    its type rejects: an integer of more digits than `int()` converts, or a
    decimal whose exponent is past the decimal module's range."""
    convert = KIND_TYPES[kind]
    for cell, line in zip(column, lines):
        if cell != null_token:
            try:
                convert(cell)
            except (ValueError, InvalidOperation):
                return IngestError(f"line {line}: {kind} in {name!r} is out of range")
    raise AssertionError("no cell of the column fails to convert")


# records held at once before they are moved into the column lists
CHUNK_RECORDS = 1024


def _lines(text: str) -> Iterator[str]:
    """The lines of `text`, each with its "\n", split at "\n" only, as a
    text stream of newline "\n" splits them: a lone "\r" stays inside its
    line, where the csv reader refuses it."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _transpose(
    chunk: list[list[str]],
    columns: list[list[str]],
    seen: list[dict[str, str] | None],
    lines: Sequence[int],
) -> str:
    """Append each record of the chunk to the column lists, field by field,
    or return the error for the chunk's first record of another arity, in
    which case nothing is appended. `lines` ends with the chunk's lines.
    A column with a dict of `seen` texts appends the first text it saw
    equal to a cell, so the chunk's own copies go with the chunk. Once more
    than half its cells are distinct, the dict would cost more than it
    shares, and the column is dropped from `seen` (set to None)."""
    arity = len(columns)
    if not set(map(len, chunk)) <= {arity}:
        for record, line in zip(chunk, lines[len(lines) - len(chunk):]):
            if len(record) != arity:
                return f"line {line}: expected {arity} fields, got {len(record)}"
    for j, (column, texts, cells) in enumerate(zip(columns, seen, zip(*chunk))):
        if texts is None:
            column.extend(cells)
            continue
        column.extend(map(texts.setdefault, cells, cells))
        if 2 * len(texts) > len(column):
            seen[j] = None
    return ""


def load_csv(
    source: str | os.PathLike | bytes | IO,
    *,
    name: str = "table",
    has_header: bool = True,
    null_token: str = "",
) -> Relation:
    """Ingest CSV into a typed relation.

    `source` is a file path, raw bytes, or an open text/binary stream.
    Cells equal to `null_token` become None before kind inference. Column
    kinds: integer if every non-null cell is an integer literal, else
    decimal if every non-null cell parses as a decimal, else text. While
    reading, a column of repeated cells keeps one text per distinct cell
    (one of mostly distinct cells keeps the reader's texts), and each
    distinct cell is inferred from and converted once, so equal cells of a
    column share one value object. Without a header, attributes are named
    col0..colN-1.
    """
    where = "CSV source"
    if isinstance(source, (str, os.PathLike)):
        where = repr(os.fspath(source))
        try:
            with open(source, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise IngestError(f"cannot read {where}: {exc.strerror}") from exc
    elif isinstance(source, bytes):
        raw = source
    elif hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    else:
        raise TypeError(f"cannot ingest from {type(source).__name__}")

    try:
        # the lines hold the only reference to the text, so it goes once
        # they are read
        reader = csv.reader(_lines(raw.decode("utf-8-sig")))
    except UnicodeDecodeError as exc:
        raise IngestError(f"cannot parse {where}: {exc}") from exc
    del raw
    # every record is read before any other error is raised, so a csv
    # error anywhere wins over the header and the records' arity
    header: list[str] | None = None
    columns: list[list[str]] = []
    seen: list[dict[str, str] | None] = []  # per column, its distinct texts
    data_lines = array("q")  # each record's line, to name it in an error
    chunk: list[list[str]] = []
    ragged = ""  # the error for the first record of another arity
    try:
        for record in reader:
            if not record:
                continue  # tolerate blank lines
            if header is None:
                columns = [[] for _ in record]
                seen = [{} for _ in record]
                if has_header:
                    header = record
                    continue
                header = [f"col{i}" for i in range(len(record))]
            chunk.append(record)
            data_lines.append(reader.line_num)
            if len(chunk) == CHUNK_RECORDS:
                ragged = ragged or _transpose(chunk, columns, seen, data_lines)
                chunk.clear()
        ragged = ragged or _transpose(chunk, columns, seen, data_lines)
    except csv.Error as exc:
        raise IngestError(f"cannot parse {where}: {exc}") from exc

    if header is None:
        raise SchemaError("empty source: no records to ingest")
    if has_header and len(set(header)) != len(header):
        raise SchemaError(f"duplicate attribute name in header: {header}")
    if ragged:
        raise IngestError(ragged)

    kinds = []
    for j, column in enumerate(columns):
        # the kind depends only on the set of cells, so each distinct cell is
        # inferred from and converted once, and equal cells share one value;
        # the column's distinct texts are dropped with it
        distinct, seen[j] = seen[j], None
        if distinct is None:
            distinct = dict.fromkeys(column)
        distinct.pop(null_token, None)
        kind = _infer_kind(distinct)
        convert = KIND_TYPES[kind]  # str() of a str is that str
        try:
            values = dict(zip(distinct, map(convert, distinct)))
        except (ValueError, InvalidOperation):
            error = _out_of_range(column, header[j], kind, data_lines, null_token)
            raise error from None
        values[null_token] = None
        columns[j] = list(map(values.__getitem__, column))
        kinds.append(kind)
    metas = tuple(
        AttributeMeta(n, i, k) for i, (n, k) in enumerate(zip(header, kinds))
    )
    rows = tuple(zip(*columns))  # a header has at least one field
    return Relation(name, metas, rows)


# --- row predicates ---------------------------------------------------------

class Comparison(Record):
    attribute: str
    op: str  # one of = != < <= > >=
    constant: Value


class And(Record):
    items: tuple  # empty tuple is the always-true predicate


class Or(Record):
    items: tuple


class Not(Record):
    item: object


RowPredicate = Union[Comparison, And, Or, Not]

TRUE = And(())


# Row conditions, the SELECT WHERE tree, SELECTDEP and MINEFD conditions all
# build, print and evaluate And/Or/Not trees over their own leaves with the
# functions below.

def _joined(node, items: list):
    return items[0] if len(items) == 1 else node(tuple(items))


def parse_and_or(ts: TokenStream, atom):
    """Parse an OR of AND-chains over the leaf parser `atom(ts)`. AND binds
    tighter than OR, parentheses group, and a lone item stays bare."""
    alternatives = []
    while True:
        chain = [parse_operand(ts, atom)]
        while ts.accept_kw("AND"):
            chain.append(parse_operand(ts, atom))
        alternatives.append(_joined(And, chain))
        if not ts.accept_kw("OR"):
            return _joined(Or, alternatives)


def parse_operand(ts: TokenStream, atom):
    """One operand of AND/OR (or of NOT): a parenthesized condition or a leaf."""
    if ts.accept_punct("("):
        node = parse_and_or(ts, atom)
        ts.expect_punct(")")
        return node
    return atom(ts)


def walk(node):
    """Every node of a condition tree, parents first, left to right. Leaves
    are not entered: an FD predicate's ON condition is not part of the walk."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.items))
        elif isinstance(node, Not):
            stack.append(node.item)


def condition_to_text(node, leaf_text) -> str:
    """Text that parses back to the same tree: `leaf_text` prints the
    leaves, and nested And/Or print in parentheses."""
    if not isinstance(node, (And, Or, Not)):
        return leaf_text(node)
    parts = []
    # a plain loop keeps printing at one stack frame per level, fewer than
    # parsing takes, so any tree that parsed also prints
    for item in (node.item,) if isinstance(node, Not) else node.items:
        text = condition_to_text(item, leaf_text)
        parts.append(f"({text})" if isinstance(item, (And, Or)) else text)
    if isinstance(node, Not):
        return f"NOT {parts[0]}"
    return (" AND " if isinstance(node, And) else " OR ").join(parts)


def eval_condition(node, leaf, universe: Iterable) -> set:
    """Fold an And/Or/Not tree into a set: `leaf(node)` gives the members
    each leaf admits, And intersects, Or unites, and Not complements within
    `universe`, which only Not and the empty And read. Leaf sets are read,
    never changed. It takes one stack frame per level, fewer than parsing
    takes, so any tree that parsed evaluates."""
    if isinstance(node, And):
        if not node.items:
            return set(universe)
        result = eval_condition(node.items[0], leaf, universe)
        for item in node.items[1:]:
            # a new set, not `&=`: the first may be a leaf's own set
            result = result & eval_condition(item, leaf, universe)
        return result
    if isinstance(node, Or):
        result = set()
        for item in node.items:
            result |= eval_condition(item, leaf, universe)
        return result
    if isinstance(node, Not):
        inner = eval_condition(node.item, leaf, universe)
        return set(filterfalse(inner.__contains__, universe))
    return leaf(node)


COMPARISON_OPS = dict(zip(COMPARISONS, (
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge
)))


def check_comparable(kind: str, constant: Value) -> None:
    """Raise unless a constant of this Python type can meet column `kind`."""
    if constant is None:
        raise KindMismatchError("comparisons against null are not expressible")
    if isinstance(constant, bool):
        raise KindMismatchError("bool constants are not supported")
    if kind == TEXT:
        if not isinstance(constant, str):
            raise KindMismatchError(
                f"text attribute compared against {type(constant).__name__}"
            )
    else:
        if not isinstance(constant, (int, Decimal)):
            raise KindMismatchError(
                f"numeric attribute compared against {type(constant).__name__}"
            )


def compare_values(value: Value, op: str, constant: Value) -> bool:
    """Three-valued comparison collapsed to bool: null operands never match."""
    if value is None:
        return False
    return COMPARISON_OPS[op](value, constant)


def eval_row_predicate(relation: Relation, predicate: RowPredicate) -> set[int]:
    """Rows (by 0-based index) satisfying the predicate.

    Text compares in code-point order; numeric compares by value across
    int and Decimal. NOT complements within the relation's row set, so
    rows carrying nulls in the tested attribute satisfy NOT(atom).
    """

    def comparison_rows(node) -> set[int]:
        if not isinstance(node, Comparison):
            raise TypeError(f"not a row predicate node: {node!r}")
        meta = relation.attribute(node.attribute)
        check_comparable(meta.kind, node.constant)
        compare = COMPARISON_OPS.get(node.op)
        if compare is None:
            raise KindMismatchError(f"unknown operator {node.op!r}")
        const = node.constant
        values = map(operator.itemgetter(meta.index), relation.rows)
        # a null never matches, as in compare_values
        return {
            i for i, value in zip(relation.row_numbers, values)
            if value is not None and compare(value, const)
        }

    return eval_condition(predicate, comparison_rows, relation.row_numbers)
