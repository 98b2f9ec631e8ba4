"""Typed in-memory relations, CSV ingestion, and row predicates.

A relation is an immutable snapshot: attribute metadata plus a tuple of
rows. Cell values are int, Decimal, str, or None. Decimal keeps CSV
decimals exact, and equal values hash equally across int/Decimal, which
the partition layer relies on. Every relation carries a 64-bit content
fingerprint so downstream artifacts can detect that their source table
changed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import operator
import os
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import IO, Iterable, Sequence, Union

from .errors import (
    IngestError,
    KindMismatchError,
    NameResolutionError,
    SchemaError,
)

Value = Union[int, Decimal, str, None]

INTEGER = "integer"
DECIMAL = "decimal"
TEXT = "text"
KINDS = (INTEGER, DECIMAL, TEXT)

_INT_RE = re.compile(r"[+-]?\d+\Z")
_DEC_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")


@dataclass(frozen=True)
class AttributeMeta:
    name: str
    index: int
    kind: str


@dataclass(frozen=True)
class Relation:
    """Immutable table: name, attribute metadata, rows, content fingerprint."""

    name: str
    schema: tuple[AttributeMeta, ...]
    rows: tuple[tuple[Value, ...], ...]
    fingerprint: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fingerprint", _fingerprint(self.schema, self.rows))

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
            if meta.kind not in KINDS:
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
                if cell is None:
                    continue
                if meta.kind == INTEGER and not (
                    isinstance(cell, int) and not isinstance(cell, bool)
                ):
                    raise SchemaError(f"row {rowno}: {meta.name!r} expects int")
                if meta.kind == DECIMAL and not isinstance(cell, Decimal):
                    raise SchemaError(f"row {rowno}: {meta.name!r} expects Decimal")
                if meta.kind == TEXT and not isinstance(cell, str):
                    raise SchemaError(f"row {rowno}: {meta.name!r} expects str")
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
        """New snapshot with the same schema and replaced rows."""
        return Relation(self.name, self.schema, tuple(tuple(r) for r in rows))


def _canonical_cell(value: Value) -> bytes:
    if value is None:
        return b"n"
    if isinstance(value, bool):
        raise SchemaError("bool is not a supported cell value")
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, Decimal):
        # normalize() so 1.50 and 1.5 (equal values) hash identically
        return b"d" + str(value.normalize()).encode()
    return b"t" + value.encode("utf-8")


def _fingerprint(schema, rows) -> int:
    h = hashlib.blake2b(digest_size=8)
    for meta in schema:
        h.update(meta.name.encode("utf-8"))
        h.update(b"\x1f")
        h.update(meta.kind.encode())
        h.update(b"\x1e")
    h.update(b"\x1d")
    for row in rows:
        for cell in row:
            h.update(_canonical_cell(cell))
            h.update(b"\x1f")
        h.update(b"\x1e")
    return int.from_bytes(h.digest(), "big")


def _infer_kind(cells: Iterable[str]) -> str:
    saw_value = False
    all_int = True
    all_dec = True
    for cell in cells:
        if cell is None:
            continue
        saw_value = True
        if all_int and not _INT_RE.match(cell):
            all_int = False
        if all_dec and not _DEC_RE.match(cell):
            all_dec = False
        if not all_dec:
            break
    if not saw_value:
        return TEXT
    if all_int:
        return INTEGER
    if all_dec:
        return DECIMAL
    return TEXT


def _convert(cell: str | None, kind: str) -> Value:
    if cell is None:
        return None
    if kind == INTEGER:
        return int(cell)
    if kind == DECIMAL:
        return Decimal(cell)
    return cell


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
    decimal if every non-null cell parses as a decimal, else text.
    Without a header, attributes are named col0..colN-1.
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

    records: list[list[str]] = []
    line_nums: list[int] = []
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8-sig")))
        for record in reader:
            if not record:
                continue  # tolerate blank lines
            records.append(record)
            line_nums.append(reader.line_num)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot parse {where}: {exc}") from exc

    if not records:
        raise SchemaError("empty source: no records to ingest")

    if has_header:
        header = records[0]
        data = records[1:]
        data_lines = line_nums[1:]
        if len(set(header)) != len(header):
            raise SchemaError(f"duplicate attribute name in header: {header}")
    else:
        header = [f"col{i}" for i in range(len(records[0]))]
        data = records
        data_lines = line_nums

    arity = len(header)
    for record, line in zip(data, data_lines):
        if len(record) != arity:
            raise IngestError(
                f"line {line}: expected {arity} fields, got {len(record)}"
            )

    columns: list[list[str | None]] = [
        [None if cell == null_token else cell for cell in col]
        for col in zip(*data)
    ] if data else [[] for _ in header]

    kinds = [_infer_kind(col) for col in columns]
    metas = tuple(
        AttributeMeta(n, i, k) for i, (n, k) in enumerate(zip(header, kinds))
    )
    rows = tuple(
        tuple(_convert(columns[j][i], kinds[j]) for j in range(arity))
        for i in range(len(data))
    )
    return Relation(name, metas, rows)


# --- row predicates ---------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    attribute: str
    op: str  # one of = != < <= > >=
    constant: Value


@dataclass(frozen=True)
class And:
    items: tuple  # empty tuple is the always-true predicate


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: object


RowPredicate = Union[Comparison, And, Or, Not]

TRUE = And(())

COMPARISON_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


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
    n = relation.row_count
    if isinstance(predicate, Comparison):
        meta = relation.attribute(predicate.attribute)
        check_comparable(meta.kind, predicate.constant)
        idx, op, const = meta.index, predicate.op, predicate.constant
        if op not in COMPARISON_OPS:
            raise KindMismatchError(f"unknown operator {op!r}")
        return {
            i for i, row in enumerate(relation.rows)
            if compare_values(row[idx], op, const)
        }
    if isinstance(predicate, And):
        result = set(range(n))
        for item in predicate.items:
            result &= eval_row_predicate(relation, item)
        return result
    if isinstance(predicate, Or):
        result: set[int] = set()
        for item in predicate.items:
            result |= eval_row_predicate(relation, item)
        return result
    if isinstance(predicate, Not):
        return set(range(n)) - eval_row_predicate(relation, predicate.item)
    raise TypeError(f"not a row predicate node: {predicate!r}")
