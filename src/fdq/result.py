"""Result plumbing: the tabular value every query evaluator returns."""

from __future__ import annotations

from .record import Record


class ResultTable(Record):
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        if not set(map(len, self.rows)) <= {len(self.columns)}:
            raise ValueError("row arity does not match columns")


def format_cell(value) -> str:
    """Deterministic text form of a cell. None renders empty; a float's
    str is its repr, so it reads back as the same float."""
    return "" if value is None else str(value)
