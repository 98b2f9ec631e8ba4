"""Conditional dependencies: pattern tableaux and their scores.

A conditional dependency embeds X -> A with a pattern tableau (Fan et al.,
TODS 2008) whose cells are wildcards (None) or (op, constant) constraints.
`_resolve` is the one place a tableau meets a relation: it checks that
each attribute names a column and turns each pattern row into its cells'
comparisons, which `eval_row_predicate` checks and evaluates, so
matching, support and confidence read cells alike.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Mapping, Sequence, Union

from .errors import ContractError
from .partition import partition_of
from .record import Record
from .relation import And, Comparison, Relation, eval_row_predicate

Cell = Union[None, tuple]  # None is a wildcard; otherwise (op, constant)


class PatternTableau(Record):
    """Rows of per-attribute cells; a cell is a wildcard or (op, constant)."""

    attributes: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ContractError("a tableau needs at least one row")
        if len(set(self.attributes)) != len(self.attributes):
            raise ContractError("duplicate attribute in tableau")
        for row in self.rows:
            if len(row) != len(self.attributes):
                raise ContractError("tableau row arity mismatch")
            for cell in row:
                if cell is not None and (type(cell) is not tuple or len(cell) != 2):
                    raise ContractError("a cell is None or an (op, constant) pair")


class CFD(Record):
    """A dependency embedded with a pattern tableau restricted to it."""

    lhs: tuple[str, ...]
    rhs: str
    tableau: PatternTableau

    def __post_init__(self):
        allowed = set(self.lhs) | {self.rhs}
        outside = set(self.tableau.attributes) - allowed
        if outside:
            raise ContractError(
                f"tableau touches attributes outside the dependency: {sorted(outside)}"
            )


# --- matching -------------------------------------------------------------------

def _resolve(relation: Relation, tableau: PatternTableau) -> list[list[Comparison]]:
    """Each pattern row as the comparisons of its constrained cells.

    Raises NameResolutionError for an attribute the relation lacks,
    wildcards included; `eval_row_predicate` checks the cells.
    """
    for attribute in tableau.attributes:
        relation.attribute(attribute)
    return [
        [
            Comparison(a, *cell)
            for a, cell in zip(tableau.attributes, row) if cell is not None
        ]
        for row in tableau.rows
    ]


def _rows(relation: Relation, comparisons: list[Comparison]) -> set[int]:
    return eval_row_predicate(relation, And(tuple(comparisons)))


def tableau_match_rows(relation: Relation, tableau: PatternTableau) -> set[int]:
    """Rows matched by at least one pattern row."""
    return set().union(*(_rows(relation, p) for p in _resolve(relation, tableau)))


# --- scoring --------------------------------------------------------------------

def cfd_support(
    relation: Relation,
    lhs: Sequence[str],
    rhs: str,
    pattern: Mapping[str, Cell],
) -> float:
    """Fraction of rows the single pattern row matches (0.0 on no rows).

    The pattern must cover exactly the dependency's attributes; wildcards
    are None values, constraints are (op, constant) cells.
    """
    expected = set(lhs) | {rhs}
    if set(pattern) != expected:
        raise ContractError(
            f"pattern must cover exactly {sorted(expected)}, got {sorted(pattern)}"
        )
    tableau = PatternTableau(tuple(pattern), (tuple(pattern.values()),))
    matched = tableau_match_rows(relation, tableau)
    return len(matched) / relation.row_count if relation.row_count else 0.0


def cfd_confidence(relation: Relation, cfd: CFD) -> float:
    """Largest fraction of rows keepable so the conditional dependency holds.

    Rows are grouped by the full determinant. A group matched by no
    pattern row is kept whole. A matched group keeps the rows of its most
    frequent dependent value among values compatible with every matching
    pattern's dependent cell; if no value is compatible the group drops
    entirely. An empty relation scores 1.0.
    """
    # a pattern's determinant cells pick the groups it applies to; its
    # dependent cell then limits the values a picked group may keep
    picks, admits = [], []
    for pattern in _resolve(relation, cfd.tableau):
        picks.append(_rows(relation, [c for c in pattern if c.attribute != cfd.rhs]))
        admits.append(_rows(relation, [c for c in pattern if c.attribute == cfd.rhs]))
    lhs_idx = [relation.attribute(a).index for a in cfd.lhs]
    rhs_idx = relation.attribute(cfd.rhs).index
    n = relation.row_count
    if n == 0:
        return 1.0
    rows = relation.rows
    # the determinant's clusters, and each row outside them alone
    clusters = partition_of(relation, lhs_idx).clusters
    clustered = set(chain.from_iterable(clusters))
    alone = ((i,) for i in relation.row_numbers if i not in clustered)
    kept = 0
    for group in chain(clusters, alone):
        applying = [admit for pick, admit in zip(picks, admits) if group[0] in pick]
        if not applying:
            kept += len(group)
            continue
        counts = Counter(
            rows[i][rhs_idx] for i in group
            if all(i in admitted for admitted in applying)
        )
        if counts:
            kept += max(counts.values())
    return kept / n
