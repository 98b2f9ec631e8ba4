"""Conditional dependencies: pattern tableaux and their scores.

A conditional dependency embeds X -> A with a pattern tableau (Fan et al.,
TODS 2008) whose cells are wildcards (None) or (op, constant) constraints.
`_resolve` is the one place a tableau meets a relation: it checks that
each attribute names a column and turns each pattern row into its cells'
comparisons, which `eval_row_predicate` checks and evaluates, so
matching, support and confidence read cells alike. `condition_to_tableau`
compiles an ON scope of the extended SELECT into a tableau.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .errors import ContractError
from .partition import grouped
from .relation import (
    And,
    Comparison,
    Not,
    Or,
    Relation,
    RowPredicate,
    eval_row_predicate,
)

Cell = Union[None, tuple]  # None is a wildcard; otherwise (op, constant)


@dataclass(frozen=True)
class PatternTableau:
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


@dataclass(frozen=True)
class CFD:
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
    kept = 0
    for group in grouped(relation, lhs_idx).values():
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


# --- compiling scope conditions -------------------------------------------------

_FLIP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def _dnf(node, negate: bool = False) -> list[list[Comparison]]:
    """Disjunctive normal form of the condition, or of its negation when
    `negate` is set: negations move down to the comparisons, flipping their
    operators, and De Morgan turns a negated AND into an OR and back."""
    if isinstance(node, Comparison):
        # an unknown operator is kept as it is, for `eval_row_predicate`
        # to reject
        op = _FLIP.get(node.op, node.op) if negate else node.op
        return [[Comparison(node.attribute, op, node.constant)]]
    if isinstance(node, Not):
        return _dnf(node.item, not negate)
    if isinstance(node, (And, Or)):
        parts = [_dnf(item, negate) for item in node.items]
        if isinstance(node, Or) != negate:
            return [branch for part in parts for branch in part]
        branches: list[list[Comparison]] = [[]]
        for part in parts:
            branches = [b + extra for b in branches for extra in part]
        return branches
    raise ContractError("tableau conversion accepts row conditions only")


def condition_to_tableau(
    condition: RowPredicate,
    lhs: Sequence[str],
    rhs: str,
    relation: Relation,
) -> PatternTableau:
    """Compile a scope condition into pattern rows over lhs plus rhs.

    Each disjunct of the condition's disjunctive normal form becomes one
    row. Negations flip comparison operators, which treats missing values
    as unmatched on both sides. Atoms must stay within lhs and rhs, and a
    disjunct may constrain an attribute only once; either violation is an
    error because the cell shape cannot express it. The tableau is
    matched against the relation once before it is returned, which checks
    its cells.
    """
    attributes = tuple(dict.fromkeys(list(lhs) + [rhs]))
    rows = []
    for branch in _dnf(condition):
        cells: dict[str, tuple] = {}
        for atom in branch:
            if atom.attribute not in attributes:
                raise ContractError(
                    f"condition touches {atom.attribute!r}, outside the dependency"
                )
            cell = (atom.op, atom.constant)
            if cells.setdefault(atom.attribute, cell) != cell:
                raise ContractError(
                    f"two constraints on {atom.attribute!r} in one branch"
                )
        rows.append(tuple(cells.get(a) for a in attributes))
    tableau = PatternTableau(attributes, tuple(dict.fromkeys(rows)))
    tableau_match_rows(relation, tableau)
    return tableau
