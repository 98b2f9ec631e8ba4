"""Extended SELECT: row queries with dependency predicates.

HOLDS keeps the rows on which a dependency is intact, NOT HOLDS keeps the
witnesses against it, VIOLATES flags suspect values that sit close to a
conflicting sibling, and DEPENDENT projects the attributes a given set
minimally determines. Dependency predicates evaluate against the whole
table (or their ON scope) first; the surrounding WHERE tree then combines
those row sets with plain filters using ordinary set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from decimal import Decimal
from typing import Sequence, Union

from .errors import ContractError, ParameterError, ParseError
from . import partition
from .partition import FDCandidate, error_measure, grouped, violating_rows
from .relation import (
    COMPARISON_OPS,
    And,
    Comparison,
    Not,
    Or,
    Relation,
    RowPredicate,
    Value,
    check_comparable,
    compare_values,
    condition_to_text,
    eval_condition,
    eval_row_predicate,
    parse_and_or,
    parse_operand,
    walk,
)
from .result import ResultTable
from .tokens import Token, TokenStream, is_kw, statement_parser

DEFAULT_VIOLATION_THRESHOLD = 0.75

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


@dataclass(frozen=True)
class FdPredicate:
    kind: str  # "holds" | "not_holds" | "violates"
    lhs: tuple[str, ...]
    rhs: str
    on: RowPredicate | None = None
    error: float | None = None  # holds: error bound; violates: distance bound
    suspect: str | None = None  # violates only


@dataclass(frozen=True)
class StarProjection:
    pass


@dataclass(frozen=True)
class ColumnProjection:
    names: tuple[str, ...]


@dataclass(frozen=True)
class DependentProjection:
    attributes: tuple[str, ...]
    error: float | None = None


Projection = Union[StarProjection, ColumnProjection, DependentProjection]


@dataclass(frozen=True)
class ExtendedSelect:
    projection: Projection
    source: str
    where: object | None = None  # tree over Comparison/FdPredicate leaves


# --- parsing ------------------------------------------------------------------

def parse_literal(ts: TokenStream) -> Value:
    """A quoted string or an optionally negated number."""
    tok = ts.peek()
    if tok.kind == "string":
        ts.advance()
        return tok.value
    negative = False
    if tok.kind == "punct" and tok.text == "-":
        ts.advance()
        negative = True
    num = ts.expect_number()
    value = num.value
    return -value if negative else value


def _parse_comparison(ts: TokenStream, bracketed: bool) -> Comparison:
    attr = ts.expect_string("a quoted attribute name").value
    op_tok = ts.peek()
    if op_tok.kind != "punct" or op_tok.text not in COMPARISON_OPS:
        raise ts.error("expected a comparison operator")
    ts.advance()
    constant = parse_literal(ts)
    if bracketed:
        ts.expect_punct("]")
    return Comparison(attr, op_tok.text, constant)


def _parse_condition_atom(ts: TokenStream):
    if ts.accept_kw("NOT"):
        return Not(parse_operand(ts, _parse_condition_atom))
    if ts.accept_punct("["):
        return _parse_comparison(ts, bracketed=True)
    return _parse_comparison(ts, bracketed=False)


def parse_row_condition(ts: TokenStream):
    """Plain row condition: comparisons (bracketed or bare) under AND/OR/NOT."""
    return parse_and_or(ts, _parse_condition_atom)


def _parse_name_list(ts: TokenStream) -> tuple[str, ...]:
    names = [ts.expect_string("a quoted attribute name").value]
    while ts.accept_punct(","):
        names.append(ts.expect_string("a quoted attribute name").value)
    return tuple(names)


def _parse_fd_body(ts: TokenStream, allow_on: bool, allow_error: bool, op: str):
    """Common tail of HOLDS/NOT HOLDS/VIOLATES: (lhs -> rhs [ON c] [, ERROR op r])."""
    ts.expect_punct("(")
    lhs = _parse_name_list(ts)
    ts.expect_punct("->")
    # the rhs list ends at a comma not followed by a name (ERROR clause)
    rhs = [ts.expect_string("a quoted attribute name").value]
    while (
        ts.peek().kind == "punct"
        and ts.peek().text == ","
        and ts.peek(1).kind == "string"
    ):
        ts.advance()
        rhs.append(ts.advance().value)
    rhs = tuple(rhs)
    on = None
    error = None
    if allow_on and ts.accept_kw("ON"):
        on = parse_row_condition(ts)
    if ts.accept_punct(","):
        if not allow_error:
            raise ts.error("this predicate does not take an ERROR bound")
        ts.expect_kw("ERROR")
        if op == "<=":
            ts.expect_punct("<=")
        else:
            ts.expect_punct("=")
        error = ts.expect_bound()
    ts.expect_punct(")")
    return lhs, rhs, on, error


def _fan_out(kind, lhs, rhs_list, on, error, suspect=None):
    """One predicate per dependent. NOT HOLDS keeps the witnesses against
    any of them, so it joins with OR; HOLDS and VIOLATES join with AND."""
    preds = tuple(
        FdPredicate(kind, lhs, rhs, on=on, error=error, suspect=suspect)
        for rhs in rhs_list
    )
    if len(preds) == 1:
        return preds[0]
    return Or(preds) if kind == "not_holds" else And(preds)


def _parse_where_item(ts: TokenStream):
    tok = ts.peek()
    if is_kw(tok, "NOT"):
        nxt = ts.peek(1)
        if is_kw(nxt, "HOLDS"):
            ts.advance()
            ts.advance()
            lhs, rhs, on, _ = _parse_fd_body(ts, allow_on=True, allow_error=False, op="=")
            return _fan_out("not_holds", lhs, rhs, on, None)
        ts.advance()
        inner = parse_operand(ts, _parse_where_item)
        return _negate_where(ts, tok, inner)
    if is_kw(tok, "HOLDS"):
        ts.advance()
        lhs, rhs, on, error = _parse_fd_body(ts, allow_on=True, allow_error=True, op="=")
        return _fan_out("holds", lhs, rhs, on, error)
    if tok.kind == "string" and is_kw(ts.peek(1), "VIOLATES"):
        suspect = ts.advance().value
        ts.advance()
        lhs, rhs, _, error = _parse_fd_body(ts, allow_on=False, allow_error=True, op="<=")
        if suspect not in lhs:
            raise ts.error(f"suspect {suspect!r} must be part of the determinant")
        return _fan_out("violates", lhs, rhs, None, error, suspect=suspect)
    if tok.kind == "punct" and tok.text == "[":
        ts.advance()
        return _parse_comparison(ts, bracketed=True)
    if tok.kind == "string":
        return _parse_comparison(ts, bracketed=False)
    raise ts.error("expected a predicate or a comparison")


def _negate_where(ts: TokenStream, not_tok: Token, inner):
    """NOT over a where item: flip dependency predicates, wrap row trees.

    A group made of dependency predicates alone flips by De Morgan, so the
    NOT of a multi-dependent HOLDS (an AND) is the OR of its NOT HOLDS. A
    NOT that cannot apply is reported at `not_tok`.
    """
    if isinstance(inner, FdPredicate):
        if inner.kind == "holds" and inner.error is None:
            return FdPredicate("not_holds", inner.lhs, inner.rhs, on=inner.on)
        if inner.kind == "not_holds":
            return FdPredicate("holds", inner.lhs, inner.rhs, on=inner.on)
        raise ts.error("only exact HOLDS / NOT HOLDS can be negated", not_tok)
    if all(isinstance(node, (And, Or, FdPredicate)) for node in walk(inner)):
        flipped = tuple(_negate_where(ts, not_tok, item) for item in inner.items)
        return Or(flipped) if isinstance(inner, And) else And(flipped)
    if any(isinstance(node, FdPredicate) for node in walk(inner)):
        raise ts.error(
            "NOT cannot wrap a group containing dependency predicates", not_tok
        )
    return Not(inner)


@statement_parser
def parse_extended_select(text: str) -> ExtendedSelect:
    """Parse `SELECT <projection> FROM <table> [WHERE <tree>]`.

    The projection is *, a list of quoted attribute names, or
    DEPENDENT(["A", ...][, ERROR = r]). Multi-attribute right-hand sides
    inside a predicate fan out into single-rhs predicates: a conjunction
    for HOLDS and VIOLATES, a disjunction for NOT HOLDS, so NOT HOLDS
    returns the witnesses against any dependent, the complement of HOLDS.
    """
    ts = TokenStream(text)
    ts.expect_kw("SELECT")
    if ts.accept_punct("*"):
        projection: Projection = StarProjection()
    elif ts.accept_kw("DEPENDENT"):
        ts.expect_punct("(")
        ts.expect_punct("[")
        attrs = _parse_name_list(ts)
        ts.expect_punct("]")
        error = None
        if ts.accept_punct(","):
            ts.expect_kw("ERROR")
            ts.expect_punct("=")
            error = ts.expect_bound()
        ts.expect_punct(")")
        projection = DependentProjection(attrs, error)
    else:
        projection = ColumnProjection(_parse_name_list(ts))
    ts.expect_kw("FROM")
    source = ts.expect_ident("a table name")
    where = None
    if ts.accept_kw("WHERE"):
        where = parse_and_or(ts, _parse_where_item)
    ts.expect_end()
    return ExtendedSelect(projection, source, where)


# --- printing -----------------------------------------------------------------

def _literal_to_text(value: Value) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, (int, Decimal)):
        return str(value)
    raise TypeError(f"cannot print literal {value!r}")


def _leaf_to_text(node) -> str:
    if isinstance(node, Comparison):
        return f'"{node.attribute}" {node.op} {_literal_to_text(node.constant)}'
    if isinstance(node, FdPredicate):
        return _fd_predicate_to_text(node)
    raise TypeError(f"not a condition node: {node!r}")


def _fd_predicate_to_text(pred: FdPredicate) -> str:
    lhs = ", ".join(f'"{a}"' for a in pred.lhs)
    body = f'{lhs} -> "{pred.rhs}"'
    if pred.on is not None:
        body += f" ON {condition_to_text(pred.on, _leaf_to_text)}"
    if pred.kind == "holds":
        if pred.error is not None:
            body += f", ERROR = {pred.error!r}"
        return f"HOLDS ({body})"
    if pred.kind == "not_holds":
        return f"NOT HOLDS ({body})"
    if pred.kind == "violates":
        if pred.error is not None:
            body += f", ERROR <= {pred.error!r}"
        return f'"{pred.suspect}" VIOLATES ({body})'
    raise TypeError(f"unknown predicate kind {pred.kind!r}")


def select_to_text(ast: ExtendedSelect) -> str:
    """Canonical text form; parses back to an equal statement."""
    if isinstance(ast.projection, StarProjection):
        proj = "*"
    elif isinstance(ast.projection, ColumnProjection):
        proj = ", ".join(f'"{n}"' for n in ast.projection.names)
    else:
        attrs = ", ".join(f'"{a}"' for a in ast.projection.attributes)
        proj = f"DEPENDENT ([{attrs}]"
        if ast.projection.error is not None:
            proj += f", ERROR = {ast.projection.error!r}"
        proj += ")"
    text = f"SELECT {proj} FROM {ast.source}"
    if ast.where is not None:
        text += f" WHERE {condition_to_text(ast.where, _leaf_to_text)}"
    return text


# --- evaluation ---------------------------------------------------------------

def _resolve(relation: Relation, names: Sequence[str]) -> list[int]:
    return [relation.attribute(n).index for n in names]


def _scope_rows(relation: Relation, on: RowPredicate | None) -> list[int]:
    if on is None:
        return list(range(relation.row_count))
    return sorted(eval_row_predicate(relation, on))


def eval_holds(
    relation: Relation,
    lhs: Sequence[str],
    rhs: str,
    on_condition: RowPredicate | None = None,
    error: float | None = None,
) -> set[int]:
    """Scope rows on which the dependency holds.

    Exact mode removes every witness cluster. Approximate mode is staged:
    if the error over the scope is within the bound the clean rows come
    back, otherwise nothing does. Without witnesses the error is 0, so it
    is measured only when there are some.
    """
    lhs_idx = _resolve(relation, lhs)
    rhs_idx = relation.attribute(rhs).index
    scope = _scope_rows(relation, on_condition)
    if not scope:
        return set()
    bad = violating_rows(relation, lhs_idx, rhs_idx, scope)
    if error is None:
        return set(scope) - bad
    if not 0.0 <= error < 1.0:
        raise ParameterError(f"error bound {error} outside [0, 1)")
    if not bad:  # also covers a trivial candidate, dependent inside the determinant
        return set(scope)
    measured = error_measure(
        relation, FDCandidate(frozenset(lhs_idx), rhs_idx), scope, error
    )
    if measured <= error:
        return set(scope) - bad
    return set()


def eval_not_holds(
    relation: Relation,
    lhs: Sequence[str],
    rhs: str,
    on_condition: RowPredicate | None = None,
) -> set[int]:
    """Scope rows that witness a violation: the complement of exact HOLDS."""
    lhs_idx = _resolve(relation, lhs)
    rhs_idx = relation.attribute(rhs).index
    scope = _scope_rows(relation, on_condition)
    return violating_rows(relation, lhs_idx, rhs_idx, scope)


def _levenshtein(a: str, b: str, k: int) -> int:
    """Edit distance of a and b when it is at most k, otherwise k + 1.

    Only cells within k of the diagonal are filled, since a cell further
    off needs more than k edits, and the scan stops once every cell of a
    row exceeds k, since no later row can go back below it (Ukkonen,
    "Algorithms for approximate string matching", 1985).
    """
    if len(a) < len(b):
        a, b = b, a
    n, p = len(a), len(b)
    over = k + 1
    previous = list(range(p + 1))
    for i in range(1, n + 1):
        ca = a[i - 1]
        lo = max(1, i - k)
        hi = min(p, i + k)
        current = [over] * (p + 1)
        if i <= k:
            current[0] = i
        left = best = current[lo - 1]
        for j in range(lo, hi + 1):
            x = previous[j - 1] + (ca != b[j - 1])
            if previous[j] + 1 < x:
                x = previous[j] + 1
            if left + 1 < x:
                x = left + 1
            if x < best:
                best = x
            current[j] = left = x
        if best > k:
            return over
        previous = current
    return min(previous[p], over)


def value_distance(
    a: Value, b: Value, kind: str, threshold: float | None = None
) -> float:
    """Normalized distance in [0, 1]: edit distance for text, relative
    difference for numbers, capped at 1.

    With a threshold, a text distance is exact up to k = floor(threshold *
    m) + 1 edits, m the longer length; past k the result is a lower bound
    that still compares greater than the threshold. Without one it is
    always exact.
    """
    if a is None or b is None:
        raise ContractError("distance over null is undefined")
    if kind == "text":
        if a == b:
            return 0.0
        m = max(len(a), len(b), 1)
        # a bound of 1 or more admits every distance, so k is m, the largest
        # one; that also keeps threshold * m from overflowing
        k = m if threshold is None or threshold >= 1 else int(threshold * m) + 1
        if abs(len(a) - len(b)) > k:
            return (k + 1) / m  # every alignment needs the length gap in edits
        return _levenshtein(a, b, k) / m
    fa, fb = float(a), float(b)
    if fa == fb:
        return 0.0
    # values of opposite sign differ by more than the larger magnitude
    return min(1.0, abs(fa - fb) / max(abs(fa), abs(fb)))


def eval_violates(
    relation: Relation,
    suspect: str,
    lhs: Sequence[str],
    rhs: str,
    threshold: float = DEFAULT_VIOLATION_THRESHOLD,
) -> set[int]:
    """Rows whose suspect value clashes with a nearby alternative.

    Rows are grouped by the rest of the determinant plus the dependent;
    inside a group with two or more distinct suspect values, a row is
    returned when some *other* distinct value lies within the threshold.
    Rows with a null suspect value are never returned.
    """
    if suspect not in lhs:
        raise ContractError(f"suspect {suspect!r} must be part of the determinant")
    if threshold < 0:
        raise ParameterError(f"distance threshold {threshold} is negative")
    suspect_meta = relation.attribute(suspect)
    kind = suspect_meta.kind
    group_attrs = [
        relation.attribute(a).index for a in lhs if a != suspect
    ] + [relation.attribute(rhs).index]
    rows = relation.rows
    result: set[int] = set()
    for group in grouped(relation, group_attrs).values():
        # distinct values in row order, so the distances computed before
        # the first close sibling is found do not depend on string hashing
        values = [
            v
            for v in dict.fromkeys(rows[i][suspect_meta.index] for i in group)
            if v is not None
        ]
        if len(values) < 2:
            continue
        close = {
            v
            for v in values
            if any(
                value_distance(v, o, kind, threshold) <= threshold
                for o in values
                if o != v
            )
        }
        result.update(
            i for i in group if rows[i][suspect_meta.index] in close
        )
    return result


def eval_dependent(
    relation: Relation, attributes: Sequence[str], error: float | None = None
) -> list[str]:
    """Attributes the given set minimally determines, in schema order.

    An attribute qualifies when the full set meets the error bound but no
    non-empty proper subset does; the bound defaults to exact. The error
    never rises as the determinant grows, so only the maximal proper
    subsets (one attribute dropped) need checking.
    """
    if not attributes:
        raise ParameterError("DEPENDENT needs at least one attribute")
    bound = 0.0 if error is None else error
    if not 0.0 <= bound < 1.0:
        raise ParameterError(f"error bound {bound} outside [0, 1)")
    x = sorted(set(_resolve(relation, attributes)))
    n = relation.row_count
    outside = [meta.index for meta in relation.schema if meta.index not in x]
    # partition functions are looked up at call time, so the benchmark's
    # tracer, which swaps fdq.partition.pli_of, counts these groupings
    ids = {
        a: partition.value_ids(partition.pli_of(relation, [a])) for a in outside
    }

    def passing(lhs: list[int], candidates: list[int]) -> set[int]:
        pli = partition.pli_of(relation, lhs)
        errors = partition.pair_errors(pli, [ids[a] for a in candidates], n, bound)
        return {a for a, err in zip(candidates, errors) if err <= bound}

    qualifying = sorted(passing(x, outside))
    # the empty set is no candidate, so a single attribute has no subset to try
    maximal_subsets = [[a for a in x if a != d] for d in x] if len(x) > 1 else []
    for subset in maximal_subsets:
        if qualifying:
            qualifying = sorted(set(qualifying) - passing(subset, qualifying))
    return [relation.schema[a].name for a in qualifying]


def _where_leaf_rows(relation: Relation, node) -> set[int]:
    if isinstance(node, Comparison):
        return eval_row_predicate(relation, node)
    if isinstance(node, FdPredicate):
        if node.kind == "holds":
            return eval_holds(relation, node.lhs, node.rhs, node.on, node.error)
        if node.kind == "not_holds":
            return eval_not_holds(relation, node.lhs, node.rhs, node.on)
        if node.kind == "violates":
            threshold = (
                node.error if node.error is not None else DEFAULT_VIOLATION_THRESHOLD
            )
            return eval_violates(
                relation, node.suspect, node.lhs, node.rhs, threshold
            )
        raise ContractError(f"unknown predicate kind {node.kind!r}")
    raise TypeError(f"not a where node: {node!r}")


def execute(ast: ExtendedSelect, relation: Relation) -> ResultTable:
    """Evaluate the statement against one relation snapshot.

    Dependency predicates see the relation (or their ON scope) unfiltered;
    the WHERE tree is pure set algebra over the resulting row sets, so
    predicate order never matters. Output rows keep the table's row order.
    """
    kept = range(relation.row_count)
    if ast.where is not None:
        leaf = partial(_where_leaf_rows, relation)
        kept = sorted(eval_condition(ast.where, leaf, kept))
    projection = ast.projection
    if isinstance(projection, StarProjection):
        names = list(relation.attribute_names)
    elif isinstance(projection, ColumnProjection):
        names = list(projection.names)
    else:
        names = eval_dependent(relation, projection.attributes, projection.error)
    indexes = _resolve(relation, names)
    rows = tuple(
        tuple(relation.rows[i][j] for j in indexes) for i in kept
    )
    return ResultTable(tuple(names), rows)


# --- pattern tableaus ---------------------------------------------------------

_FLIP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def _push_negations(node, negate: bool):
    if isinstance(node, Comparison):
        if not negate:
            return node
        return Comparison(node.attribute, _FLIP[node.op], node.constant)
    if isinstance(node, And):
        items = tuple(_push_negations(i, negate) for i in node.items)
        return Or(items) if negate else And(items)
    if isinstance(node, Or):
        items = tuple(_push_negations(i, negate) for i in node.items)
        return And(items) if negate else Or(items)
    if isinstance(node, Not):
        return _push_negations(node.item, not negate)
    raise ContractError("tableau conversion accepts row conditions only")


def _dnf(node) -> list[list[Comparison]]:
    if isinstance(node, Comparison):
        return [[node]]
    if isinstance(node, And):
        branches: list[list[Comparison]] = [[]]
        for item in node.items:
            branches = [b + extra for b in branches for extra in _dnf(item)]
        return branches
    if isinstance(node, Or):
        out: list[list[Comparison]] = []
        for item in node.items:
            out.extend(_dnf(item))
        return out
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
    error because the cell shape cannot express it.
    """
    attributes = tuple(dict.fromkeys(list(lhs) + [rhs]))
    for name in attributes:
        relation.attribute(name)
    allowed = set(attributes)
    rows = []
    for branch in _dnf(_push_negations(condition, False)):
        cells: dict[str, tuple] = {}
        for atom in branch:
            if atom.attribute not in allowed:
                raise ContractError(
                    f"condition touches {atom.attribute!r}, outside the dependency"
                )
            check_comparable(relation.attribute(atom.attribute).kind, atom.constant)
            cell = (atom.op, atom.constant)
            if cells.get(atom.attribute, cell) != cell:
                raise ContractError(
                    f"two constraints on {atom.attribute!r} in one branch"
                )
            cells[atom.attribute] = cell
        rows.append(tuple(cells.get(a) for a in attributes))
    unique_rows = tuple(dict.fromkeys(rows))
    return PatternTableau(attributes, unique_rows)


def cell_matches(value: Value, cell: Cell) -> bool:
    if cell is None:
        return True
    op, constant = cell
    return compare_values(value, op, constant)


def tableau_match_rows(relation: Relation, tableau: PatternTableau) -> set[int]:
    """Rows matched by at least one pattern row."""
    indexes = [relation.attribute(a).index for a in tableau.attributes]
    out = set()
    for i, row in enumerate(relation.rows):
        for pattern in tableau.rows:
            if all(cell_matches(row[j], c) for j, c in zip(indexes, pattern)):
                out.add(i)
                break
    return out
