"""Extended SELECT: parse, print and run row queries with dependency predicates.

HOLDS keeps the rows on which a dependency is intact, NOT HOLDS keeps the
witnesses against it, VIOLATES flags suspect values that sit close to a
conflicting sibling, and DEPENDENT projects the attributes a given set
minimally determines. Dependency predicates evaluate against the whole
table (or their ON scope) first; the surrounding WHERE tree then combines
those row sets with plain filters using ordinary set algebra. Witnesses
come from `partition.violating_rows`, and every dependency error that
approximate HOLDS and DEPENDENT test from `partition.error_measure`.

One item reader serves the WHERE tree, ON scopes and UPDATE's WHERE, the
last two taking comparisons only; NOT HOLDS is NOT over HOLDS.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress, filterfalse
from decimal import Decimal
from operator import itemgetter
from typing import Sequence, Union

from .errors import ContractError, ParameterError
from .partition import error_measure, partition_of, value_ids, violating_rows
from .record import Record
from .relation import (
    EXACT,
    And,
    Comparison,
    Not,
    Or,
    Relation,
    RowPredicate,
    Value,
    condition_to_text,
    eval_condition,
    eval_row_predicate,
    parse_and_or,
    parse_operand,
    walk,
)
from .result import ResultTable
from .tokens import Token, TokenStream, is_kw, quoted, statement_parser

DEFAULT_VIOLATION_THRESHOLD = 0.75

class FdPredicate(Record):
    kind: str  # "holds" | "not_holds" | "violates"
    lhs: tuple[str, ...]
    rhs: str
    on: RowPredicate | None = None
    error: float | None = None  # holds: error bound; violates: distance bound
    suspect: str | None = None  # violates only


class StarProjection(Record):
    pass


class ColumnProjection(Record):
    names: tuple[str, ...]


class DependentProjection(Record):
    attributes: tuple[str, ...]
    error: float | None = None


Projection = Union[StarProjection, ColumnProjection, DependentProjection]


class ExtendedSelect(Record):
    projection: Projection
    source: str
    where: object | None = None  # tree over Comparison/FdPredicate leaves


# --- parsing ------------------------------------------------------------------

def parse_literal(ts: TokenStream) -> Value:
    """A quoted string or an optionally negated number."""
    if ts.peek().kind == "string":
        return ts.advance().value
    negative = ts.accept_punct("-")
    value = ts.expect_number().value
    if not negative:
        return value
    # unary minus would round a decimal to the context's precision
    return value.copy_negate() if isinstance(value, Decimal) else -value


def _parse_comparison(ts: TokenStream, bracketed: bool) -> Comparison:
    attr = ts.expect_string("a quoted attribute name").value
    op = ts.expect_comparison()
    constant = parse_literal(ts)
    if bracketed:
        ts.expect_punct("]")
    return Comparison(attr, op, constant)


def _parse_row_item(ts: TokenStream):
    tok = ts.peek()
    item = _parse_where_item(ts)
    if any(isinstance(node, FdPredicate) for node in walk(item)):
        raise ts.error("a row condition takes comparisons only", tok)
    return item


def parse_row_condition(ts: TokenStream):
    """A row condition, as an ON scope and UPDATE's WHERE read it: a WHERE
    tree whose items hold comparisons only. An item holding a dependency
    predicate is refused at its first token."""
    return parse_and_or(ts, _parse_row_item)


def _parse_error_bound(ts: TokenStream, op: str) -> float | None:
    """An optional `, ERROR <op> r` clause: its bound, or None without one."""
    if not ts.accept_punct(","):
        return None
    ts.expect_kw("ERROR")
    ts.expect_punct(op)
    return ts.expect_bound()


def _parse_fd_body(ts: TokenStream, allow_on: bool, op: str):
    """Common tail of HOLDS and VIOLATES: (lhs -> rhs [ON c] [, ERROR op r])."""
    ts.expect_punct("(")
    lhs = ts.expect_strings("a quoted attribute name")
    ts.expect_punct("->")
    # the rhs list ends at a comma not followed by a name (ERROR clause)
    rhs = [ts.expect_string("a quoted attribute name").value]
    while ts.peek(1).kind == "string" and ts.accept_punct(","):
        rhs.append(ts.advance().value)
    on = None
    if allow_on and ts.accept_kw("ON"):
        on = parse_row_condition(ts)
    error = _parse_error_bound(ts, op)
    ts.expect_punct(")")
    return lhs, rhs, on, error


def _fan_out(kind, lhs, rhs_list, on, error, suspect=None):
    """One predicate per dependent, joined with AND."""
    preds = tuple(
        FdPredicate(kind, lhs, rhs, on=on, error=error, suspect=suspect)
        for rhs in rhs_list
    )
    return preds[0] if len(preds) == 1 else And(preds)


def _parse_where_item(ts: TokenStream):
    tok = ts.peek()
    if ts.accept_kw("NOT"):
        return _negate_where(ts, tok, parse_operand(ts, _parse_where_item))
    if ts.accept_kw("HOLDS"):
        lhs, rhs, on, error = _parse_fd_body(ts, allow_on=True, op="=")
        return _fan_out("holds", lhs, rhs, on, error)
    if tok.kind == "string" and is_kw(ts.peek(1), "VIOLATES"):
        suspect = ts.advance().value
        ts.advance()
        lhs, rhs, _, error = _parse_fd_body(ts, allow_on=False, op="<=")
        if suspect not in lhs:
            raise ts.error(f"suspect {suspect!r} must be part of the determinant")
        return _fan_out("violates", lhs, rhs, None, error, suspect=suspect)
    if ts.accept_punct("["):
        return _parse_comparison(ts, bracketed=True)
    if tok.kind == "string":
        return _parse_comparison(ts, bracketed=False)
    raise ts.error("expected a predicate or a comparison")


def _negate_where(ts: TokenStream, not_tok: Token, inner):
    """NOT over a where item: flip dependency predicates, wrap row trees.

    NOT HOLDS is this NOT over HOLDS. A group made of dependency predicates
    alone flips by De Morgan, so the NOT of a multi-dependent HOLDS (an
    AND) is the OR of its NOT HOLDS. A NOT that cannot apply is reported
    at `not_tok`.
    """
    if isinstance(inner, FdPredicate):
        if inner.kind == "holds" and inner.error is None:
            return FdPredicate("not_holds", inner.lhs, inner.rhs, on=inner.on)
        if inner.kind == "not_holds":
            return FdPredicate("holds", inner.lhs, inner.rhs, on=inner.on)
        raise ts.error(
            "only exact HOLDS / NOT HOLDS, with no ERROR bound, can be negated", not_tok
        )
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
    inside a predicate fan out into a conjunction of single-rhs predicates.
    NOT HOLDS is NOT over HOLDS, so by De Morgan it becomes a disjunction:
    the witnesses against any dependent, the complement of HOLDS.
    """
    ts = TokenStream(text)
    ts.expect_kw("SELECT")
    if ts.accept_punct("*"):
        projection: Projection = StarProjection()
    elif ts.accept_kw("DEPENDENT"):
        ts.expect_punct("(")
        ts.expect_punct("[")
        attrs = ts.expect_strings("a quoted attribute name")
        ts.expect_punct("]")
        error = _parse_error_bound(ts, "=")
        ts.expect_punct(")")
        projection = DependentProjection(attrs, error)
    else:
        projection = ColumnProjection(ts.expect_strings("a quoted attribute name"))
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
        return quoted(value, "'")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Decimal):
        # exponent 0 prints bare digits, which read back as an int
        return f"{value}." if value.as_tuple().exponent == 0 else str(value)
    raise TypeError(f"cannot print literal {value!r}")


def _leaf_to_text(node) -> str:
    if isinstance(node, Comparison):
        return f"{quoted(node.attribute)} {node.op} {_literal_to_text(node.constant)}"
    if isinstance(node, FdPredicate):
        return _fd_predicate_to_text(node)
    raise TypeError(f"not a condition node: {node!r}")


def _fd_predicate_to_text(pred: FdPredicate) -> str:
    body = f"{', '.join(map(quoted, pred.lhs))} -> {quoted(pred.rhs)}"
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
        return f"{quoted(pred.suspect)} VIOLATES ({body})"
    raise TypeError(f"unknown predicate kind {pred.kind!r}")


def select_to_text(ast: ExtendedSelect) -> str:
    """Canonical text form; parses back to an equal statement."""
    if isinstance(ast.projection, StarProjection):
        proj = "*"
    elif isinstance(ast.projection, ColumnProjection):
        proj = ", ".join(map(quoted, ast.projection.names))
    else:
        proj = f"DEPENDENT ([{', '.join(map(quoted, ast.projection.attributes))}]"
        if ast.projection.error is not None:
            proj += f", ERROR = {ast.projection.error!r}"
        proj += ")"
    text = f"SELECT {proj} FROM {ast.source}"
    if ast.where is not None:
        text += f" WHERE {condition_to_text(ast.where, _leaf_to_text)}"
    return text


def explain_select(ast: ExtendedSelect) -> str:
    """EXPLAIN's plan: the statement, each dependency predicate and the
    rows it runs against, and how the WHERE tree combines the results."""
    lines = [f"statement: {select_to_text(ast)}"]
    preds = [node for node in walk(ast.where) if isinstance(node, FdPredicate)]
    for pred in preds:
        scope = "its ON scope" if pred.on is not None else "the whole table"
        lines.append(f"  evaluate {_fd_predicate_to_text(pred)} against {scope}")
    lines.append(
        "note: dependency predicates run first; row filters combine "
        "with their results by set algebra, so written order is immaterial"
        if preds
        else "note: plain row filters only"
    )
    return "\n".join(lines)


# --- evaluation ---------------------------------------------------------------

def _resolve(relation: Relation, names: Sequence[str]) -> list[int]:
    return [relation.attribute(n).index for n in names]


def _dependency(
    relation: Relation, lhs: Sequence[str], rhs: str, on: RowPredicate | None
) -> tuple[list[int], int, set[int] | None]:
    """A dependency predicate's determinant and dependent indexes, and its ON
    scope's rows, or None for the whole table, which the partition layer
    then takes as it is, without cutting it to a scope; resolved in that
    order, so a bad statement reports its first bad part."""
    return (
        _resolve(relation, lhs),
        relation.attribute(rhs).index,
        None if on is None else eval_row_predicate(relation, on),
    )


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
    if error is not None and not 0.0 <= error < 1.0:
        raise ParameterError(f"error bound {error} outside [0, 1)")
    lhs_idx, rhs_idx, scope = _dependency(relation, lhs, rhs, on_condition)
    # the snapshot's row numbers, so the rows kept share their int objects
    rows = relation.row_numbers if scope is None else scope
    if not rows:
        return set()
    bad = violating_rows(relation, lhs_idx, rhs_idx, scope)
    # no witnesses also covers a trivial candidate, dependent inside the determinant
    if error is not None and bad:
        if error_measure(relation, lhs_idx, [rhs_idx], scope, error)[0] > error:
            return set()
    return set(filterfalse(bad.__contains__, rows))


def eval_not_holds(
    relation: Relation,
    lhs: Sequence[str],
    rhs: str,
    on_condition: RowPredicate | None = None,
) -> set[int]:
    """Scope rows that witness a violation: the complement of exact HOLDS."""
    return violating_rows(relation, *_dependency(relation, lhs, rhs, on_condition))


def _levenshtein(a: str, b: str, k: int) -> int:
    """Edit distance of a and b when it is at most k, otherwise k + 1.

    Bit-parallel (Myers, JACM 1999, in Hyyrö's form for the edit distance):
    the table's column down the shorter string b is two bit vectors, where
    bit i of `up` (of `down`) says that cell i + 1 is one more (one less)
    than cell i. Each character of a moves the column on by a few int
    operations, and its last cell, the distance of b to the part of a read
    so far, by the top bit of the row's differences. That cell falls by at
    most one per character left, so the scan stops once it exceeds k by
    more than the characters left.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return min(len(a), k + 1)
    positions: dict[str, int] = {}  # each character's bits in b
    for i, ch in enumerate(b):
        positions[ch] = positions.get(ch, 0) | 1 << i
    top = 1 << (len(b) - 1)
    mask = (top << 1) - 1
    up, down = mask, 0
    distance, left = len(b), len(a)
    for ch in a:
        eq = positions.get(ch, 0)
        xv = eq | down
        xh = (((eq & up) + up) ^ up) | eq
        rises = down | ~(xh | up)  # negative: only its low bits are read
        falls = up & xh
        if rises & top:
            distance += 1
        elif falls & top:
            distance -= 1
        left -= 1
        if distance - left > k:
            return k + 1
        rises = rises << 1 | 1  # row 0 rises by one per character
        falls <<= 1
        up = (falls | ~(xv | rises)) & mask
        down = rises & xv
    return min(distance, k + 1)


def value_distance(
    a: Value, b: Value, kind: str, threshold: float | None = None
) -> float:
    """Normalized distance in [0, 1]: edit distance for text, relative
    difference for numbers, capped at 1. A number's distance is exact until
    one rounding to a float, so distinct numbers never read as 0.

    With a threshold, a text distance is exact up to k = floor(threshold *
    m) + 1 edits, m the longer length; past k the result is a lower bound
    that still compares greater than the threshold. Without one it is
    always exact.
    """
    if a is None or b is None:
        raise ContractError("distance over null is undefined")
    if a == b:
        return 0.0
    if kind == "text":
        m = max(len(a), len(b), 1)
        # a bound of 1 or more admits every distance, so k is m, the largest
        # one; that also keeps threshold * m from overflowing
        k = m if threshold is None or threshold >= 1 else int(threshold * m) + 1
        if abs(len(a) - len(b)) > k:
            return (k + 1) / m  # every alignment needs the length gap in edits
        if len(set(a) ^ set(b)) > 2 * k:
            # an edit changes the set of characters used by at most two, one
            # dropped and one added, so more differences need more edits
            return (k + 1) / m
        return _levenshtein(a, b, k) / m
    # one path for ints and decimals: Decimal holds an int of any size. A
    # zero or opposite signs differ by the larger magnitude or more, and
    # magnitudes over 17 decades apart by 1 - 1e-17 or more, which rounds to 1
    a, b = Decimal(a), Decimal(b)
    if not a or not b or (a < 0) != (b < 0) or abs(a.adjusted() - b.adjusted()) > 17:
        return 1.0
    # LOAD takes exponents past what an int ratio can hold, so both values
    # are first scaled, exactly, to put the larger magnitude in [1, 10)
    shift = -max(a.adjusted(), b.adjusted())
    pa, qa = EXACT.scaleb(a, shift).as_integer_ratio()
    pb, qb = EXACT.scaleb(b, shift).as_integer_ratio()
    # |a - b| / max(|a|, |b|) over the common denominator qa * qb, which
    # int true division rounds once, to the nearest float
    return abs(pa * qb - pb * qa) / max(abs(pa) * qb, abs(pb) * qa) or math.ulp(0.0)


def eval_violates(
    relation: Relation,
    suspect: str,
    lhs: Sequence[str],
    rhs: str,
    threshold: float | None = None,
) -> set[int]:
    """Rows whose suspect value clashes with a nearby alternative.

    Rows are grouped by the rest of the determinant plus the dependent;
    inside a group with two or more distinct suspect values, a row is
    returned when some *other* distinct value lies within the threshold.
    Rows with a null suspect value are never returned.
    """
    if suspect not in lhs:
        raise ContractError(f"suspect {suspect!r} must be part of the determinant")
    threshold = DEFAULT_VIOLATION_THRESHOLD if threshold is None else threshold
    if threshold < 0:
        raise ParameterError(f"distance threshold {threshold} is negative")
    suspect_meta = relation.attribute(suspect)
    kind = suspect_meta.kind
    group_attrs = _resolve(relation, [*(a for a in lhs if a != suspect), rhs])
    column = suspect_meta.index
    ids = value_ids(relation, column)
    rows = relation.rows
    result: set[int] = set()
    # a group of one row has one value, so the stripped partition has them all
    for group in partition_of(relation, group_attrs).clusters:
        # distinct values by value id, in row order, so the distances
        # computed do not depend on string hashing
        values = [
            (first, rows[first][column])
            for first in dict.fromkeys(map(ids.__getitem__, group))
            if rows[first][column] is not None
        ]
        if len(values) < 2:
            continue
        # the distance is symmetric, so each unordered pair is scored once,
        # and only while one of its two values is not yet known to be close
        close: set[int] = set()
        for j, (v_id, v) in enumerate(values):
            for o_id, o in values[j + 1:]:
                if (v_id not in close or o_id not in close) and value_distance(
                    v, o, kind, threshold
                ) <= threshold:
                    close.update((v_id, o_id))
        in_close = map(close.__contains__, map(ids.__getitem__, group))
        result.update(compress(group, in_close))
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
    outside = [meta.index for meta in relation.schema if meta.index not in x]

    def passing(lhs: list[int], candidates: list[int]) -> set[int]:
        errors = error_measure(relation, lhs, candidates, bound=bound)
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
            return eval_violates(relation, node.suspect, node.lhs, node.rhs, node.error)
        raise ContractError(f"unknown predicate kind {node.kind!r}")
    raise TypeError(f"not a where node: {node!r}")


def execute(ast: ExtendedSelect, relation: Relation) -> ResultTable:
    """Evaluate the statement against one relation snapshot.

    Dependency predicates see the relation (or their ON scope) unfiltered;
    the WHERE tree is pure set algebra over the resulting row sets, so
    predicate order never matters. Output rows keep the table's row order.
    """
    rows = relation.rows
    if ast.where is not None:
        leaf = partial(_where_leaf_rows, relation)
        kept = sorted(eval_condition(ast.where, leaf, relation.row_numbers))
        rows = tuple(map(rows.__getitem__, kept))
    projection = ast.projection
    if isinstance(projection, StarProjection):
        names = list(relation.attribute_names)
    elif isinstance(projection, ColumnProjection):
        names = list(projection.names)
    else:
        names = eval_dependent(relation, projection.attributes, projection.error)
    indexes = _resolve(relation, names)
    if indexes == list(range(len(relation.schema))):
        # every column in schema order: the stored row tuples themselves
        return ResultTable(tuple(names), rows)
    if len(indexes) > 1:
        rows = tuple(map(itemgetter(*indexes), rows))
    elif indexes:
        rows = tuple(zip(map(itemgetter(indexes[0]), rows)))
    else:
        rows = ((),) * len(rows)
    return ResultTable(tuple(names), rows)

