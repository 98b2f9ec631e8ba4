"""Attribute-set expressions used in dependency filters.

A glob list like {"Address", "Category*"} denotes alternatives: pick one
distinct attribute per pattern, in every possible way. STAR is the whole
schema as a single alternative. Parenthesized + and - concatenate
alternatives and subtract matched attributes. The bracketed forms [AND S]
and [OR S] collapse S's matched attributes into one all-of alternative or
fan them out into one-of alternatives; they are legal only where a
left-hand side is being constrained.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import Sequence, Union

from .record import Record
from .tokens import TokenStream, quoted


class GlobList(Record):
    patterns: tuple[str, ...]


class Star(Record):
    pass


class Combine(Record):
    op: str  # "+" or "-"
    left: "SetExpr"
    right: "SetExpr"


class AllOf(Record):
    subset: "SetExpr"


class AnyOf(Record):
    subset: "SetExpr"


SetExpr = Union[GlobList, Star, Combine, AllOf, AnyOf]


@lru_cache(maxsize=512)
def _glob_re(pattern: str) -> re.Pattern:
    parts = [re.escape(p) for p in pattern.split("*")]
    return re.compile(".*".join(parts) + r"\Z")


def glob_matches(pattern: str, names: Sequence[str]) -> list[str]:
    """Names matching the pattern, in schema order. `*` spans any run."""
    rx = _glob_re(pattern)
    return [n for n in names if rx.match(n)]


def matched_attributes(expr: SetExpr, schema: Sequence[str]) -> set[str]:
    """Every attribute the expression can mention, ignoring alternative structure."""
    if isinstance(expr, GlobList):
        out: set[str] = set()
        for pattern in expr.patterns:
            out.update(glob_matches(pattern, schema))
        return out
    if isinstance(expr, Star):
        return set(schema)
    if isinstance(expr, Combine):
        left = matched_attributes(expr.left, schema)
        right = matched_attributes(expr.right, schema)
        return left | right if expr.op == "+" else left - right
    if isinstance(expr, (AllOf, AnyOf)):
        return matched_attributes(expr.subset, schema)
    raise TypeError(f"not a set expression: {expr!r}")


def eval_subset_expr(expr: SetExpr, schema: Sequence[str]) -> list[frozenset[str]]:
    """Expand to the ordered list of alternatives (attribute-name sets).

    Glob lists take the Cartesian product of their per-pattern matches and
    keep only picks with pairwise-distinct attributes; a pattern matching
    nothing therefore leaves the whole list with zero alternatives, which
    is not an error. `+` concatenates the two alternative lists verbatim.
    `-` removes the right side's matched attributes from every left
    alternative. [AND S] yields a single alternative holding all of S's
    matches; [OR S] yields one singleton alternative per match.
    """
    if isinstance(expr, GlobList):
        per_pattern = [glob_matches(p, schema) for p in expr.patterns]
        seen: set[frozenset[str]] = set()
        alts: list[frozenset[str]] = []
        for pick in product(*per_pattern):
            if len(set(pick)) != len(pick):
                continue
            alt = frozenset(pick)
            if alt not in seen:
                seen.add(alt)
                alts.append(alt)
        return alts
    if isinstance(expr, Star):
        return [frozenset(schema)]
    if isinstance(expr, Combine):
        if expr.op == "+":
            return eval_subset_expr(expr.left, schema) + eval_subset_expr(
                expr.right, schema
            )
        removed = matched_attributes(expr.right, schema)
        return [alt - removed for alt in eval_subset_expr(expr.left, schema)]
    if isinstance(expr, AllOf):
        return [frozenset(matched_attributes(expr.subset, schema))]
    if isinstance(expr, AnyOf):
        hits = matched_attributes(expr.subset, schema)
        return [frozenset({name}) for name in schema if name in hits]
    raise TypeError(f"not a set expression: {expr!r}")


def literal_patterns(expr: SetExpr) -> list[str]:
    """Patterns without a wildcard, i.e. ones that name attributes outright."""
    if isinstance(expr, GlobList):
        return [p for p in expr.patterns if "*" not in p]
    if isinstance(expr, Star):
        return []
    if isinstance(expr, Combine):
        return literal_patterns(expr.left) + literal_patterns(expr.right)
    if isinstance(expr, (AllOf, AnyOf)):
        return literal_patterns(expr.subset)
    raise TypeError(f"not a set expression: {expr!r}")


def parse_set_expr(ts: TokenStream, allow_lhs_forms: bool = False) -> SetExpr:
    """Parse a subset expression at the current cursor.

    Grammar, where S is a subset expression:
        S    := '{' str (',' str)* '}' | '*' | '(' S ('+'|'-') S ')'
              | '(' str (',' str)* ')'          -- sugar for a glob list
        LHS  := S | '[' AND S ']' | '[' OR S ']'
    The bracketed forms appear only when `allow_lhs_forms` is set.
    """
    if ts.accept_punct("{"):
        patterns = ts.expect_strings("a glob pattern")
        ts.expect_punct("}")
        return GlobList(patterns)
    if ts.accept_punct("*"):
        return Star()
    if allow_lhs_forms and ts.accept_punct("["):
        if ts.accept_kw("AND"):
            node: SetExpr = AllOf(parse_set_expr(ts))
        elif ts.accept_kw("OR"):
            node = AnyOf(parse_set_expr(ts))
        else:
            raise ts.error("expected AND or OR after '['")
        ts.expect_punct("]")
        return node
    if ts.accept_punct("("):
        if ts.peek().kind == "string":
            patterns = ts.expect_strings("a glob pattern")
            ts.expect_punct(")")
            return GlobList(patterns)
        left = parse_set_expr(ts, allow_lhs_forms)
        if ts.accept_punct(")"):
            return left  # redundant parens around a single subset
        op = ts.peek().text
        if not (ts.accept_punct("+") or ts.accept_punct("-")):
            raise ts.error("expected '+' or '-' between subset expressions")
        right = parse_set_expr(ts, allow_lhs_forms)
        ts.expect_punct(")")
        return Combine(op, left, right)
    raise ts.error("expected a subset expression")


def set_expr_to_text(expr: SetExpr) -> str:
    """Canonical text form; parsing it back yields an equal expression."""
    if isinstance(expr, GlobList):
        return "{" + ", ".join(map(quoted, expr.patterns)) + "}"
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, Combine):
        return (
            f"({set_expr_to_text(expr.left)} {expr.op} {set_expr_to_text(expr.right)})"
        )
    if isinstance(expr, AllOf):
        return f"[AND {set_expr_to_text(expr.subset)}]"
    if isinstance(expr, AnyOf):
        return f"[OR {set_expr_to_text(expr.subset)}]"
    raise TypeError(f"not a set expression: {expr!r}")
