"""Reference miner the levelwise walk in `fdq.miner` is checked against,
and the reference number distance for `fdq.query.value_distance`.

`brute_force_mine` answers the same question as `mine_fds` by brute force
over row pairs, with no partitions involved, so it cross-checks the fast
path at small scale (intended for relations up to about 10 attributes).
It filters the attribute universe with the miner's own `_filter_universe`,
so both see the same candidates.
"""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from fdq.fdstore import FDEntry, FDSet, MINED, canonical_key
from fdq.miner import MiningSpec, _filter_universe
from fdq.relation import EXACT, Relation


def brute_force_mine(
    relation: Relation,
    spec: MiningSpec = MiningSpec(),
    *,
    name: str = "",
    mined_at: str = "",
) -> FDSet:
    """Reference miner: errors from direct row-pair agreement counting.

    Enumerates every candidate in the filter universe, computes each error
    straight from agreement bitmasks over all row pairs, then keeps the
    minimal passing determinants. Quadratic in rows and exponential in
    attributes; meant for cross-checks at small scale.
    """
    n = relation.row_count
    names = relation.attribute_names
    width = len(names)
    lhs_universe = _filter_universe(spec.lhs_filter, relation, "determinant")
    rhs_universe = _filter_universe(spec.rhs_filter, relation, "dependent")

    # one bitmask per unordered pair: bit a set iff the rows agree on a
    mask_counts: dict[int, int] = {}
    rows = relation.rows
    for i in range(n):
        for j in range(i + 1, n):
            mask = 0
            for a in range(width):
                if rows[i][a] == rows[j][a]:
                    mask |= 1 << a
            mask_counts[mask] = mask_counts.get(mask, 0) + 1

    denominator = n * n - n

    def error_of(lhs_mask: int, rhs_bit: int) -> float:
        if denominator == 0:
            return 0.0
        violating = sum(
            2 * count
            for mask, count in mask_counts.items()
            if mask & lhs_mask == lhs_mask and not mask & rhs_bit
        )
        return violating / denominator

    max_size = len(lhs_universe)
    if spec.max_lhs_len is not None:
        max_size = min(max_size, spec.max_lhs_len)

    passing: dict[tuple[frozenset[int], int], float] = {}
    for size in range(1, max_size + 1):
        for combo in combinations(lhs_universe, size):
            lhs_mask = 0
            for a in combo:
                lhs_mask |= 1 << a
            for a in rhs_universe:
                if a in combo:
                    continue
                err = error_of(lhs_mask, 1 << a)
                if err <= spec.error_threshold:
                    passing[(frozenset(combo), a)] = err

    by_rhs: dict[int, list[tuple[frozenset[int], float]]] = {}
    for (lhs, a), err in passing.items():
        by_rhs.setdefault(a, []).append((lhs, err))

    entries = []
    for a, group in by_rhs.items():
        group.sort(key=lambda pair: len(pair[0]))
        minimal: list[frozenset[int]] = []
        for lhs, err in group:
            if any(m < lhs for m in minimal):
                continue
            minimal.append(lhs)
            entries.append(
                FDEntry(
                    lhs=tuple(sorted(names[i] for i in lhs)),
                    rhs=names[a],
                    error=err,
                    origin=MINED,
                )
            )
    entries.sort(key=canonical_key)
    return FDSet(
        name=name,
        table_binding=relation.name,
        table_fingerprint=relation.fingerprint,
        entries=tuple(entries),
        mined_at=mined_at,
    )


def fraction_value_distance(a, b) -> float:
    """`value_distance` of two numbers through `Fraction`: the relative
    difference |a - b| / max(|a|, |b|), exact until `float()` rounds it
    once, 1.0 across a zero or a sign, and never 0 for distinct numbers."""
    a, b = Decimal(a), Decimal(b)
    if a == b:
        return 0.0
    if not a or not b or (a < 0) != (b < 0) or abs(a.adjusted() - b.adjusted()) > 17:
        return 1.0
    # scaled first, exactly, since a Fraction of 1E+999999999999999999
    # would need an int of that many digits
    shift = -max(a.adjusted(), b.adjusted())
    a, b = Fraction(EXACT.scaleb(a, shift)), Fraction(EXACT.scaleb(b, shift))
    return float(abs(a - b) / max(abs(a), abs(b))) or math.ulp(0.0)
