"""Property checks over randomly generated relations, dependency sets, and
statements. Every law here is one the rest of the suite relies on pointwise;
the generators shake out the shapes the golden tests do not reach."""

from collections import Counter
from decimal import Decimal
from itertools import chain
from math import inf
from operator import add, eq, ge, gt, le, lt, mul, ne
from unittest import mock

import pytest
from canonical import assert_canonical, generator_grouped, reference_partition
from hypothesis import example, given, settings, strategies as st
from literals import literal_value, number_literals, same_value
from oracle import brute_force_mine

import fdq.miner
import fdq.partition
import fdq.query
from fdq.cfd import (
    CFD,
    PatternTableau,
    cfd_confidence,
    cfd_support,
)
from fdq.cli import Session, run_command
from fdq.errors import FdqError, ParseError
from fdq.fdstore import (
    ErrorLeq,
    FDEntry,
    FDSet,
    FdmlQuery,
    LhsLength,
    LhsLike,
    RhsLike,
    attr_closure,
    canonical_key,
    dumps_fdset,
    eval_fdml,
    fdml_to_text,
    loads_fdset,
    parse_fdml,
)
from fdq.miner import MiningSpec, mine_fds, parse_minefd
from fdq.partition import (
    build_pli,
    error_measure,
    intersect,
    pair_errors,
    partition_of,
    value_ids,
    violating_rows,
)
from fdq.query import (
    ColumnProjection,
    DependentProjection,
    ExtendedSelect,
    FdPredicate,
    StarProjection,
    eval_dependent,
    eval_holds,
    eval_not_holds,
    eval_violates,
    execute,
    parse_extended_select,
    select_to_text,
    value_distance,
)
from fdq.relation import (
    And,
    AttributeMeta,
    Comparison,
    Not,
    Or,
    Relation,
    eval_row_predicate,
)
from fdq.setexpr import AllOf, AnyOf, Combine, GlobList, Star, eval_subset_expr

NAMES = ("A", "B", "C", "D", "E")

common = settings(derandomize=True, deadline=None, max_examples=200)


# --- generators -----------------------------------------------------------------

@st.composite
def relations(draw, min_attrs=1, max_attrs=5, max_rows=12):
    n_attrs = draw(st.integers(min_attrs, max_attrs))
    names = NAMES[:n_attrs]
    kinds = [draw(st.sampled_from(["integer", "text"])) for _ in names]
    cells = [
        st.integers(0, 3) if kind == "integer" else st.sampled_from("abc")
        for kind in kinds
    ]
    rows = draw(st.lists(st.tuples(*cells), max_size=max_rows))
    return Relation.build("t", list(zip(names, kinds)), rows)


@st.composite
def relations_with_fd(draw, min_attrs=2):
    relation = draw(relations(min_attrs=min_attrs))
    names = list(relation.attribute_names)
    rhs = draw(st.sampled_from(names))
    pool = [n for n in names if n != rhs]
    lhs = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    return relation, lhs, rhs


@st.composite
def fdsets(draw):
    keys = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
                st.sampled_from(NAMES),
            ).filter(lambda pair: pair[1] not in pair[0]),
            max_size=8,
        )
    )
    entries = {}
    for lhs, rhs in keys:
        error = draw(st.sampled_from([0.0, 0.0, 0.25, 0.5]))
        origin = draw(st.sampled_from(["mined", "imported"]))
        entry = FDEntry(tuple(sorted(lhs)), rhs, error=error, origin=origin)
        entries[entry.key] = entry
    return FDSet(
        name=draw(st.sampled_from(["fs", "prev", "night_run"])),
        table_binding="t",
        table_fingerprint=draw(st.integers(0, 2**64 - 1)),
        entries=tuple(sorted(entries.values(), key=lambda e: e.key)),
        mined_at=draw(st.sampled_from(["", "2026-01-01T00:00:00Z"])),
    )


glob_patterns = st.sampled_from(("A", "B", "E", "*", "A*", "*B", "*o*", "Cat*"))
glob_lists = st.lists(glob_patterns, min_size=1, max_size=3).map(
    lambda ps: GlobList(tuple(ps))
)
set_exprs = st.recursive(
    glob_lists | st.just(Star()),
    lambda inner: st.tuples(st.sampled_from("+-"), inner, inner).map(
        lambda t: Combine(t[0], t[1], t[2])
    ),
    max_leaves=4,
)
lhs_constructs = set_exprs | set_exprs.map(AllOf) | set_exprs.map(AnyOf)

fdml_plain_atoms = (
    lhs_constructs.map(LhsLike)
    | set_exprs.map(RhsLike)
    | st.tuples(
        st.sampled_from(("=", "!=", "<", "<=", ">", ">=")), st.integers(0, 4)
    ).map(lambda t: LhsLength(t[0], t[1]))
)
error_atoms = st.sampled_from((0.0, 0.05, 0.5)).map(ErrorLeq)


@st.composite
def fdml_and_chains(draw):
    # at most one ERROR atom per AND-chain, per the language rule
    items = draw(st.lists(fdml_plain_atoms, min_size=1, max_size=3))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(error_atoms))
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


fdml_conditions = fdml_and_chains() | st.lists(
    fdml_and_chains(), min_size=2, max_size=3
).map(lambda items: Or(tuple(items)))

fdml_queries = st.builds(
    FdmlQuery,
    projection=st.sampled_from(("star", "pairs")),
    source=st.sampled_from(("fs", "prev")),
    where=st.none() | fdml_conditions,
)

attr_names = st.sampled_from(NAMES)
constants = st.integers(-3, 20) | st.sampled_from(("x", "long value", "SCOTCH"))
comparisons = st.builds(
    Comparison,
    attribute=attr_names,
    op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    constant=constants,
)
row_conditions = st.recursive(
    comparisons,
    lambda inner: (
        st.lists(inner, min_size=2, max_size=3).map(lambda i: And(tuple(i)))
        | st.lists(inner, min_size=2, max_size=3).map(lambda i: Or(tuple(i)))
        | inner.map(Not)
    ),
    max_leaves=5,
)


@st.composite
def fd_predicates(draw):
    lhs = tuple(draw(st.lists(attr_names, min_size=1, max_size=2, unique=True)))
    rhs = draw(attr_names)
    kind = draw(st.sampled_from(("holds", "not_holds", "violates")))
    if kind == "violates":
        return FdPredicate(
            "violates",
            lhs,
            rhs,
            error=draw(st.none() | st.sampled_from((0.0, 0.5))),
            suspect=draw(st.sampled_from(lhs)),
        )
    on = draw(st.none() | row_conditions)
    error = None
    if kind == "holds":
        error = draw(st.none() | st.sampled_from((0.0, 0.05)))
    return FdPredicate(kind, lhs, rhs, on=on, error=error)


where_trees = st.recursive(
    comparisons | fd_predicates(),
    lambda inner: (
        st.lists(inner, min_size=2, max_size=3).map(lambda i: And(tuple(i)))
        | st.lists(inner, min_size=2, max_size=3).map(lambda i: Or(tuple(i)))
    ),
    max_leaves=4,
)

projections = (
    st.just(StarProjection())
    | st.lists(attr_names, min_size=1, max_size=3, unique=True).map(
        lambda names: ColumnProjection(tuple(names))
    )
    | st.builds(
        DependentProjection,
        attributes=st.lists(attr_names, min_size=1, max_size=2, unique=True).map(
            tuple
        ),
        error=st.none() | st.sampled_from((0.0, 0.1)),
    )
)
select_statements = st.builds(
    ExtendedSelect,
    projection=projections,
    source=st.sampled_from(("t", "IOWA")),
    where=st.none() | where_trees,
)


# --- dependency predicate laws -----------------------------------------------------

@common
@given(relations_with_fd())
def test_holds_and_not_holds_partition_the_table(case):
    relation, lhs, rhs = case
    kept = eval_holds(relation, lhs, rhs)
    witnesses = eval_not_holds(relation, lhs, rhs)
    assert kept | witnesses == set(range(relation.row_count))
    assert kept & witnesses == set()


@common
@given(relations_with_fd())
def test_holds_is_idempotent_on_its_result(case):
    relation, lhs, rhs = case
    kept = sorted(eval_holds(relation, lhs, rhs))
    cleaned = relation.with_rows([relation.rows[i] for i in kept])
    assert eval_holds(cleaned, lhs, rhs) == set(range(len(kept)))


@common
@given(relations_with_fd())
def test_exact_holds_means_no_disagreeing_pair(case):
    relation, lhs, rhs = case
    kept = eval_holds(relation, lhs, rhs)
    lhs_idx = [relation.attribute(n).index for n in lhs]
    rhs_idx = relation.attribute(rhs).index
    for i in kept:
        for j in kept:
            a, b = relation.rows[i], relation.rows[j]
            if all(a[k] == b[k] for k in lhs_idx):
                assert a[rhs_idx] == b[rhs_idx]


@common
@given(relations_with_fd(), st.sampled_from((0.0, 0.01, 0.1, 0.5)))
def test_approximate_holds_is_staged(case, bound):
    relation, lhs, rhs = case
    lhs_idx = [relation.attribute(n).index for n in lhs]
    rhs_idx = relation.attribute(rhs).index
    (measured,) = error_measure(relation, lhs_idx, [rhs_idx])
    kept = eval_holds(relation, lhs, rhs, error=bound)
    if measured <= bound:
        assert kept == eval_holds(relation, lhs, rhs)
    else:
        assert kept == set()


@common
@given(relations_with_fd())
def test_error_measure_shrinks_as_lhs_grows(case):
    relation, lhs, rhs = case
    rhs_idx = relation.attribute(rhs).index
    lhs_idx = [relation.attribute(n).index for n in lhs]
    others = [
        m.index
        for m in relation.schema
        if m.index != rhs_idx and m.index not in lhs_idx
    ]
    (base,) = error_measure(relation, lhs_idx, [rhs_idx])
    for extra in others:
        (widened,) = error_measure(relation, [*lhs_idx, extra], [rhs_idx])
        assert widened <= base + 1e-12


@common
@given(relations_with_fd(), st.data())
def test_error_measure_agrees_with_pairwise_oracle(case, data):
    # every attribute in one call, those inside the determinant included,
    # over the whole table or a drawn non-empty scope
    relation, lhs, _ = case
    lhs_idx = [relation.attribute(n).index for n in lhs]
    n = relation.row_count
    scope = None
    if n and data.draw(st.booleans()):
        scope = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    indices = range(n) if scope is None else sorted(scope)
    dependents = [m.index for m in relation.schema]
    measured = error_measure(relation, lhs_idx, dependents, scope)
    assert len(measured) == len(dependents)
    size = len(indices)
    for rhs_idx, error in zip(dependents, measured):
        violating = 0
        for i in indices:
            for j in indices:
                a, b = relation.rows[i], relation.rows[j]
                if all(a[k] == b[k] for k in lhs_idx) and a[rhs_idx] != b[rhs_idx]:
                    violating += 1
        if rhs_idx in lhs_idx:
            assert error == 0.0
        expected = 0.0 if size <= 1 else violating / (size * size - size)
        assert abs(error - expected) < 1e-12
        witnesses = violating_rows(relation, lhs_idx, rhs_idx, scope)
        assert (not witnesses) == (violating == 0)


@common
@given(relations_with_fd())
def test_violates_stays_inside_conflicted_groups(case):
    relation, lhs, rhs = case
    suspect = lhs[0]
    found = eval_violates(relation, suspect, lhs, rhs, threshold=1.0)
    suspect_idx = relation.attribute(suspect).index
    group_idx = [relation.attribute(n).index for n in lhs if n != suspect] + [
        relation.attribute(rhs).index
    ]
    groups = {}
    for i in range(relation.row_count):
        key = tuple(relation.rows[i][k] for k in group_idx)
        groups.setdefault(key, set()).add(i)
    for i in found:
        key = tuple(relation.rows[i][k] for k in group_idx)
        values = {
            relation.rows[j][suspect_idx] for j in groups[key]
        } - {None}
        assert len(values) >= 2
        assert relation.rows[i][suspect_idx] is not None


def full_levenshtein(a, b):
    """The whole edit-distance table, row by row: the oracle for the
    banded kernel in fdq.query."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[len(b)]


def full_distance(a, b, kind):
    if kind == "text":
        return full_levenshtein(a, b) / max(len(a), len(b), 1)
    return abs(a - b) / max(abs(a), abs(b))


DISTANCE_BOUNDS = (0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.75, 0.999, 1.0, 2.0, 1e308)
short_texts = st.text(alphabet="abé漢", max_size=13)


@st.composite
def texts_and_bounds(draw):
    a, b = draw(short_texts), draw(short_texts)
    m = max(len(a), len(b), 1)
    # j / m puts bound * m on an integer, where the band edge sits
    bound = draw(
        st.sampled_from(DISTANCE_BOUNDS) | st.integers(0, m).map(lambda j: j / m)
    )
    return a, b, bound


@common
@given(texts_and_bounds())
@example(("abcde", "abxde", 0.2))  # 0.2 * 5 == 1, one edit
@example(("abcde", "axyde", 0.2))  # two edits, one past the bound
@example(("abcdefgh", "abxyefgh", 0.25))  # 0.25 * 8 == 2
@example(("", "abc", 0.5))  # a length gap of 3 beyond k = 2
@example(("ab", "", 0.0))
# 15/22 * 22 rounds to just below 15, and a distance of 16 sits past it:
# a band of width floor(bound * m) without the extra edit calls it close
@example(("a" * 22, "b" * 16 + "a" * 6, 15 / 22))
# the character sets alone: 4 differ where k = 1 allows 2, and 12 where
# k = 4 allows 8; at exactly 2k (b, c against d, e) the kernel decides
@example(("ab", "cd", 0.0))
@example(("abcdef", "uvwxyz", 0.5))
@example(("abc", "def", 1 / 3))
@example(("abc", "ade", 1 / 3))
@example(("aaaa", "bbbb", 0.25))  # one character each: the sets differ in 2
def test_banded_distance_decides_like_the_full_one(case):
    a, b, bound = case
    m = max(len(a), len(b), 1)
    exact = full_levenshtein(a, b) / m
    with mock.patch.object(
        fdq.query, "_levenshtein", wraps=fdq.query._levenshtein
    ) as kernel:
        got = value_distance(a, b, "text", bound)
    assert (got <= bound) == (exact <= bound)
    assert got == exact or got > bound
    assert got <= exact  # past the band, a lower bound
    k = m if bound >= 1 else min(int(bound * m) + 1, m)
    if abs(len(a) - len(b)) > k or len(set(a) ^ set(b)) > 2 * k:
        assert not kernel.called  # the length gap or the character sets decide
    assert value_distance(a, b, "text") == exact


@st.composite
def suspect_relations(draw):
    kind = draw(st.sampled_from(["text", "integer"]))
    values = st.text(alphabet="abé", max_size=6) if kind == "text" else st.integers(0, 9)
    rows = draw(
        st.lists(
            st.tuples(st.none() | values, st.integers(0, 2), st.integers(0, 1)),
            max_size=14,
        )
    )
    return Relation.build("t", [("S", kind), ("G", "integer"), ("R", "integer")], rows)


@common
@given(suspect_relations(), st.sampled_from((0.0, 0.2, 0.5, 1.0, 1e308)))
def test_violates_equals_the_minimum_over_full_distances(relation, threshold):
    kind = relation.attribute("S").kind
    groups = {}
    for i, (_, g, r) in enumerate(relation.rows):
        groups.setdefault((g, r), []).append(i)
    expected = set()
    for group in groups.values():
        values = {relation.rows[i][0] for i in group} - {None}
        for v in values:
            others = values - {v}
            if others and min(full_distance(v, o, kind) for o in others) <= threshold:
                expected.update(i for i in group if relation.rows[i][0] == v)
    assert eval_violates(relation, "S", ["S", "G"], "R", threshold) == expected


@common
@given(
    relations(min_attrs=2, max_attrs=5, max_rows=10),
    st.sampled_from((0.0, 0.05, 0.2)),
)
def test_dependent_matches_the_minimal_cover(relation, bound):
    names = list(relation.attribute_names)
    x = names[: max(1, len(names) - 2)]
    mined = brute_force_mine(relation, MiningSpec(error_threshold=bound))
    expected = {e.rhs for e in mined.entries if e.lhs == tuple(sorted(x))}
    result = eval_dependent(relation, x, bound)
    assert set(result) == expected
    order = {m.name: m.index for m in relation.schema}
    assert result == sorted(result, key=order.get)


# --- partitions ---------------------------------------------------------------------

@common
@given(relations(min_attrs=2, max_rows=14))
def test_pli_intersection_equals_combined_pli(relation):
    # any partition of `a`, split by each single of `b` in turn
    indexes = [m.index for m in relation.schema]
    half = max(1, len(indexes) // 2)
    a, b = indexes[:half], indexes[half:]
    merged = reference_partition(relation, a)
    for y in b:
        merged = assert_canonical(intersect(merged, build_pli(relation, y)))
    assert merged == reference_partition(relation, a + b)


@common
@given(relations(max_rows=14))
def test_pli_clusters_are_disjoint_and_stripped(relation):
    assert_canonical(partition_of(relation, [m.index for m in relation.schema]))


# nulls, and equal values of different type or spelling, in every column
MIXED_CELLS = (None, 0, 1, 2, Decimal(1), Decimal("1.0"), Decimal("2.00"))


@st.composite
def mixed_relations(draw, max_rows=40):
    n_attrs = draw(st.integers(2, 4))
    metas = tuple(AttributeMeta(NAMES[i], i, "decimal") for i in range(n_attrs))
    cells = st.tuples(*[st.sampled_from(MIXED_CELLS)] * n_attrs)
    rows = draw(st.lists(cells, max_size=max_rows))
    # bypasses Relation.build, which would reject an int in a decimal column
    return Relation("t", metas, tuple(rows))


@st.composite
def kernel_cases(draw):
    """A relation, a sorted scope of 0, 1, 2 or all rows, a determinant and
    a stage size."""
    relation = draw(mixed_relations())
    n = relation.row_count
    size = min(n, draw(st.sampled_from((0, 1, 2, n))))
    rows = st.integers(0, max(n - 1, 0))
    scope = sorted(draw(st.sets(rows, min_size=size, max_size=size)))
    width = len(relation.schema)
    columns = st.integers(0, width - 1)
    lhs = draw(st.lists(columns, min_size=1, max_size=width - 1, unique=True))
    stage_rows = draw(st.sampled_from((1, 3, fdq.partition.STAGE_ROWS)))
    return relation, scope, sorted(lhs), stage_rows


def unstaged_pair_errors(pli, id_columns, scope_size):
    """The kernel before staging: one count over every clustered row."""
    denominator = scope_size * scope_size - scope_size
    agree_lhs = sum(len(c) * (len(c) - 1) for c in pli.clusters)
    n = pli.relation_size
    rows = list(chain.from_iterable(pli.clusters))
    tags = [cid * n for cid, cluster in enumerate(pli.clusters) for _ in cluster]
    errors = []
    for ids in id_columns:
        counts = Counter(map(add, tags, map(ids.__getitem__, rows))).values()
        agree_both = sum(map(mul, counts, counts)) - len(rows)
        errors.append((agree_lhs - agree_both) / denominator if denominator else 0.0)
    return errors


@common
@given(kernel_cases(), st.data())
def test_staged_pair_errors_decide_like_the_full_count(case, data):
    relation, scope, lhs, stage_rows = case
    dependents = [m.index for m in relation.schema if m.index not in lhs]
    pli = assert_canonical(partition_of(relation, lhs, scope))
    ids = [value_ids(relation, a) for a in dependents]
    exact = unstaged_pair_errors(pli, ids, len(scope))
    # 0, a small bound, or a tie with one of the exact errors
    bound = data.draw(st.sampled_from([0.0, 0.05, *exact]))
    with mock.patch.object(fdq.partition, "STAGE_ROWS", stage_rows):
        staged = pair_errors(pli, ids, len(scope), bound)
    # a score within the bound is counted to the end; one marked so is exact
    for full, (err, counted) in zip(exact, staged):
        if full <= bound:
            assert counted
        if counted:
            assert err == full
        else:
            assert err > bound


@common
@given(kernel_cases(), st.data())
def test_split_scoring_decides_like_the_product(case, data):
    relation, scope, lhs, stage_rows = case
    outside = [m.index for m in relation.schema if m.index not in lhs]
    y = data.draw(st.sampled_from(outside))
    single = assert_canonical(build_pli(relation, y))
    base = assert_canonical(partition_of(relation, lhs, scope))
    product = assert_canonical(intersect(base, single))
    ids = [value_ids(relation, a) for a in outside if a != y]
    exact = unstaged_pair_errors(product, ids, len(scope))
    bound = data.draw(st.sampled_from([0.0, 0.05, inf, *exact]))
    with mock.patch.object(fdq.partition, "STAGE_ROWS", stage_rows):
        split = pair_errors(base, ids, len(scope), bound, split=single.ids)
        built = pair_errors(product, ids, len(scope), bound)
    for full, from_base, from_product in zip(exact, split, built):
        for err, counted in (from_base, from_product):
            if full <= bound:
                assert counted
            if counted:
                assert err == full
            else:
                assert err > bound


@common
@given(kernel_cases(), st.booleans(), st.booleans())
def test_partition_from_kept_singles_equals_a_fresh_grouping(case, scoped, empty):
    relation, scope, lhs, _ = case
    scope = scope if scoped else None
    lhs = [] if empty else lhs  # every scope row agrees on no attributes
    expected = reference_partition(relation, lhs, scope)
    assert assert_canonical(partition_of(relation, lhs, scope)) == expected
    # once more from the singles the first call kept
    assert partition_of(relation, lhs, scope) == expected


# equal values of one kind that differ in form: 0 and -0, 1.0 and 1.00
CODED_CELLS = {
    "integer": (None, 0, -0, 1, 2),
    "decimal": (
        None, Decimal("0"), Decimal("-0"), Decimal("0.00"), Decimal("1.0"),
        Decimal("1.00"), Decimal(2),
    ),
    "text": (None, "", "a", "A", "1.0"),
}


@st.composite
def coded_relations(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CODED_CELLS)), min_size=1, max_size=3))
    cells = [st.sampled_from(CODED_CELLS[kind]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*cells), max_size=30))
    return Relation.build("t", list(zip(NAMES, kinds)), rows)


@common
@given(coded_relations())
def test_value_ids_and_single_partitions_equal_the_grouping(relation):
    n = relation.row_count
    for a in range(len(relation.schema)):
        groups = generator_grouped(relation, [a]).values()
        expected = [None] * n
        for group in groups:
            for row in group:
                expected[row] = group[0]
        ids = value_ids(relation, a)
        assert ids == expected
        # rows share an id exactly when their values are equal
        column = [row[a] for row in relation.rows]
        assert all(
            (ids[i] == ids[j]) == (column[i] == column[j])
            for i in range(n) for j in range(n)
        )
        pli = assert_canonical(build_pli(relation, a))
        assert pli.clusters == tuple(tuple(g) for g in groups if len(g) >= 2)
        # the partition shares the ids, equal to those its clusters give:
        # a row's cluster's smallest row, or the row itself outside them
        assert pli.ids is ids
        from_clusters = list(range(n))
        for cluster in pli.clusters:
            for row in cluster:
                from_clusters[row] = cluster[0]
        assert from_clusters == ids


# --- mining -------------------------------------------------------------------------

@common
@given(relations(max_attrs=4, max_rows=10), st.sampled_from((0.0, 0.05, 0.2)))
def test_levelwise_mining_equals_brute_force(relation, threshold):
    spec = MiningSpec(error_threshold=threshold)
    fast = mine_fds(relation, spec)
    slow = brute_force_mine(relation, spec)
    assert [(e.key, e.error) for e in fast.entries] == [
        (e.key, e.error) for e in slow.entries
    ]


WIDE_NAMES = ("A", "B", "C", "D", "E", "F")


@st.composite
def wide_relations(draw):
    n_attrs = draw(st.integers(5, 6))
    names = WIDE_NAMES[:n_attrs]
    # small domains so partitions cluster, keys appear and pruning acts
    cells = [st.integers(0, draw(st.integers(1, 3))) for _ in names]
    rows = draw(st.lists(st.tuples(*cells), max_size=10))
    return Relation.build("t", [(n, "integer") for n in names], rows)


filter_lists = st.none() | st.lists(
    st.sampled_from(WIDE_NAMES[:5]), min_size=1, max_size=4, unique=True
).map(lambda ps: GlobList(tuple(ps)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    wide_relations(),
    st.sampled_from((None, 1, 2)),
    st.sampled_from((0.0, 0.05, 0.2)),
    filter_lists,
    filter_lists,
)
def test_pruned_mining_equals_brute_force_on_wider_relations(
    relation, cap, threshold, lhs_filter, rhs_filter
):
    # dependents outside the determinant universe arise whenever the two
    # filters differ, which the independent draws make common
    spec = MiningSpec(
        lhs_filter=lhs_filter,
        rhs_filter=rhs_filter,
        max_lhs_len=cap,
        error_threshold=threshold,
    )
    fast = mine_fds(relation, spec)
    slow = brute_force_mine(relation, spec)
    assert [(e.key, e.error) for e in fast.entries] == [
        (e.key, e.error) for e in slow.entries
    ]


def kept_scores(relation):
    """The (bitmask of X u {A}, A) key of each score kept on the snapshot;
    kept partitions sit under (bit, PLI)."""
    return [key for key in relation.derived if isinstance(key[1], int)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wide_relations(), st.sampled_from((0.0, 0.05, 0.2)))
def test_every_partition_product_is_scored(relation, threshold):
    # each product the walk builds either scores a candidate X -> A by its
    # pair count, as the partition of X u {A}, or becomes a node and has its
    # own candidates scored, or is dropped as it has the partition of one
    # of its subsets, which only building it shows; a fresh snapshot, so
    # every kept score is this mine's. The attribute set of each partition
    # is read off its inputs
    relation = Relation(relation.name, relation.schema, relation.rows)
    attrs = {}  # id of a partition -> bitmask of its attributes
    products, counted = [], set()

    def single(relation, a):
        pli = build_pli(relation, a)
        attrs[id(pli)] = attrs[id(pli.ids)] = 1 << a
        return pli

    def building(a, b):
        products.append(intersect(a, b))
        attrs[id(products[-1])] = attrs[id(a)] | attrs[id(b)]
        return products[-1]

    def scoring(pli, id_columns, scope_size, bound, split=None):
        # X u {A} of each candidate that pair_errors scores
        x = attrs[id(pli)] | (0 if split is None else attrs[id(split)])
        counted.update(x | attrs[id(ids)] for ids in id_columns)
        return pair_errors(pli, id_columns, scope_size, bound, split)

    with mock.patch.object(fdq.miner, "build_pli", single), mock.patch.object(
        fdq.miner, "intersect", building
    ), mock.patch.object(fdq.miner, "pair_errors", scoring):
        mine_fds(relation, MiningSpec(error_threshold=threshold))
    keys = kept_scores(relation)
    candidates = {mask for mask, _ in keys} - counted
    nodes = {mask & ~(1 << a) for mask, a in keys}
    for product in products:
        mask = attrs[id(product)]
        held = [a for a in range(len(relation.schema)) if mask >> a & 1]
        assert mask in candidates | nodes or any(
            reference_partition(relation, [b for b in held if b != a]) == product
            for a in held
        )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wide_relations(), st.sampled_from((0.0, 0.05, 0.2)))
def test_no_node_holds_an_exactly_determined_attribute(relation, threshold):
    # a node X that holds an A with X \ {A} -> A at error 0 has the
    # partition of X \ {A}, so it is not built, and so not scored, at any
    # bound: a product with the pair count of a subset is dropped, even
    # where A was settled approximately below X \ {A} and never scored
    # there. A fresh snapshot, so every kept score is this mine's
    relation = Relation(relation.name, relation.schema, relation.rows)
    mine_fds(relation, MiningSpec(error_threshold=threshold))
    # X \ {A} -> A is kept under the bitmask of X, and X -> B under X u {B}
    scored = {mask & ~(1 << a) for mask, a in kept_scores(relation)}
    for node in scored:
        held = [a for a in range(len(relation.schema)) if node >> a & 1]
        if len(held) < 2:
            continue
        for a in held:
            groups = generator_grouped(relation, [b for b in held if b != a])
            assert any(
                len({relation.rows[i][a] for i in group}) > 1
                for group in groups.values()
            )


@common
@given(relations_with_fd())
def test_wildcard_cfd_confidence_is_one_exactly_when_fd_holds(case):
    relation, lhs, rhs = case
    attrs = tuple(lhs) + (rhs,)
    tableau = PatternTableau(attrs, ((None,) * len(attrs),))
    cfd = CFD(tuple(lhs), rhs, tableau)
    confidence = cfd_confidence(relation, cfd)
    assert 0.0 <= confidence <= 1.0
    lhs_idx = [relation.attribute(n).index for n in lhs]
    holds = not violating_rows(relation, lhs_idx, relation.attribute(rhs).index)
    assert (confidence == 1.0) == holds


@common
@given(relations_with_fd())
def test_wildcard_pattern_support_is_total(case):
    relation, lhs, rhs = case
    pattern = {name: None for name in tuple(lhs) + (rhs,)}
    support = cfd_support(relation, tuple(lhs), rhs, pattern)
    if relation.row_count:
        assert support == 1.0
    else:
        assert support == 0.0


# --- closure ------------------------------------------------------------------------

exact_fdsets = fdsets().map(
    lambda fs: FDSet(
        name=fs.name,
        table_binding=fs.table_binding,
        table_fingerprint=fs.table_fingerprint,
        entries=tuple(
            FDEntry(e.lhs, e.rhs, error=0.0, origin=e.origin) for e in fs.entries
        ),
        mined_at=fs.mined_at,
    )
)
name_sets = st.lists(st.sampled_from(NAMES), max_size=4, unique=True).map(frozenset)


@common
@given(exact_fdsets, name_sets)
def test_closure_is_extensive_and_idempotent(fdset, x):
    closed = attr_closure(x, fdset)
    assert x <= closed
    assert attr_closure(closed, fdset) == closed


@common
@given(exact_fdsets, name_sets, name_sets)
def test_closure_is_monotone(fdset, x, y):
    if not x <= y:
        x, y = x & y, x | y
    assert attr_closure(x, fdset) <= attr_closure(y, fdset)


# --- persistence and round trips ----------------------------------------------------

@common
@given(fdsets())
def test_fdset_serialization_round_trips(fdset):
    assert loads_fdset(dumps_fdset(fdset)) == fdset


@common
@given(fdml_queries)
def test_fdml_print_parse_round_trips(query):
    printed = fdml_to_text(query)
    assert parse_fdml(printed) == query
    assert fdml_to_text(parse_fdml(printed)) == printed


@common
@given(select_statements)
def test_select_print_parse_round_trips(ast):
    printed = select_to_text(ast)
    assert parse_extended_select(printed) == ast
    assert select_to_text(parse_extended_select(printed)) == printed


@common
@given(
    number_literals,
    st.lists(number_literals, max_size=5),
    st.sampled_from(("=", "!=", "<>", "<", "<=", ">", ">=")),
)
@example(
    "-1.00000000000000000000000000001", ["-1", "1.00000000000000000000000000001"], "="
)
@example("-0.0", ["0", "0.0", "-0"], "<")
@example("5.", ["5", "5.0"], "=")
def test_number_literals_keep_their_value(text, others, op):
    # the value Python gives the literal's text, or a ParseError where it
    # refuses; printed back and parsed again, the literal keeps its type,
    # sign, digits and exponent; compared in WHERE, it selects the rows
    # Python's comparison selects; written by UPDATE, it is that value
    statement = f'SELECT * FROM T WHERE ["D" {op} {text}] OR ["I" {op} {text}]'
    expected = literal_value(text)
    if expected is None:
        with pytest.raises(ParseError):
            parse_extended_select(statement)
        return
    ast = parse_extended_select(statement)
    assert all(same_value(c.constant, expected) for c in ast.where.items)
    again = parse_extended_select(select_to_text(ast))
    assert all(same_value(c.constant, expected) for c in again.where.items)

    values = [v for v in map(literal_value, [text, *others]) if v is not None]
    relation = Relation.build(
        "T",
        [("I", "integer"), ("D", "decimal")],
        [(v if type(v) is int else None, Decimal(v)) for v in values],
    )
    compare = {"=": eq, "!=": ne, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}[op]
    assert execute(ast, relation).rows == tuple(
        row for row in relation.rows
        if any(v is not None and compare(v, expected) for v in row)
    )
    session = Session(relations={"T": relation})
    session, _ = run_command(session, f'UPDATE T SET "D" = {text}')
    assert all(
        same_value(row[1], Decimal(expected)) for row in session.relations["T"].rows
    )


@common
@given(relations(max_rows=8))
def test_fingerprint_tracks_content_not_identity(relation):
    rebuilt = relation.with_rows(list(relation.rows))
    assert rebuilt.fingerprint == relation.fingerprint
    if relation.row_count:
        meta = relation.schema[0]
        old = relation.rows[0][meta.index]
        new = 99 if meta.kind == "integer" else "zz"
        rows = [
            row[: meta.index] + (new,) + row[meta.index + 1 :] if i == 0 else row
            for i, row in enumerate(relation.rows)
        ]
        if old != new:
            assert relation.with_rows(rows).fingerprint != relation.fingerprint


@st.composite
def update_runs(draw):
    """A relation and UPDATE statements over it, each with a flag saying
    whether the snapshot's fingerprint is read just before it runs."""
    relation = draw(relations(max_rows=8))

    def literal(meta, impossible=False):
        if meta.kind == "integer":
            return "99" if impossible else str(draw(st.integers(0, 3)))
        return '"zz"' if impossible else f'"{draw(st.sampled_from("abc"))}"'

    statements = []
    for _ in range(draw(st.integers(1, 5))):
        target = draw(st.sampled_from(relation.schema))
        value = "NULL" if draw(st.booleans()) else literal(target)
        statement = f'UPDATE T SET "{target.name}" = {value}'
        where = draw(st.sampled_from(["none", "some", "no row"]))
        if where != "none":
            meta = draw(st.sampled_from(relation.schema))
            constant = literal(meta, impossible=where == "no row")
            statement += f' WHERE ["{meta.name}" = {constant}]'
        statements.append((statement, draw(st.booleans())))
    return relation, statements


@common
@given(update_runs())
def test_updated_fingerprint_equals_a_fresh_hash(case):
    # a snapshot whose parent's fingerprint was read derives its own from
    # the changed rows; one whose parent's was not computes it when read
    relation, statements = case
    session = Session(relations={"T": relation})
    for statement, read_before in statements:
        if read_before:
            session.relations["T"].fingerprint
        run_command(session, statement)
        if read_before:
            now = session.relations["T"]
            assert now.fingerprint == Relation(now.name, now.schema, now.rows).fingerprint
    now = session.relations["T"]
    assert now.fingerprint == Relation(now.name, now.schema, now.rows).fingerprint


@common
@given(update_runs())
def test_witnesses_after_an_update_equal_a_fresh_snapshots(case):
    # the snapshot's value ids and partitions are built before the UPDATEs,
    # so each child reads those its edit left equal
    relation, statements = case
    width = len(relation.schema)

    def witnesses(snapshot):
        return [
            violating_rows(snapshot, lhs, rhs)
            for lhs in ([x] for x in range(width)) for rhs in range(width)
        ]

    witnesses(relation)
    session = Session(relations={"T": relation})
    for statement, _ in statements:
        run_command(session, statement)
        now = session.relations["T"]
        assert witnesses(now) == witnesses(Relation(now.name, now.schema, now.rows))


STATEMENT_KINDS = ("update", "equal", "minefd", "holds", "not", "violates", "dependent")


@st.composite
def statement_runs(draw, kinds=STATEMENT_KINDS):
    """A relation and statements that build, keep, pass on and read its
    partitions and scores: UPDATE of every row or of some, to NULL, to a
    value or to the value the rows already hold; MINEFD, with or without
    an LHS LENGTH cap and LHS and RHS LIKE filters; exact and approximate
    HOLDS, with and without ON; NOT HOLDS, VIOLATES and DEPENDENT. Only
    the statement kinds named in `kinds` are drawn."""
    relation = draw(relations(min_attrs=2, max_rows=10))
    schema = relation.schema

    def name(meta):
        return f'"{meta.name}"'

    def literal(meta):
        if meta.kind == "integer":
            return str(draw(st.integers(0, 3)))
        return f"'{draw(st.sampled_from('abc'))}'"

    def condition():
        meta = draw(st.sampled_from(schema))
        return f"[{name(meta)} {draw(st.sampled_from(('=', '!=', '<=')))} {literal(meta)}]"

    def fd(suspect=None):
        lhs = draw(st.lists(st.sampled_from(schema), min_size=1, max_size=3, unique=True))
        if suspect is not None and suspect not in lhs:
            lhs.append(suspect)
        rhs = draw(st.sampled_from(schema))
        return f"{', '.join(map(name, lhs))} -> {name(rhs)}"

    def bound():
        return draw(st.sampled_from(("0.0", "0.05", "0.2", "0.5")))

    def mining_where():
        # a cap scores its level by splits, the levels below from products
        atoms = []
        if draw(st.booleans()):
            atoms.append(f"LHS LENGTH <= {draw(st.integers(1, 3))}")
        for side in ("LHS", "RHS"):
            if draw(st.booleans()):
                picked = draw(st.lists(st.sampled_from(schema), min_size=1, unique=True))
                atoms.append(f"{side} LIKE ({', '.join(map(name, picked))})")
        return f" WHERE {' AND '.join(atoms)}" if atoms else ""

    statements = []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "update":
            target = draw(st.sampled_from(schema))
            value = "NULL" if draw(st.booleans()) else literal(target)
            where = f" WHERE {condition()}" if draw(st.booleans()) else ""
            statements.append(f"UPDATE T SET {name(target)} = {value}{where}")
        elif kind == "equal":
            target = draw(st.sampled_from(schema))
            value = literal(target)
            statements.append(
                f"UPDATE T SET {name(target)} = {value} WHERE [{name(target)} = {value}]"
            )
        elif kind == "minefd":
            statements.append(
                f"MINEFD f{i} AS SELECT LHS -> RHS, ERROR{mining_where()} "
                f"FROM T ERROR {bound()}"
            )
        elif kind in ("holds", "not"):
            on = f" ON {condition()}" if draw(st.booleans()) else ""
            error = f", ERROR = {bound()}" if kind == "holds" and draw(st.booleans()) else ""
            head = "HOLDS" if kind == "holds" else "NOT HOLDS"
            statements.append(f"SELECT * FROM T WHERE {head} ({fd()}{on}{error})")
        elif kind == "violates":
            suspect = draw(st.sampled_from(schema))
            statements.append(
                f"SELECT * FROM T WHERE {name(suspect)} VIOLATES "
                f"({fd(suspect)}, ERROR <= {bound()})"
            )
        else:
            attrs = draw(st.lists(st.sampled_from(schema), min_size=1, max_size=3, unique=True))
            statements.append(
                f"SELECT DEPENDENT ([{', '.join(map(name, attrs))}], ERROR = {bound()}) "
                "FROM T"
            )
    return relation, statements


def _outcome(session, statement):
    try:
        return run_command(session, statement)[1]
    except FdqError as exc:
        return type(exc).__name__, str(exc)


@common
@given(statement_runs())
def test_kept_partitions_answer_like_a_fresh_snapshot(case):
    # each statement runs on the session, whose snapshots keep and pass on
    # partitions, and on a fresh session that loads the same rows
    relation, statements = case
    session = Session(relations={"T": relation})
    for statement in statements:
        now = session.relations["T"]
        fresh = Session(relations={"T": Relation(now.name, now.schema, now.rows)})
        assert _outcome(session, statement) == _outcome(fresh, statement)
        assert session.relations["T"] == fresh.relations["T"]


@common
@given(
    statement_runs(kinds=("update", "equal", "minefd")),
    st.sampled_from((1, 3, fdq.partition.STAGE_ROWS)),
)
def test_kept_scores_mine_like_a_fresh_snapshot(case, stage_rows):
    # small stages stop scoring past the bound early, so kept scores of
    # rejected candidates are partial counts
    relation, statements = case
    session = Session(relations={"T": relation})
    with mock.patch.object(fdq.partition, "STAGE_ROWS", stage_rows):
        for statement in statements:
            run_command(session, statement)
            if statement.startswith("MINEFD"):
                parsed = parse_minefd(statement)
                spec = parsed.mining_spec()
                now = session.relations["T"]
                fresh = Relation(now.name, now.schema, now.rows)
                assert (
                    session.fdsets[parsed.name].entries
                    == mine_fds(fresh, spec).entries
                    == brute_force_mine(fresh, spec).entries
                )


# --- query algebra -------------------------------------------------------------------

@common
@given(relations_with_fd(), st.integers(0, 3))
def test_where_tree_is_set_algebra_over_predicates(case, pivot):
    relation, lhs, rhs = case
    first = relation.schema[0]
    pred = FdPredicate("holds", tuple(lhs), rhs)
    comparison = Comparison(first.name, ">=", pivot if first.kind == "integer" else "b")
    kept_pred = eval_holds(relation, lhs, rhs)
    kept_cmp = eval_row_predicate(relation, comparison)
    both = execute(
        ExtendedSelect(StarProjection(), "t", And((pred, comparison))), relation
    )
    either = execute(
        ExtendedSelect(StarProjection(), "t", Or((pred, comparison))), relation
    )
    assert len(both.rows) == len(kept_pred & kept_cmp)
    assert len(either.rows) == len(kept_pred | kept_cmp)


def entry_matches(node, entry, schema):
    """One entry against a dependency condition, atom by atom: the oracle
    for the set-at-a-time evaluation in fdq.fdstore."""
    if isinstance(node, LhsLike):
        lhs = set(entry.lhs)
        return any(alt <= lhs for alt in eval_subset_expr(node.expr, schema))
    if isinstance(node, RhsLike):
        return any(entry.rhs in alt for alt in eval_subset_expr(node.expr, schema))
    if isinstance(node, LhsLength):
        return node.admits(len(entry.lhs))
    if isinstance(node, ErrorLeq):
        return entry.error <= node.threshold
    if isinstance(node, And):
        return all(entry_matches(item, entry, schema) for item in node.items)
    if isinstance(node, Or):
        return any(entry_matches(item, entry, schema) for item in node.items)
    raise TypeError(f"not a condition node: {node!r}")


@common
@given(fdml_queries, fdsets(), st.none() | st.just(NAMES + ("Cat", "Bob")))
def test_fdml_evaluation_equals_the_per_entry_oracle(query, fdset, schema):
    names = list(schema) if schema is not None else fdset.attribute_universe()
    hits = sorted(
        (
            e for e in fdset.entries
            if query.where is None or entry_matches(query.where, e, names)
        ),
        key=canonical_key,
    )
    rows = [(", ".join(e.lhs), e.rhs, e.error) for e in hits]
    if query.projection == "pairs":
        rows = [row[:2] for row in rows]
    assert list(eval_fdml(query, fdset, schema).rows) == rows
