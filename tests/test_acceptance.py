"""Scorecard suite over the shipped fixture tables.

Every test prints one `criterion N: PASS|FAIL` line before asserting, so a
run with -s reads as a ten-line checklist next to the pytest verdicts. The
checks here recompute their expectations independently (pairwise oracles,
subset enumeration) instead of trusting the engine's own machinery.
"""

import io
import itertools
import random
import time

import test_properties
from oracle import brute_force_mine

from fdq.cfd import CFD, PatternTableau, cfd_confidence, cfd_support
from fdq.cli import Session, run_repl
from fdq.fdstore import dumps_fdset, eval_fdml, parse_fdml
from fdq.miner import MiningSpec, execute_minefd, mine_fds, parse_minefd
from fdq.partition import error_measure, violating_rows
from fdq.query import (
    eval_dependent,
    eval_holds,
    eval_not_holds,
    eval_violates,
    execute,
    parse_extended_select,
)
from fdq.relation import Relation

FIXED_CLOCK = "2026-01-01T00:00:00Z"


def verdict(number: int, ok: bool) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    return ok


# --- 1: scoped exact HOLDS ----------------------------------------------------

SCOPED_HOLDS = (
    'SELECT "Category", "BtlVol", "CategoryName" FROM IOWA '
    'WHERE HOLDS ("Category", "BtlVol" -> "CategoryName" '
    'ON ["BtlVol" >= 750] AND (["Category" = 11200] OR ["CategoryName" = "SCOTCH"]))'
)


def test_criterion_1_scoped_holds_golden(iowa):
    start = time.perf_counter()
    ast = parse_extended_select(SCOPED_HOLDS)
    kept = eval_holds(iowa, ast.where.lhs, ast.where.rhs, ast.where.on)
    table = execute(ast, iowa)
    elapsed = time.perf_counter() - start
    expected_cells = (
        (11200, 750, "BOURBON"),
        (12210, 750, "SCOTCH"),
        (12210, 750, "SCOTCH"),
        (11200, 750, "BOURBON"),
    )
    ok = kept == {4, 5, 6, 7} and table.rows == expected_cells and elapsed < 1.0
    assert verdict(1, ok), (sorted(kept), table.rows, elapsed)


# --- 2: approximate HOLDS plus its measured error -----------------------------

def test_criterion_2_approximate_holds_golden(iowa):
    kept = eval_holds(iowa, ("Category",), "CategoryName", error=0.05)
    (measured,) = error_measure(
        iowa, [iowa.attribute("Category").index], [iowa.attribute("CategoryName").index]
    )
    ok = kept == {1, 3, 4, 5, 6, 7, 8} and abs(measured - 4 / 90) <= 1e-12
    assert verdict(2, ok), (sorted(kept), measured)


# --- 3: NOT HOLDS -------------------------------------------------------------

def test_criterion_3_not_holds_golden(iowa):
    kept = eval_not_holds(iowa, ("Address",), "Zip")
    assert verdict(3, kept == {5, 7}), sorted(kept)


# --- 4: VIOLATES at the default distance threshold ----------------------------

def test_criterion_4_violates_golden(iowa):
    kept = eval_violates(iowa, "Address", ("Address", "Vendor"), "Zip")
    assert verdict(4, kept == {0, 8}), sorted(kept)


# --- 5: DEPENDENT attribute set -----------------------------------------------

def test_criterion_5_dependent_golden(iowa):
    found = eval_dependent(iowa, ("Zip", "Address"))
    expected = {"Date", "Sale", "CategoryName", "VolSold", "Category"}
    assert verdict(5, set(found) == expected), found


# --- 6: mine exactly, then query the set by glob families ----------------------

DEP_QUERY = (
    "SELECTDEP LHS -> RHS FROM fs WHERE "
    '(LHS LIKE ({"Address", "Zip"} + {"Address", "Category*"}) '
    'AND RHS LIKE ("Sale", "Date")) '
    'OR (LHS LIKE ({"Vendor"}) AND LHS LENGTH = 3 AND RHS LIKE ("*Sold"))'
)

EXPECTED_DEPENDENCY_ROWS = (
    ("Address, Category", "Date"),
    ("Address, Category", "Sale"),
    ("Address, CategoryName", "Date"),
    ("Address, CategoryName", "Sale"),
    ("Address, Zip", "Date"),
    ("Address, Zip", "Sale"),
    ("BtlVol, Category, Vendor", "BtlSold"),
    ("BtlVol, Category, Vendor", "VolSold"),
)


def test_criterion_6_dependency_query_golden(iowa):
    mined = mine_fds(iowa, name="fs")
    result = eval_fdml(parse_fdml(DEP_QUERY), mined, schema=iowa.attribute_names)
    # Known red. Fixture rows 5 and 8 agree on (BtlVol, Category, Vendor) =
    # (750, 11200, 65) yet differ in both BtlSold and VolSold, so no exact
    # miner can emit the last two expected rows. The expectation stays as
    # stated and this failure records the conflict.
    assert verdict(6, result.rows == EXPECTED_DEPENDENCY_ROWS), result.rows


# --- 7: miner and validators versus a pairwise oracle --------------------------

def random_relation(rng: random.Random, width: int, height: int) -> Relation:
    attributes = []
    domains = []
    for i in range(width):
        textual = rng.random() < 0.3
        size = rng.randint(2, 5)
        if textual:
            attributes.append((f"A{i}", "text"))
            domains.append([f"v{k}" for k in range(size)])
        else:
            attributes.append((f"A{i}", "integer"))
            domains.append(list(range(size)))
    rows = [
        tuple(rng.choice(domain) for domain in domains) for _ in range(height)
    ]
    return Relation.build("R", attributes, rows)


def pair_agreement_counts(relation: Relation) -> dict[int, int]:
    """Count unordered row pairs per agreement bitmask (bit a = agree on a)."""
    rows = relation.rows
    width = len(relation.schema)
    counts: dict[int, int] = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            mask = 0
            for a in range(width):
                if rows[i][a] == rows[j][a]:
                    mask |= 1 << a
            counts[mask] = counts.get(mask, 0) + 1
    return counts


def oracle_error(counts, n: int, lhs_bits: int, rhs_bit: int) -> float:
    if n <= 1:
        return 0.0
    bad = sum(
        c
        for mask, c in counts.items()
        if mask & lhs_bits == lhs_bits and not mask & rhs_bit
    )
    return 2 * bad / (n * n - n)


def test_criterion_7_oracle_equivalence():
    rng = random.Random(20260817)
    shapes = [(rng.randint(2, 6), rng.randint(0, 50)) for _ in range(100)]
    shapes += [(rng.randint(7, 8), rng.randint(0, 50)) for _ in range(10)]
    start = time.perf_counter()
    ok = True
    candidates = 0
    for width, height in shapes:
        relation = random_relation(rng, width, height)
        spec = MiningSpec(error_threshold=rng.choice((0.0, 0.0, 0.05, 0.2)))
        fast = mine_fds(relation, spec)
        slow = brute_force_mine(relation, spec)
        ok &= [e.key for e in fast.entries] == [e.key for e in slow.entries]
        ok &= all(
            abs(a.error - b.error) <= 1e-12
            for a, b in zip(fast.entries, slow.entries)
        )
        counts = pair_agreement_counts(relation)
        n = relation.row_count
        for rhs in range(width):
            others = [a for a in range(width) if a != rhs]
            for size in range(1, width):
                for lhs in itertools.combinations(others, size):
                    expected = oracle_error(
                        counts, n, sum(1 << a for a in lhs), 1 << rhs
                    )
                    (measured,) = error_measure(relation, lhs, [rhs])
                    ok &= abs(measured - expected) <= 1e-12
                    ok &= (not violating_rows(relation, lhs, rhs)) == (expected == 0.0)
                    candidates += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert verdict(7, ok), (candidates, elapsed)


# --- 8: the property suite, rerun as one gate -----------------------------------

PROPERTY_CHECKS = (
    test_properties.test_holds_and_not_holds_partition_the_table,
    test_properties.test_holds_is_idempotent_on_its_result,
    test_properties.test_error_measure_shrinks_as_lhs_grows,
    test_properties.test_closure_is_extensive_and_idempotent,
    test_properties.test_closure_is_monotone,
    test_properties.test_fdset_serialization_round_trips,
    test_properties.test_fdml_print_parse_round_trips,
    test_properties.test_select_print_parse_round_trips,
)


def test_criterion_8_property_suite():
    failures = []
    for check in PROPERTY_CHECKS:
        try:
            check()
        except Exception as exc:
            failures.append(f"{check.__name__}: {exc}")
    assert verdict(8, not failures), failures


# --- 9: conditional-dependency scoring ------------------------------------------

CUSTOMER_TABLEAU = PatternTableau(
    ("CC", "AC", "STR", "ZIP"),
    (
        (None, None, None, None),
        (("=", 1), ("=", 908), None, None),
        (("=", 1), ("=", 212), None, None),
    ),
)

ORACLE_OPS = {
    "=": lambda v, c: v == c,
    "!=": lambda v, c: v != c,
    "<": lambda v, c: v < c,
    "<=": lambda v, c: v <= c,
    ">": lambda v, c: v > c,
    ">=": lambda v, c: v >= c,
}


def oracle_cell_matches(value, cell) -> bool:
    if cell is None:
        return True
    if value is None:
        return False
    op, constant = cell
    return ORACLE_OPS[op](value, constant)


def subset_satisfies(rows, lhs_idx, rhs_idx, patterns) -> bool:
    """Universally quantified check, pairs taken with repetition."""
    for pattern in patterns:
        lhs_cells = [(i, pattern.get(i)) for i in lhs_idx]
        rhs_values: dict[tuple, set] = {}
        for row in rows:
            if not all(oracle_cell_matches(row[i], cell) for i, cell in lhs_cells):
                continue
            if not oracle_cell_matches(row[rhs_idx], pattern.get(rhs_idx)):
                return False
            key = tuple(row[i] for i in lhs_idx)
            rhs_values.setdefault(key, set()).add(row[rhs_idx])
        if any(len(values) > 1 for values in rhs_values.values()):
            return False
    return True


def exhaustive_confidence(relation: Relation, cfd: CFD) -> float:
    """Largest satisfying sub-instance over all row subsets, brute force."""
    n = relation.row_count
    if n == 0:
        return 1.0
    lhs_idx = [relation.attribute(a).index for a in cfd.lhs]
    rhs_idx = relation.attribute(cfd.rhs).index
    patterns = [
        {
            relation.attribute(a).index: cell
            for a, cell in zip(cfd.tableau.attributes, row)
        }
        for row in cfd.tableau.rows
    ]
    for size in range(n, -1, -1):
        for picked in itertools.combinations(relation.rows, size):
            if subset_satisfies(picked, lhs_idx, rhs_idx, patterns):
                return size / n
    return 0.0


def random_cfd_instance(rng: random.Random):
    names = ("P", "Q", "R", "S")
    height = rng.randint(0, 6)
    rows = [
        tuple(
            None if rng.random() < 0.05 else rng.randrange(3)
            for _ in names
        )
        for _ in range(height)
    ]
    relation = Relation.build("R", [(n, "integer") for n in names], rows)
    lhs = tuple(sorted(rng.sample(names, rng.randint(1, 3))))
    rhs = rng.choice([n for n in names if n not in lhs])
    tableau_attrs = lhs + (rhs,)

    def cell():
        if rng.random() < 0.45:
            return None
        return (rng.choice(("=", "=", ">=", "!=")), rng.randrange(3))

    tableau = PatternTableau(
        tableau_attrs,
        tuple(
            tuple(cell() for _ in tableau_attrs)
            for _ in range(rng.randint(1, 3))
        ),
    )
    return relation, CFD(lhs, rhs, tableau)


def test_criterion_9_cfd_scoring(customers):
    cfd = CFD(("CC", "AC", "STR"), "ZIP", CUSTOMER_TABLEAU)
    ok = cfd_confidence(customers, cfd) == 5 / 6
    ok &= exhaustive_confidence(customers, cfd) == 5 / 6
    support = cfd_support(
        customers,
        ["CC", "AC", "STR", "CT"],
        "ZIP",
        {
            "CC": ("=", 1),
            "AC": ("=", 908),
            "STR": None,
            "CT": ("=", "MH"),
            "ZIP": None,
        },
    )
    ok &= support == 2 / 6
    rng = random.Random(987)
    mismatches = []
    for _ in range(200):
        relation, random_cfd = random_cfd_instance(rng)
        scored = cfd_confidence(relation, random_cfd)
        expected = exhaustive_confidence(relation, random_cfd)
        if scored != expected:
            mismatches.append((relation.rows, random_cfd, scored, expected))
    ok &= not mismatches
    assert verdict(9, ok), (support, mismatches[:2])


# --- 10: determinism across thread counts and replays ---------------------------

REPLAY_SCRIPT = (
    "LOAD 'iowa.csv' AS IOWA;\n"
    "MINEFD fs AS SELECT LHS -> RHS, ERROR FROM IOWA ERROR 0.05;\n"
    'SELECTDEP LHS -> RHS FROM fs WHERE RHS LIKE ("Pack");\n'
    'SELECT "Address", "Zip" FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip");\n'
    "UPDATE IOWA SET \"Zip\" = 51333 WHERE [\"Address\" = 'HWY 71'];\n"
    "MINEFD fs2 AS SELECT LHS -> RHS FROM IOWA;\n"
    "DIFF fs fs2;\n"
)


def test_criterion_10_determinism(iowa, data_dir):
    statement = parse_minefd("MINEFD fs AS SELECT LHS -> RHS, ERROR FROM IOWA")
    dumps = {
        dumps_fdset(
            execute_minefd(statement, iowa, workers=w, mined_at=FIXED_CLOCK)
        )
        for w in (1, 2, 8)
    }
    transcripts = []
    for _ in range(2):
        sink = io.StringIO()
        session = Session(data_dir=str(data_dir), clock=lambda: FIXED_CLOCK)
        code = run_repl(session, stdin=io.StringIO(REPLAY_SCRIPT), out=sink)
        transcripts.append((code, sink.getvalue()))
    ok = len(dumps) == 1
    ok &= transcripts[0] == transcripts[1]
    ok &= transcripts[0][0] == 0 and "loaded IOWA" in transcripts[0][1]
    assert verdict(10, ok), (len(dumps), transcripts[0][0])
