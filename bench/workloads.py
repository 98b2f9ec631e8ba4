"""Seeded inputs for the fdq benchmark: tables, statement scripts, planted facts.

Each workload is a function of its seed alone. It writes CSV files into a
work directory, records what it planted (exact and near-exact
dependencies, one-character typos, dirty zip codes) in a JSON file next to
the data, and returns the statement script that the benchmark feeds to
fdq. fdq sees only the CSV files and the statement text; the planted
record and the per-statement checks stay on the benchmark's side.

Each workload runs only the statement classes of its focus, so the layers
outside that focus stay flat (and read 0) on it: `query_scan` mines
nothing, `mine_lattice` runs no row query.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field


@dataclass
class Statement:
    """One statement of a script, its class, and what the verifier checks."""

    text: str
    kind: str  # load | minefd | select | violates | dependent | update | fdset
    check: dict | None = None


@dataclass
class Table:
    csv_name: str
    kinds: list[str]  # "integer" | "decimal" | "text", as fdq infers them
    typos: list[dict] = field(default_factory=list)


@dataclass
class Workload:
    tables: dict[str, Table]
    statements: list[Statement]
    planted: dict


def _write_csv(path: str, columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


# --- mine_lattice ----------------------------------------------------------------

LATTICE_ROWS = 2000
LATTICE_DOMAINS = (2, 3, 5, 10, 20, 100, 250, 1000)
# (determinant, dependent): the dependent column is overwritten with a
# seeded function of the determinant, so the dependency holds exactly.
LATTICE_EXACT = ((("c00", "c05"), "c02"), (("c05",), "c04"), (("c01", "c02"), "c03"))
# Same, but a share of rows get a random dependent value afterwards; no
# near dependent feeds an exact one, so the exact ones stay exact.
LATTICE_NEAR = ((("c07",), "c06", 0.01),)


def _lattice(seed: int, workdir: str) -> Workload:
    """Integer columns with mixed domains and planted (near-)dependencies.

    Chosen so the lattice walk dominates: an exact and an approximate
    MINEFD, then dependency-set statements on their results.
    """
    rng = random.Random(f"mine_lattice-{seed}")
    n = LATTICE_ROWS
    cols = [f"c{i:02d}" for i in range(len(LATTICE_DOMAINS))]
    index = {c: i for i, c in enumerate(cols)}
    domain = dict(zip(cols, LATTICE_DOMAINS))
    rows = [[rng.randrange(d) for d in LATTICE_DOMAINS] for _ in range(n)]
    near_rows: dict[str, list[int]] = {}
    for lhs, rhs in LATTICE_EXACT + tuple((l, r) for l, r, _ in LATTICE_NEAR):
        mapping: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row[index[a]] for a in lhs)
            if key not in mapping:
                mapping[key] = rng.randrange(domain[rhs])
            row[index[rhs]] = mapping[key]
    for lhs, rhs, share in LATTICE_NEAR:
        noisy = sorted(rng.sample(range(n), max(1, round(n * share))))
        near_rows[rhs] = noisy
        for i in noisy:
            rows[i][index[rhs]] = rng.randrange(domain[rhs])
    _write_csv(os.path.join(workdir, "lattice.csv"), cols, rows)
    table = Table("lattice.csv", ["integer"] * len(cols))
    planted = {
        "exact_fds": [[list(lhs), rhs] for lhs, rhs in LATTICE_EXACT],
        "near_fds": [
            {"lhs": list(lhs), "rhs": rhs, "noisy_rows": near_rows[rhs]}
            for lhs, rhs, _ in LATTICE_NEAR
        ],
    }
    exact_fds = planted["exact_fds"]
    s = Statement
    script = [
        s("LOAD 'lattice.csv' AS L", "load", {"op": "load", "table": "L"}),
        s("MINEFD exact AS SELECT LHS -> RHS FROM L", "minefd",
          {"op": "mine", "table": "L", "set": "exact", "bound": 0.0, "cap": None,
           "planted": exact_fds}),
        s("MINEFD approx AS SELECT LHS -> RHS, ERROR FROM L ERROR 0.01", "minefd",
          {"op": "mine", "table": "L", "set": "approx", "bound": 0.01, "cap": None,
           "planted": exact_fds}),
        s('SELECTDEP LHS -> RHS FROM exact WHERE LHS LIKE {"c05", "c0*"}', "fdset",
          {"op": "selectdep", "stale": False}),
        s('SELECTDEP * FROM exact WHERE RHS LIKE ("c0*") AND LHS LENGTH <= 2',
          "fdset", {"op": "selectdep", "stale": False}),
        s('SELECTDEP * FROM approx WHERE LHS LIKE ({"c00"} + {"c07", "c0*"}) '
          'OR ERROR 0.0001', "fdset", {"op": "selectdep", "stale": False}),
        s("DIFF exact approx", "fdset", {"op": "diff", "old": "exact", "new": "approx"}),
        s("EXPORT exact TO 'exact.fdset'", "fdset",
          {"op": "export", "set": "exact", "path": "exact.fdset"}),
        s("IMPORT 'exact.fdset' AS restored", "fdset",
          {"op": "import", "set": "restored", "path": "exact.fdset"}),
    ]
    return Workload({"L": table}, script, planted)


# --- Iowa-shaped sales tables (query_scan, repair_loop) --------------------------

STREETS = (
    "MAPLE", "OAK", "ELM", "CEDAR", "PINE", "WALNUT", "HICKORY", "ASPEN", "BIRCH",
    "SPRUCE", "LOCUST", "CHESTNUT", "MAIN", "CENTER", "LINCOLN", "GRAND", "PARK",
    "LAKE", "HILL", "RIVER", "PRAIRIE", "MEADOW", "SUNSET", "HIGHLAND", "ORCHARD",
    "VALLEY", "RIDGE", "FOREST", "MILL", "BRIDGE", "CHURCH", "MARKET", "FRANKLIN",
    "JEFFERSON", "MADISON", "MONROE", "JACKSON", "WASHINGTON", "ADAMS", "HARRISON",
)
SUFFIXES = ("ST", "AVE", "RD", "DR", "BLVD", "LN", "CT", "WAY", "PKWY", "PL")
CATEGORY_HEADS = (
    "AMERICAN", "CANADIAN", "BLENDED", "IMPORTED", "FLAVORED", "SPICED",
    "STRAIGHT", "IRISH", "SCOTCH", "TENNESSEE", "DRY", "AGED",
)
CATEGORY_TAILS = (
    "VODKAS", "WHISKIES", "RUM", "GINS", "BRANDIES", "TEQUILA", "LIQUEURS",
    "SCHNAPPS", "BOURBON", "CORDIALS",
)
SALES_COLUMNS = [
    "Store", "Address", "Zip", "Vendor", "Category", "CategoryName", "Pack", "Sale",
]
SALES_KINDS = [
    "integer", "text", "integer", "integer", "integer", "text", "integer", "decimal",
]
PACKS = (6, 12, 24, 48)
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _typo(rng: random.Random, text: str, taken: set[str]) -> str:
    """Replace one non-space character by a different letter."""
    while True:
        pos = rng.choice([i for i, ch in enumerate(text) if ch != " "])
        letter = rng.choice(LETTERS.replace(text[pos], ""))
        out = text[:pos] + letter + text[pos + 1 :]
        if out not in taken:
            taken.add(out)
            return out


def _sales(
    rng: random.Random,
    rows: int,
    zips: int,
    *,
    dirty: int,
    per_zip: int = 8,
    vendors: int = 12,
    categories: int = 40,
    typo_rate: float = 0.01,
):
    """Sales rows over stores grouped by zip; returns rows and what was planted.

    Planted: Store -> Address and Address -> Zip (broken only by typos and
    dirty zips), Category -> CategoryName (broken by typos), and
    (Vendor, Category) -> Pack. A dirty address gets a wrong zip on about a
    fifth of its rows; typos never land on those rows.
    """
    zip_codes = rng.sample(range(50002, 52999), zips)
    stores = []  # (store id, address, zip)
    taken: set[str] = set()
    for z in zip_codes:
        for _ in range(per_zip):
            while True:
                address = (
                    f"{rng.randint(100, 9999)} {rng.choice(STREETS)} "
                    f"{rng.choice(SUFFIXES)}"
                )
                if address not in taken:
                    break
            taken.add(address)
            stores.append((1000 + len(stores), address, z))
    vendor_ids = rng.sample(range(100, 1000), vendors)
    names = rng.sample(
        [f"{h} {t}" for h in CATEGORY_HEADS for t in CATEGORY_TAILS], categories
    )
    taken.update(names)
    cats = list(zip(rng.sample(range(1011000, 1099000, 100), categories), names))
    pack = {(v, c): rng.choice(PACKS) for v in vendor_ids for c, _ in cats}
    dirty_stores = {
        s[0]: rng.choice([z for z in zip_codes if z != s[2]])
        for s in rng.sample(stores, dirty)
    }
    out = []
    typos = []
    dirty_rows: dict[int, list[int]] = {s: [] for s in dirty_stores}
    for i in range(rows):
        # every store appears at least once, the rest are drawn at random
        store, address, z = stores[i] if i < len(stores) else rng.choice(stores)
        vendor = rng.choice(vendor_ids)
        cat, name = rng.choice(cats)
        sale = f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}"
        if store in dirty_stores and rng.random() < 0.2:
            z = dirty_stores[store]
            dirty_rows[store].append(i)
        elif rng.random() < typo_rate:
            if rng.random() < 0.5:
                bad = _typo(rng, address, taken)
                typos.append({"row": i, "column": "Address", "original": address, "typo": bad})
                address = bad
            else:
                bad = _typo(rng, name, taken)
                typos.append({"row": i, "column": "CategoryName", "original": name, "typo": bad})
                name = bad
        out.append([store, address, z, vendor, cat, name, pack[(vendor, cat)], sale])
    repairs = []
    by_id = {s[0]: s for s in stores}
    for store, wrong in dirty_stores.items():
        _, address, z = by_id[store]
        if not dirty_rows[store]:  # make sure every dirty address is dirty
            row = next(r for r in out if r[0] == store and r[1] == address)
            row[2] = wrong
            dirty_rows[store].append(out.index(row))
        repairs.append({"address": address, "zip": z, "rows": dirty_rows[store]})
    exact = [[["Vendor", "Category"], "Pack"]]
    if not dirty:  # dirty zips break Store -> Zip
        exact.append([["Store"], "Zip"])
    planted = {"exact_fds": exact, "typos": typos, "dirty_addresses": repairs}
    return out, planted


SCAN_ROWS = 10000
SCAN_ZIPS = 50


def _query_scan(seed: int, workdir: str) -> Workload:
    """Row queries over a typo-ridden sales table, with no mining at all.

    Chosen so per-row work dominates: ingest, regrouping per predicate,
    edit distance inside groups, and rendering of large results. Nothing
    is mined, so a miner change should leave it flat.
    """
    rng = random.Random(f"query_scan-{seed}")
    rows, planted = _sales(rng, SCAN_ROWS, SCAN_ZIPS, dirty=0)
    _write_csv(os.path.join(workdir, "scan.csv"), SALES_COLUMNS, rows)
    tables = {"Q": Table("scan.csv", SALES_KINDS, planted["typos"])}
    star = SALES_COLUMNS
    s = Statement
    script = [
        s("LOAD 'scan.csv' AS Q", "load", {"op": "load", "table": "Q"}),
        s('SELECT * FROM Q WHERE HOLDS ("Store" -> "Address")', "select",
          {"op": "rows", "table": "Q", "mode": "holds", "lhs": ["Store"],
           "rhs": "Address", "proj": star}),
        s('SELECT * FROM Q WHERE NOT HOLDS ("Store" -> "Address")', "select",
          {"op": "rows", "table": "Q", "mode": "not_holds", "lhs": ["Store"],
           "rhs": "Address", "proj": star}),
        s('SELECT "Category", "CategoryName", "Pack" FROM Q '
          'WHERE HOLDS ("Category" -> "CategoryName" ON ["Pack" >= 24])', "select",
          {"op": "rows", "table": "Q", "mode": "holds", "lhs": ["Category"],
           "rhs": "CategoryName", "on": ["Pack", ">=", "24"],
           "proj": ["Category", "CategoryName", "Pack"]}),
        s('SELECT "Category", "CategoryName", "Pack" FROM Q '
          'WHERE NOT HOLDS ("Category" -> "CategoryName" ON ["Pack" >= 24])', "select",
          {"op": "rows", "table": "Q", "mode": "not_holds", "lhs": ["Category"],
           "rhs": "CategoryName", "on": ["Pack", ">=", "24"],
           "proj": ["Category", "CategoryName", "Pack"]}),
        s('SELECT "Category", "CategoryName" FROM Q '
          'WHERE HOLDS ("Category" -> "CategoryName", ERROR = 0.05)', "select",
          {"op": "rows", "table": "Q", "mode": "holds", "lhs": ["Category"],
           "rhs": "CategoryName", "error": 0.05, "proj": ["Category", "CategoryName"]}),
        s('SELECT "Store", "Address", "Sale" FROM Q '
          'WHERE NOT HOLDS ("Store" -> "Address") AND ["Sale" >= 500.00]', "select",
          {"op": "rows", "table": "Q", "mode": "not_holds", "lhs": ["Store"],
           "rhs": "Address", "filter": ["Sale", ">=", "500.00"],
           "proj": ["Store", "Address", "Sale"]}),
        s('SELECT * FROM Q '
          'WHERE "Address" VIOLATES ("Address", "Store" -> "Zip", ERROR <= 0.2)',
          "violates",
          {"op": "violates", "table": "Q", "suspect": "Address",
           "lhs": ["Address", "Store"], "rhs": "Zip", "proj": star}),
        s('SELECT "Address", "Zip" FROM Q '
          'WHERE "Address" VIOLATES ("Address" -> "Zip", ERROR <= 0.2)', "violates",
          {"op": "violates", "table": "Q", "suspect": "Address", "lhs": ["Address"],
           "rhs": "Zip", "proj": ["Address", "Zip"]}),
        s('SELECT DEPENDENT (["Vendor", "Category"]) FROM Q', "dependent",
          {"op": "dependent", "table": "Q", "attrs": ["Vendor", "Category"]}),
    ]
    return Workload(tables, script, planted)


REPAIR_ROWS = 5000
REPAIR_ZIPS = 25
REPAIR_ROUNDS = 4
REPAIRS_PER_ROUND = 2


def _repair_loop(seed: int, workdir: str) -> Workload:
    """Mine, find witnesses, UPDATE them away, re-mine, diff.

    Chosen so writes sit between reads: each UPDATE makes a new snapshot
    and fingerprint, so anything cached per snapshot is rebuilt.
    """
    rng = random.Random(f"repair_loop-{seed}")
    dirty_count = REPAIR_ROUNDS * REPAIRS_PER_ROUND
    rows, planted = _sales(rng, REPAIR_ROWS, REPAIR_ZIPS, dirty=dirty_count)
    _write_csv(os.path.join(workdir, "repair.csv"), SALES_COLUMNS, rows)
    tables = {"R": Table("repair.csv", SALES_KINDS, planted["typos"])}
    before_fds = planted["exact_fds"]
    after_fds = before_fds + [[["Address"], "Zip"]]
    mine = "MINEFD {} AS SELECT LHS -> RHS WHERE LHS LENGTH <= 2 FROM R"
    witnesses = 'SELECT "Store", "Address", "Zip" FROM R WHERE NOT HOLDS ("Address" -> "Zip")'
    s = Statement
    script = [
        s("LOAD 'repair.csv' AS R", "load", {"op": "load", "table": "R"}),
        s(mine.format("before"), "minefd",
          {"op": "mine", "table": "R", "set": "before", "bound": 0.0, "cap": 2,
           "planted": before_fds}),
    ]
    fixed: list[str] = []
    repairs = planted["dirty_addresses"]
    for r in range(REPAIR_ROUNDS):
        script.append(s(witnesses, "select",
                        {"op": "rows", "table": "R", "mode": "not_holds",
                         "lhs": ["Address"], "rhs": "Zip", "gone": list(fixed),
                         "proj": ["Store", "Address", "Zip"]}))
        for fix in repairs[r * REPAIRS_PER_ROUND : (r + 1) * REPAIRS_PER_ROUND]:
            address = fix["address"]
            script.append(s(
                f'UPDATE R SET "Zip" = {fix["zip"]} WHERE ["Address" = \'{address}\']',
                "update",
                {"op": "update", "table": "R", "column": "Zip", "value": str(fix["zip"]),
                 "where": [["Address", "=", address]]}))
            fixed.append(address)
        script.append(s('SELECTDEP LHS -> RHS FROM before WHERE RHS LIKE ("Zip")',
                        "fdset", {"op": "selectdep", "stale": True}))
    script += [
        s(witnesses, "select",
          {"op": "rows", "table": "R", "mode": "not_holds", "lhs": ["Address"],
           "rhs": "Zip", "gone": list(fixed), "proj": ["Store", "Address", "Zip"]}),
        s(mine.format("after"), "minefd",
          {"op": "mine", "table": "R", "set": "after", "bound": 0.0, "cap": 2,
           "planted": after_fds}),
        s("DIFF before after", "fdset", {"op": "diff", "old": "before", "new": "after"}),
        s("EXPORT after TO 'after.fdset'", "fdset",
          {"op": "export", "set": "after", "path": "after.fdset"}),
        s("IMPORT 'after.fdset' AS restored", "fdset",
          {"op": "import", "set": "restored", "path": "after.fdset"}),
    ]
    return Workload(tables, script, planted)


GENERATORS = {
    "mine_lattice": _lattice,
    "query_scan": _query_scan,
    "repair_loop": _repair_loop,
}


def generate(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's tables into `workdir` and return its script."""
    workload = GENERATORS[name](seed, workdir)
    with open(os.path.join(workdir, f"{name}.planted.json"), "w", encoding="utf-8") as fh:
        json.dump(workload.planted, fh, indent=1, sort_keys=True)
    return workload
