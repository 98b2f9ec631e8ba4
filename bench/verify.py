"""Output checks, run outside the timed region.

The checker re-reads the generated CSV files as plain strings and
recomputes every expectation with its own code: pair counts over
`collections.Counter`, dict grouping for witnesses, a replay of each
UPDATE on its own copy of the rows. The only fdq function it calls is
`is_implied`, to confirm that the planted dependencies follow from a mined
set (the miner itself never calls it). Rendered outputs are parsed back
from the text fdq returns, so rendering is checked as well.

Cells compare as the strings the generator wrote: integers carry no
leading zeros and every decimal has two places, so string equality is
value equality for these tables.
"""

from __future__ import annotations

import csv
import json
import operator
import os
from collections import Counter
from decimal import Decimal

from fdq.fdstore import FDEntry, FDSet, is_implied

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_TYPES = {"integer": int, "decimal": Decimal, "text": str}


def parse_grid(text: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """Columns and rows of fdq's table rendering (no null cells expected)."""
    lines = text.split("\n")
    columns = [c.strip() for c in lines[0].split(" | ")]
    rows = [tuple(c.strip() for c in line.split(" | ")) for line in lines[2:-1]]
    return columns, rows


class _Table:
    def __init__(self, path: str, kinds: list[str]):
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        self.columns = records[0]
        self.rows = records[1:]
        self.index = {c: i for i, c in enumerate(self.columns)}
        self.types = [_TYPES[k] for k in kinds]
        self._pairs: dict[tuple[int, ...], int] = {}

    def cols(self, names) -> list[int]:
        return [self.index[n] for n in names]

    def matches(self, row, conditions) -> bool:
        for name, op, value in conditions:
            j = self.index[name]
            cast = self.types[j]
            if not _OPS[op](cast(row[j]), cast(value)):
                return False
        return True

    def pairs(self, attrs: tuple[int, ...]) -> int:
        """Ordered row pairs agreeing on `attrs`, over the whole table."""
        if attrs not in self._pairs:
            groups = Counter(tuple(row[a] for a in attrs) for row in self.rows)
            self._pairs[attrs] = sum(c * (c - 1) for c in groups.values())
        return self._pairs[attrs]

    def error(self, lhs, rhs: int) -> float:
        n = len(self.rows)
        if n <= 1:
            return 0.0
        lhs = tuple(sorted(lhs))
        both = tuple(sorted(set(lhs) | {rhs}))
        return (self.pairs(lhs) - self.pairs(both)) / (n * n - n)

    def update(self, column: str, value: str, where) -> int:
        j = self.index[column]
        hit = 0
        for row in self.rows:
            if self.matches(row, where):
                row[j] = value
                hit += 1
        self._pairs.clear()
        return hit


class Checker:
    """Checks one iteration's outputs in script order; collects failures."""

    def __init__(self, workload, workdir: str, session):
        self.workload = workload
        self.workdir = workdir
        self.session = session
        self.tables = {
            name: _Table(os.path.join(workdir, t.csv_name), t.kinds)
            for name, t in workload.tables.items()
        }
        self.sets: dict[str, dict[tuple, float]] = {}
        self.failures: list[tuple[int, str]] = []
        self.planted_checked = 0

    def run(self, outputs: list[str | None]) -> list[tuple[int, str]]:
        for i, (stmt, output) in enumerate(zip(self.workload.statements, outputs)):
            if output is None or stmt.check is None:
                continue
            try:
                problem = getattr(self, "_" + stmt.check["op"])(stmt.check, output)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unparseable output ({type(exc).__name__}: {exc})"
            if problem:
                self.failures.append((i, problem))
        self._final_tables()
        return self.failures

    def _final_tables(self) -> None:
        """After the script, each session table equals the replayed copy.

        A mismatch is charged to the table's last UPDATE.
        """
        for name, t in self.tables.items():
            updates = [
                i for i, s in enumerate(self.workload.statements)
                if s.check and s.check["op"] == "update" and s.check["table"] == name
            ]
            relation = self.session.relations.get(name)
            if not updates or relation is None:
                continue
            rows = [[str(v) for v in row] for row in relation.rows]
            if rows != t.rows:
                self.failures.append((updates[-1], f"{name} differs from the replayed updates"))

    # --- one method per check op; each returns a problem or None ---------------

    def _load(self, check, output):
        t = self.tables[check["table"]]
        want = f"loaded {check['table']}: {len(t.rows)} rows, {len(t.columns)} attributes"
        return None if output == want else f"expected {want!r}"

    def _mine(self, check, output):
        t = self.tables[check["table"]]
        head, _, grid = output.partition("\n")
        columns, rows = parse_grid(grid)
        if head != f"fdset {check['set']}: {len(rows)} dependencies":
            return f"header {head!r} does not match {len(rows)} listed entries"
        bound, cap = check["bound"], check["cap"]
        mined: dict[tuple, float] = {}
        for row in rows:
            lhs, rhs = tuple(row[0].split(", ")), row[1]
            err = t.error(t.cols(lhs), t.index[rhs])
            if err > bound:
                return f"{row[0]} -> {rhs} has error {err!r} above {bound}"
            shown = float(row[2]) if len(columns) == 3 else 0.0
            if shown != err:
                return f"{row[0]} -> {rhs} shows error {shown!r}, measured {err!r}"
            if cap is not None and len(lhs) > cap:
                return f"{row[0]} -> {rhs} exceeds the size cap {cap}"
            for drop in lhs if len(lhs) > 1 else ():
                sub = [a for a in lhs if a != drop]
                if t.error(t.cols(sub), t.index[rhs]) <= bound:
                    return f"{row[0]} -> {rhs} is not minimal: {sub} suffices"
            mined[(lhs, rhs)] = err
        self.sets[check["set"]] = mined
        return self._planted_implied(check, mined)

    def _planted_implied(self, check, mined):
        """Planted exact dependencies within the cap follow from the set.

        An exact set must imply them. Under a positive bound a subset of
        the determinant may already pass and prune them, so there some
        entry's determinant must lie inside the planted one instead.
        """
        exact = FDSet(
            "check", check["table"], 0,
            tuple(FDEntry(lhs, rhs) for (lhs, rhs), err in mined.items() if err == 0.0),
        )
        for lhs, rhs in check["planted"]:
            if check["cap"] is not None and len(lhs) > check["cap"]:
                continue
            self.planted_checked += 1
            if check["bound"] == 0.0:
                ok = is_implied(FDEntry(tuple(sorted(lhs)), rhs), exact)
            else:
                ok = any(r == rhs and set(l) <= set(lhs) for l, r in mined)
            if not ok:
                return f"planted {lhs} -> {rhs} does not follow from {check['set']}"
        return None

    def _expected_rows(self, check):
        """Row indexes a HOLDS / NOT HOLDS query must return, in table order."""
        t = self.tables[check["table"]]
        on = [check["on"]] if check.get("on") else []
        scope = [i for i, row in enumerate(t.rows) if t.matches(row, on)]
        lhs, rhs = t.cols(check["lhs"]), t.index[check["rhs"]]
        groups: dict[tuple, list[int]] = {}
        for i in scope:
            groups.setdefault(tuple(t.rows[i][a] for a in lhs), []).append(i)
        witnesses = set()
        agree_lhs = agree_both = 0
        for group in groups.values():
            values = Counter(t.rows[i][rhs] for i in group)
            agree_lhs += len(group) * (len(group) - 1)
            agree_both += sum(c * (c - 1) for c in values.values())
            if len(values) > 1:
                witnesses.update(group)
        if check["mode"] == "not_holds":
            kept = witnesses
        else:
            kept = set(scope) - witnesses
            m = len(scope)
            if check.get("error") is not None and m > 1:
                if (agree_lhs - agree_both) / (m * m - m) > check["error"]:
                    kept = set()
        if check.get("filter"):
            kept = {i for i in kept if t.matches(t.rows[i], [check["filter"]])}
        return sorted(kept)

    def _rows(self, check, output):
        t = self.tables[check["table"]]
        columns, rows = parse_grid(output)
        if columns != check["proj"]:
            return f"columns {columns} instead of {check['proj']}"
        proj = t.cols(check["proj"])
        want = [tuple(t.rows[i][j] for j in proj) for i in self._expected_rows(check)]
        if rows != want:
            return f"{len(rows)} rows returned, {len(want)} expected (or order differs)"
        if check.get("gone"):
            a = check["proj"].index("Address")
            left = {r[a] for r in rows} & set(check["gone"])
            if left:
                return f"repaired addresses still witness a violation: {sorted(left)}"
        return None

    def _violates(self, check, output):
        t = self.tables[check["table"]]
        columns, rows = parse_grid(output)
        if columns != check["proj"]:
            return f"columns {columns} instead of {check['proj']}"
        returned = Counter(rows)
        suspect = t.index[check["suspect"]]
        key = t.cols([a for a in check["lhs"] if a != check["suspect"]] + [check["rhs"]])
        proj = t.cols(check["proj"])
        groups: dict[tuple, set[str]] = {}
        for row in t.rows:
            groups.setdefault(tuple(row[a] for a in key), set()).add(row[suspect])
        for typo in self.workload.tables[check["table"]].typos:
            row = t.rows[typo["row"]]
            if typo["column"] != check["suspect"] or row[suspect] != typo["typo"]:
                continue
            if typo["original"] not in groups[tuple(row[a] for a in key)]:
                continue  # no sibling spelling in its group
            self.planted_checked += 1
            if not returned[tuple(row[j] for j in proj)]:
                return f"planted typo {typo['typo']!r} (row {typo['row']}) not returned"
        return None

    def _dependent(self, check, output):
        t = self.tables[check["table"]]
        columns, rows = parse_grid(output)
        x = t.cols(check["attrs"])
        subsets = [
            [a for k, a in enumerate(x) if mask >> k & 1]
            for mask in range(1, (1 << len(x)) - 1)
        ]
        want = [
            name for j, name in enumerate(t.columns)
            if j not in x
            and t.error(x, j) == 0.0
            and all(t.error(sub, j) > 0.0 for sub in subsets)
        ]
        if columns != want:
            return f"determined attributes {columns}, expected {want}"
        proj = t.cols(want)
        if rows != [tuple(row[j] for j in proj) for row in t.rows]:
            return "projected rows differ from the table"
        return None

    def _update(self, check, output):
        t = self.tables[check["table"]]
        hit = t.update(check["column"], check["value"], check["where"])
        want = f"updated {hit} {'row' if hit == 1 else 'rows'} in {check['table']}"
        return None if output == want else f"expected {want!r}"

    def _selectdep(self, check, output):
        stale = output.startswith("warning: fdset ")
        if stale != check["stale"]:
            return f"staleness warning {'present' if stale else 'missing'}"
        return None

    def _diff(self, check, output):
        old, new = self.sets[check["old"]], self.sets[check["new"]]

        def line(key, err):
            text = f"  {', '.join(key[0])} -> {key[1]}"
            return text + (f" [error {err!r}]" if err > 0 else "")

        def order(key):
            return (len(key[0]), key[0], key[1])

        added = sorted(new.keys() - old.keys(), key=order)
        removed = sorted(old.keys() - new.keys(), key=order)
        changed = sorted(
            (k for k in old.keys() & new.keys() if abs(old[k] - new[k]) > 1e-12),
            key=order,
        )
        want = [f"added ({len(added)}):"] + [line(k, new[k]) for k in added]
        want += [f"removed ({len(removed)}):"] + [line(k, old[k]) for k in removed]
        want += [f"error changed ({len(changed)}):"] + [
            f"  {', '.join(k[0])} -> {k[1]}: {old[k]!r} -> {new[k]!r}" for k in changed
        ]
        return None if output == "\n".join(want) else "diff listing differs"

    def _read_export(self, path: str) -> dict[tuple, float]:
        with open(os.path.join(self.workdir, path), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        return {(tuple(r["lhs"]), r["rhs"]): r["error"] for r in records[1:]}

    def _export(self, check, output):
        if self._read_export(check["path"]) != self.sets[check["set"]]:
            return f"{check['path']} does not hold the entries of {check['set']}"
        return None

    def _import(self, check, output):
        exported = self._read_export(check["path"])
        fdset = self.session.fdsets[check["set"]]
        got = {(e.lhs, e.rhs): e.error for e in fdset.entries}
        if got != exported:
            return f"{check['set']} differs from {check['path']}"
        if not output.startswith(f"imported {check['set']}: {len(exported)} dependencies"):
            return f"unexpected import message {output!r}"
        self.sets[check["set"]] = got
        return None
