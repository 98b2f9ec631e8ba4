"""Deterministic work counters, read by swapping counting wrappers into
fdq's modules: for the lattice walk, the partition products it builds and
the rows their left inputs cover, and the dependents `pair_errors`
scores and the value ids it reads for them; for any statement, the value
id lists built."""

import fdq.miner
import fdq.partition


class MiningWork:
    """Counters of every mine run while the wrappers are in place."""

    def __init__(self, monkeypatch):
        self.reset()
        real_intersect, real_pair_errors = fdq.miner.intersect, fdq.miner.pair_errors
        work = self

        class CountingIds(list):
            def __getitem__(self, row):
                work.scoring_rows += 1
                return super().__getitem__(row)

        def intersect(a, b):
            self.products += 1
            self.product_rows += a.covered
            return real_intersect(a, b)

        def pair_errors(pli, id_columns, scope_size, bound, split=None):
            columns = [CountingIds(ids) for ids in id_columns]
            self.scored += len(columns)
            return real_pair_errors(pli, columns, scope_size, bound, split)

        monkeypatch.setattr(fdq.miner, "intersect", intersect)
        monkeypatch.setattr(fdq.miner, "pair_errors", pair_errors)

    def reset(self):
        self.products = self.product_rows = self.scored = self.scoring_rows = 0

    @property
    def rows(self) -> int:
        """Rows read in all: the products' left inputs and the scoring."""
        return self.product_rows + self.scoring_rows


def value_id_builds(monkeypatch) -> list[tuple[int, str]]:
    """(id of the snapshot, attribute name) of each value id list built
    while the wrapper is in place: each `value_ids` call that adds to the
    snapshot's `derived`. Callers look `value_ids` up as a module global
    at call time, so the wrapper sees every call."""
    built = []
    real = fdq.partition.value_ids

    def value_ids(relation, attribute):
        before = len(relation.derived)
        ids = real(relation, attribute)
        if len(relation.derived) > before:
            built.append((id(relation), relation.attribute_names[attribute]))
        return ids

    for module in (fdq.partition, fdq.miner):
        monkeypatch.setattr(module, "value_ids", value_ids)
    return built
