"""The pre-index dependency trackers, kept as differential oracles.

Each walks the store's whole write log per read, the way Section 5.1 states
the trackers and the way the seed implemented them: every logged write of an
abortable update below the reader is examined and charged, one by one.
``src/`` starts from the keys the read query watches and charges the writers
it never visits from their log lengths; the dependencies and the
``cost_units`` must come out the same.
"""

from __future__ import annotations

from repro.concurrency.dependencies import DependencyTracker, HybridTracker
from repro.storage.overlay import view_without_write


def _writes_below(reader, store, abortable):
    for entry in store.write_log():
        if entry.priority < reader and entry.priority in abortable:
            yield entry


class LegacyPreciseTracker(DependencyTracker):
    """PRECISE by full log scan and full double evaluation per delta test.

    Correction queries keep their database-free exact test, exactly as the
    seed had it; a violation query is evaluated on the reader's view and on
    the view with the write undone, and the answers compared.
    """

    name = "PRECISE"

    def dependencies(self, query, reader, store, view, abortable):
        self.reads_processed += 1
        found = set()
        for entry in _writes_below(reader, store, abortable):
            if entry.priority in found:
                # One influencing write is enough to establish the dependency.
                self.cost_units += 1
                continue
            self.cost_units += 2 * query.evaluation_cost()
            if self._legacy_affected(query, entry.write, view):
                found.add(entry.priority)
        return found

    @staticmethod
    def _legacy_affected(query, write, view):
        if not query.might_be_affected_by(write):
            return False
        if query.kind in ("more-specific", "null-occurrence"):
            return query.affected_by(write, view)
        return query.evaluate(view) != query.evaluate(view_without_write(view, write))


class LegacyCoarseTracker(DependencyTracker):
    """COARSE by full log scan: one unit per write, relation overlap or exact test."""

    name = "COARSE"

    def dependencies(self, query, reader, store, view, abortable):
        self.reads_processed += 1
        relations = query.relations()
        found = set()
        for entry in _writes_below(reader, store, abortable):
            self.cost_units += 1
            if query.kind in ("more-specific", "null-occurrence"):
                if query.might_be_affected_by(entry.write):
                    found.add(entry.priority)
            elif entry.write.relation in relations:
                found.add(entry.priority)
        return found


class LegacyHybridTracker(HybridTracker):
    """HYBRID's routing and promotion over the two scans."""

    def __init__(self, use_precise=None):
        super().__init__(use_precise)
        self._coarse = LegacyCoarseTracker()
        self._precise = LegacyPreciseTracker()
