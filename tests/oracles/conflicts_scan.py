"""The historical full-scan conflict check, kept as a differential oracle."""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Set

from repro.concurrency.conflicts import ConflictReport
from repro.concurrency.readlog import ReadLog, ReadRecord
from repro.storage.versioned import VersionedDatabase, VersionedWrite


def records_with_reader_above(read_log: ReadLog, priority: int) -> Iterator[ReadRecord]:
    """Reads logged by updates numbered strictly above *priority*: the reads
    a write by update *priority* could retroactively invalidate."""
    for reader, records in read_log._by_reader.items():
        if reader > priority:
            yield from records


def find_direct_conflicts_scan(
    writes: Sequence[VersionedWrite],
    read_log: ReadLog,
    store: VersionedDatabase,
    abortable: Set[int],
) -> ConflictReport:
    """Every write against every read of every higher-numbered update.

    Semantically (and counter-for-counter) identical to
    :func:`repro.concurrency.conflicts.find_direct_conflicts`; tests run both
    over the same inputs to pin the indexed implementation to the original.
    """
    report = ConflictReport()
    if not writes:
        return report
    views: Dict[int, object] = {}
    for logged in writes:
        writer = logged.priority
        for record in list(records_with_reader_above(read_log, writer)):
            reader = record.reader
            if reader not in abortable or reader == writer:
                continue
            if reader in report.direct_conflicts:
                # Already condemned by an earlier write in this batch.
                continue
            report.pairs_checked += 1
            query = record.query
            if not query.might_be_affected_by(logged.write):
                report.cost_units += 1
                continue
            if reader not in views:
                views[reader] = store.view_for(reader)
            view = views[reader]
            report.delta_evaluations += 1
            report.cost_units += 2 * query.evaluation_cost()
            if query.affected_by(logged.write, view):
                report.direct_conflicts.add(reader)
    return report
