"""Direct-conflict detection: checking writes against logged read queries.

This is the core of Algorithm 4: after a chase step's writes have been
performed, each write is checked against every stored read query of a
higher-numbered (lower-priority) update.  When a write retroactively changes
the answer to such a query, the reader is in *direct conflict* and must abort.

The check is identical for all cascading-abort algorithms — NAIVE, COARSE and
PRECISE differ only in how the *cascade* from an abort is determined — so its
cost does not skew the comparison between them.

:func:`find_direct_conflicts` does not walk the log.  It probes the read
log's buckets with the keys of the written rows and walks, per reader, only
the records filed under one of them — the violation queries some join test of
whose seed the row's values can meet, the more-specific queries whose
pattern's constant it repeats, the null-occurrence queries of a null it
mentions (:mod:`repro.concurrency.readlog`).  A record it never sees has
``affected_by`` false on every view, so the set of condemned readers is the
scan's.

The report is the scan's too, counter for counter.  The scan walks a reader's
records by rank and stops at the first one that condemns it; up to there it
spends on each record either one unit (the ``might_be_affected_by``
pre-filter said no) or a delta evaluation at ``2 * evaluation_cost()`` units
(it said yes).  For a violation query the pre-filter is relation overlap —
it does not look at the seed — so every violation record reading the written
relation is charged a delta evaluation whether a join test admits the row or
not: those come from the read log's per-reader, per-relation running sums, up
to the rank the walk stopped at.  The walked records of the other kinds are
charged as they are tested, and whatever remains below that rank failed its
pre-filter at one unit each.  The scan itself is a test oracle
(``tests/oracles/conflicts_scan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Set

from ..storage.versioned import VersionedDatabase, VersionedWrite
from .readlog import ReadLog


@dataclass
class ConflictReport:
    """The outcome of checking one batch of writes against the read log."""

    #: Readers found to be in direct conflict with at least one of the writes.
    direct_conflicts: Set[int] = field(default_factory=set)
    #: Number of (write, read) pairs examined.
    pairs_checked: int = 0
    #: Number of pairs that needed a database-backed delta evaluation.
    delta_evaluations: int = 0
    #: Work units spent (for the cost model).
    cost_units: int = 0


def find_direct_conflicts(
    writes: Sequence[VersionedWrite],
    read_log: ReadLog,
    store: VersionedDatabase,
    abortable: Set[int],
) -> ConflictReport:
    """Check *writes* against every logged read of higher-numbered abortable updates.

    For each logged write ``w`` performed by update ``j`` and each stored read
    query ``q`` of an abortable update ``i > j``: if ``w`` changes the result
    of ``q`` (evaluated on ``i``'s own view, where ``w`` is visible), then
    ``i`` is in direct conflict and is reported for abortion.

    Only the records the written rows' keys select are walked; the rest of
    what the scan would have spent is added from the read log's running sums.
    """
    report = ConflictReport()
    if not writes:
        return report
    views: Dict[int, object] = {}
    for logged in writes:
        writer = logged.priority
        write = logged.write
        # Abortable readers an earlier write in this batch has not already
        # condemned: the full scan skips a condemned reader's records
        # without counting them, so there is nothing to charge.
        readers = [
            reader
            for reader in read_log.readers_above(writer)
            if reader in abortable and reader not in report.direct_conflicts
        ]
        if not readers:
            continue
        candidates = read_log.candidates(write, above=writer)
        for reader in readers:
            # The scan walks all of the reader's records, or up to and
            # including the first one that condemns it.
            stop = read_log.record_count(reader)
            others = 0  # walked records the running sums do not cover
            for rank, record in candidates.get(reader, ()):
                query = record.query
                if query.kind != "violation":
                    others += 1
                    if not query.might_be_affected_by(write):
                        report.cost_units += 1
                        continue
                    report.delta_evaluations += 1
                    report.cost_units += 2 * query.evaluation_cost()
                if reader not in views:
                    views[reader] = store.view_for(reader)
                if query.affected_by(write, views[reader]):
                    report.direct_conflicts.add(reader)
                    stop = rank + 1
                    break
            evaluations, cost = read_log.violation_charge(
                reader, write.relation, stop
            )
            report.pairs_checked += stop
            report.delta_evaluations += evaluations
            report.cost_units += cost + (stop - evaluations - others)
    return report
