"""A view's probes against the interface defaults, for any view.

The defaults (:meth:`DatabaseView.tuples_matching`, ``more_specific_tuples``,
``tuples_containing_null``) filter relation scans; an indexed backend must
return the same *set*, each tuple once.  Where a backend promises order
(``ordered=True``: the multiversion view and the in-memory store iterate the
first pair's bucket and use the other pairs only to discard) the multi-pair
answer must also be, as a *list*, the one-pair answer filtered by the
remaining pairs.
"""

from __future__ import annotations

from repro.storage.interface import DatabaseView


def probes_for(row, strangers=()):
    """Bound-pair lists exercising 1, 2 and all positions of *row*'s relation.

    Prefixes, the last position alone, the positions reversed, a repeated
    pair, and — per *stranger* value (a constant no row holds, a labeled
    null) — a pair contradicting the first one and the row with its last
    value swapped for the stranger.
    """
    pairs = list(enumerate(row.values))
    probes = [[], pairs[:1], pairs[:2], pairs, pairs[-1:], pairs[::-1], pairs[:1] * 2]
    for stranger in strangers:
        probes.append(pairs[:1] + [(0, stranger)])
        probes.append(pairs[:-1] + [(len(pairs) - 1, stranger)])
    return probes


def assert_probe_matches_default(view, relation, bound, ordered=False):
    answer = list(view.tuples_matching(relation, bound))
    assert len(answer) == len(set(answer)), "a probe yielded a tuple twice"
    assert set(answer) == set(DatabaseView.tuples_matching(view, relation, bound))
    if ordered and bound:
        assert answer == [
            row
            for row in view.tuples_matching(relation, bound[:1])
            if all(row[position] == value for position, value in bound)
        ]


def assert_correction_queries_match_default(view, row):
    """``more_specific_tuples(row)`` and the null probes of *row*'s nulls.

    Both must return the interface default's answer as a *set*, each tuple
    once.  *row* is any pattern: repeated nulls, all nulls, wrong arity.
    """
    answer = list(view.more_specific_tuples(row))
    assert len(answer) == len(set(answer)), "a correction query yielded a tuple twice"
    assert set(answer) == set(DatabaseView.more_specific_tuples(view, row))
    for null in row.null_set():
        found = list(view.tuples_containing_null(null))
        assert len(found) == len(set(found)), "a null probe yielded a tuple twice"
        assert set(found) == set(DatabaseView.tuples_containing_null(view, null))
