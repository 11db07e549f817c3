"""Definition 3.4 by brute force: does some serial order reach this state?"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from repro.concurrency.serializability import SerialExecutor, databases_isomorphic
from repro.core.oracle import FrontierOracle
from repro.core.tgd import Tgd
from repro.core.update import UserOperation
from repro.storage.interface import DatabaseView


def final_state_matches_some_serial_order(
    initial: DatabaseView,
    mappings: Sequence[Tgd],
    operations: Sequence[UserOperation],
    observed_final: DatabaseView,
    oracle_factory: Optional[Callable[[], FrontierOracle]] = None,
    max_orders: int = 720,
) -> bool:
    """Is *observed_final* isomorphic to the outcome of some serial order?

    The check enumerates serial orders (up to ``max_orders`` permutations) and
    replays each with the given oracle factory; it is meant for the small
    hand-constructed scenarios in the tests and examples, not for 500-update
    workloads.  Because serial replays re-make oracle decisions, use a
    deterministic oracle for meaningful comparisons.
    """
    executor = SerialExecutor(initial, mappings, oracle_factory=oracle_factory)
    for count, order in enumerate(itertools.permutations(operations)):
        if count >= max_orders:
            break
        final = executor.run(list(order))
        if databases_isomorphic(final, observed_final):
            return True
    return False
