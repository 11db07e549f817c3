"""The paced poll drain, kept as the watermark drain's differential oracle.

Status rounds at a fixed cadence until two *consecutive* rounds are settled
(every peer quiescent, every link's frames-received caught up with its
frames-sent) with an identical counter fingerprint.  It never subscribes to
went-idle notices and never compares activity sequences: it reaches
quiescence only through the coordinator's status rounds, so a bug in the
event-driven path of ``ClientDesk.drain`` (the drain both runtimes run)
cannot hide in both.
"""

from __future__ import annotations

import time


def _fingerprint(replies):
    return {
        name: (
            reply["committed"],
            tuple(sorted(reply["sent"].items())),
            tuple(sorted(reply["received"].items())),
            reply["open_questions"],
        )
        for name, reply in sorted(replies.items())
    }


def poll_drain(federation, answer_strategy=None, timeout=60.0):
    """Poll, answer and run status rounds until *federation* is drained.

    Returns the number of status rounds; raises ``RuntimeError`` when no two
    consecutive settled rounds agree within *timeout* seconds.
    """
    deadline = time.monotonic() + timeout
    names = federation.peer_names()
    rounds = 0
    settled = None
    while True:
        federation.poll(0.01)
        if answer_strategy is not None:
            for name in names:
                for question in federation.inbox(name):
                    federation.answer(name, question, answer_strategy(question))
        replies = federation._status_round(names, deadline)
        rounds += 1
        if not federation._round_settled(replies):
            settled = None
        elif _fingerprint(replies) != settled:
            settled = _fingerprint(replies)
        elif answer_strategy is None or not any(
            federation.inbox(name) for name in names
        ):
            return rounds
        else:
            settled = None
        if time.monotonic() > deadline:
            raise RuntimeError(
                "poll drain did not settle within {}s".format(timeout)
            )
