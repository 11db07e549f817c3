"""Three peers, one collaboration: the federation layer end to end.

A travel agency (peer ``agency``), an aggregator (peer ``portal``) and an
archive (peer ``archive``) each run their own repository; tgd mappings link
them: offers the agency publishes must appear as portal listings (cross-peer),
every listing needs a review by some critic (local to the portal, with an
existential reviewer — nondeterministic once critics exist), and listings are
mirrored into the archive (cross-peer again).  The demo walks through:

1. an update committed at the agency cascading over the transport (with a
   delivery delay) through the portal into the archive;
2. a user operation submitted at the *wrong* peer being routed to the
   owner's admission queue — and parking there on a frontier question that
   is routed back to the submitting peer, where a human answers it;
3. a partition: the archive drops off, envelopes queue up (nothing is
   lost), the partition heals, and the federation drains;
4. the convergence check: the drained peers' union equals the
   single-repository chase over the union of all mappings.
"""

from repro.core.frontier import UnifyOperation
from repro.core.oracle import AlwaysUnifyOracle
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import (
    FederatedNetwork,
    Transport,
    check_convergence,
    reference_chase,
)
from repro.storage.memory import FrozenDatabase
from repro.workload.federated_loop import conservative_answer


def main() -> None:
    schema = DatabaseSchema.from_dict(
        {
            "Offer": ["agency", "destination"],
            "Listing": ["destination"],
            "Review": ["destination", "critic"],
            "Critic": ["name"],
            "Archived": ["destination"],
        }
    )
    mappings = parse_tgds(
        [
            "Offer(a, d) -> Listing(d)",                         # cross: agency -> portal
            "Listing(d) -> exists r . Review(d, r), Critic(r)",  # local at the portal
            "Listing(d) -> Archived(d)",                         # cross: portal -> archive
        ]
    )
    ownership = {
        "agency": ["Offer"],
        "portal": ["Listing", "Review", "Critic"],
        "archive": ["Archived"],
    }
    initial = FrozenDatabase(
        schema, {name: frozenset() for name in schema.relation_names()}
    )
    network = FederatedNetwork(
        schema, initial, mappings, ownership, transport=Transport(delay=1)
    )
    print(
        "federation of {} peers, {} local + {} cross-peer mappings".format(
            len(network.peers()),
            sum(len(network.rules.local_mappings(p)) for p in network.peer_names()),
            len(network.rules.cross),
        )
    )

    # ------------------------------------------------------------------
    # 1. A committed update cascades across two transport hops.
    # ------------------------------------------------------------------
    operations = [InsertOperation(make_tuple("Offer", "ABC Tours", "Niagara Falls"))]
    network.submit("agency", operations[0])
    rounds = network.drain()
    snapshot = network.global_snapshot()
    print(
        "offer cascaded (drained in {} status round(s)): {} listing(s), "
        "{} review(s) by {} critic(s), {} archived".format(
            rounds,
            snapshot.count("Listing"),
            snapshot.count("Review"),
            snapshot.count("Critic"),
            snapshot.count("Archived"),
        )
    )
    assert snapshot.count("Archived") == 1

    # ------------------------------------------------------------------
    # 2. Submitted at the wrong peer: routed to the owner — and the frontier
    #    question its chase raises routes back to the submitter.
    # ------------------------------------------------------------------
    routed = InsertOperation(make_tuple("Listing", "Ithaca"))
    operations.append(routed)
    ticket = network.submit("archive", routed)
    print(
        "listing submitted at the archive routes to {} ({})".format(
            ticket.target, ticket.describe()
        )
    )
    question = None
    for _ in range(30):
        network.pump()
        inbox = network.inbox("archive")
        if inbox:
            question = inbox[0]
            break
    assert question is not None
    # The portal generated Review(Ithaca, r2), Critic(r2) — but a critic
    # already exists, so a human must say whether r2 is that same critic.
    print(
        "frontier question raised at {} routed back to the archive "
        "({} alternatives)".format(
            question.executing_peer, len(question.alternatives())
        )
    )
    unify = [
        alternative
        for alternative in question.alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]
    network.answer("archive", question, unify)
    network.drain(answer_strategy=conservative_answer)
    print(
        "answered ({}); routed ticket is now: {}".format(
            unify.describe(), ticket.status.value
        )
    )
    assert ticket.is_done

    # ------------------------------------------------------------------
    # 3. Partition and heal: envelopes queue, nothing is lost.
    # ------------------------------------------------------------------
    network.partition("portal", "archive")
    offline = InsertOperation(make_tuple("Offer", "ABC Tours", "Cayuga Lake"))
    operations.append(offline)
    network.submit("agency", offline)
    for _ in range(10):
        network.pump()
        for peer_name in network.peer_names():
            for open_question in network.inbox(peer_name):
                network.answer(
                    peer_name, open_question, conservative_answer(open_question)
                )
    held = network.transport.in_flight
    print(
        "archive partitioned: {} envelope(s) held, archive still at {} row(s)".format(
            held, network.peer("archive").service.count("Archived")
        )
    )
    assert held > 0 and not network.quiescent()
    network.heal("portal", "archive")
    network.drain(answer_strategy=conservative_answer)
    print(
        "healed: archive caught up to {} rows, federation quiescent: {}".format(
            network.peer("archive").service.count("Archived"), network.quiescent()
        )
    )

    # ------------------------------------------------------------------
    # 4. The drained federation equals the single-repository chase.
    # ------------------------------------------------------------------
    reference = reference_chase(
        schema, initial, mappings, operations, oracle=AlwaysUnifyOracle()
    )
    report = check_convergence(network, reference)
    print(report.summary())
    assert report.equivalent
    metrics = network.metrics()
    print(
        "exchange traffic: {} firings, {} routed updates, {} routed questions, "
        "{} routed answers".format(
            metrics["firings_delivered"],
            metrics["updates_routed"],
            metrics["questions_routed"],
            metrics["answers_routed"],
        )
    )


if __name__ == "__main__":
    main()
