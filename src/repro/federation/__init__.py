"""The federation layer: multi-peer update exchange over a simulated transport.

This package realizes the paper's actual setting — *collaborative* update
exchange between many autonomous peers joined by tgd mappings — on top of the
single-repository service layer.  Each :class:`~repro.federation.peer.Peer`
runs its own :class:`~repro.service.repository.RepositoryService` over the
relations it owns, inside a :class:`~repro.federation.host.PeerRuntime`
that both runtimes share and that handles the one control protocol a
coordinator speaks; cross-peer mappings are driven by commit-time exchange
envelopes crossing the in-process
:class:`~repro.federation.transport.Transport` (configurable delay and
reordering) or a peer process's sockets, and a partition is a link hold at
the senders in both; frontier questions raised by forwarded updates route
back to the originating peer's inbox.  When every
queue drains (:meth:`~repro.federation.network.FederatedNetwork.quiescent`),
the union of the peers' committed stores is differentially checked against
the single-repository chase over the union of mappings
(:mod:`repro.federation.convergence`).

Layering: ``service`` (one peer's repository) → **federation** (this
package) → ``workload`` (multi-peer scenario generation and drivers).
"""

from .convergence import (
    ConvergenceReport,
    ReferenceRun,
    check_convergence,
    databases_equivalent,
    find_homomorphism,
    reference_chase,
)
from .envelopes import (
    ExchangeFiring,
    ExchangeRetraction,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
)
from .exchange import (
    CrossMapping,
    ExchangeRules,
    FederationError,
    coalesce_envelopes,
    envelopes_for_commit,
)
from .network import (
    FederatedNetwork,
    FederatedQuestion,
    FederatedTicket,
    FederationPumpReport,
)
from .operations import RemoteFiringOperation, RemoteRetractionOperation
from .peer import Peer
from .process_network import ProcessFederation, ProcessFederationError
from .socket_transport import (
    ChannelClosed,
    FrameChannel,
    FrameListener,
    OutgoingLink,
    SocketAddress,
    SocketTransportError,
)
from .transport import Bundle, Envelope, Transport

__all__ = [
    "Bundle",
    "ChannelClosed",
    "ConvergenceReport",
    "CrossMapping",
    "Envelope",
    "ExchangeFiring",
    "ExchangeRetraction",
    "ExchangeRules",
    "FederatedNetwork",
    "FederatedQuestion",
    "FederatedTicket",
    "FederationError",
    "FederationPumpReport",
    "FrameChannel",
    "FrameListener",
    "OutgoingLink",
    "Peer",
    "ProcessFederation",
    "ProcessFederationError",
    "QuestionAnswer",
    "QuestionCancelled",
    "QuestionOpened",
    "ReferenceRun",
    "RemoteFiringOperation",
    "RemoteRetractionOperation",
    "RemoteUpdate",
    "SocketAddress",
    "SocketTransportError",
    "Transport",
    "check_convergence",
    "coalesce_envelopes",
    "databases_equivalent",
    "envelopes_for_commit",
    "find_homomorphism",
    "reference_chase",
]
