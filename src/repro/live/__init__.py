"""repro.live — the real-deployment mode of the Scrub reproduction.

Everything in-process and simulated elsewhere in the tree becomes a
multi-process system here:

* :mod:`repro.live.protocol` — the length-prefixed binary wire protocol
  shared by every live component (agent data, agent control, query
  control), layered on the compact event encoding.
* :mod:`repro.live.transport` — :class:`SocketTransport`, a drop-not-block
  implementation of the two-method ``Transport`` protocol that ships
  batches to a ``scrubd`` daemon over TCP.
* :mod:`repro.live.server` — ``scrubd``, the standalone asyncio
  ScrubCentral daemon (bounded ingest queue, real-clock window ticks,
  query control channel).
* :mod:`repro.live.client` — :class:`LiveAgent` (embeds a ``ScrubAgent``
  in an application process) and :class:`ControlClient` (submit/poll/
  finish queries against a running ``scrubd``), plus the ``scrub-submit``
  entrypoint.
* :mod:`repro.live.journal` — :class:`QueryJournal`, the append-only
  control-plane journal behind ``scrubd --journal`` crash recovery.
* :mod:`repro.live.chaos` — :class:`ChaosProxy`, a frame-aware fault
  injection proxy for the integration tests (test-only).

See ``docs/LIVE_MODE.md`` for the two-terminal quickstart and the
failure-semantics table.
"""

from .chaos import ChaosProxy, FaultPlan
from .client import ControlClient, LiveAgent
from .journal import QueryJournal
from .server import ScrubDaemon
from .transport import SocketTransport

__all__ = [
    "ChaosProxy",
    "ControlClient",
    "FaultPlan",
    "LiveAgent",
    "QueryJournal",
    "ScrubDaemon",
    "SocketTransport",
]
