"""Node/process abstraction with serialized processing and cost accounting.

Each protocol participant (client, agreement replica, execution replica,
firewall filter, baseline server) is a :class:`Process`.  A process handles
one message or timer at a time: if a delivery arrives while the node is busy
it is deferred until the node frees up.  While handling a message the process
*charges* virtual processing time -- cryptographic operations, application
execution, per-message overhead -- and the sum of those charges determines
when the node becomes free again and when its outgoing messages actually hit
the network.

This per-node serialization is what makes the throughput experiments
(Figure 5) meaningful: an execution node that spends 15 ms producing a
threshold signature for every reply saturates at ~66 requests/second, exactly
the effect the paper reports.

Runtime-backend contract
------------------------
``Process`` is runtime-agnostic: it talks to *a* scheduler and *a* network
(see :mod:`repro.runtime.interface`).  Any backend hosting processes must
preserve these invariants, which protocol code relies on:

* **Handler atomicity.**  ``on_message`` / timer callbacks never interleave
  on one node: a handler runs to completion before the next delivery or
  timer fire is processed.  The simulator gets this from busy-deferral on a
  single event queue; the asyncio backend from synchronous handlers on a
  single-threaded loop.
* **Send-after-handler.**  Messages sent inside a handler enter the network
  when the handler's charged work completes (the outbox flush), never
  mid-handler -- so a node's outbound messages reflect its post-handler
  state.
* **Charges are exclusive occupancy.**  ``charge(ms)`` models work that
  occupies the node: under the simulator it extends ``busy_until`` (later
  deliveries defer); under a real backend it may burn CPU instead (the
  ``_burn`` hook).  Either way, a verification that hits the certificate
  cache charges nothing.
* **Crash semantics.**  A crashed node silently drops deliveries, timer
  fires, and sends; ``recover()`` only clears the flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..util.ids import NodeId
from .scheduler import Scheduler, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..net.network import Network
    from ..net.message import Message


@dataclass
class ProcessStats:
    """Per-node counters collected during a simulation run."""

    messages_received: int = 0
    messages_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    busy_ms: float = 0.0
    handler_invocations: int = 0
    timer_fires: int = 0
    crypto_ops: Dict[str, int] = field(default_factory=dict)

    def record_crypto(self, op: str, count: int = 1) -> None:
        self.crypto_ops[op] = self.crypto_ops.get(op, 0) + count

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of virtual time this node spent processing."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / elapsed_ms)


class Process:
    """Base class for all simulated nodes.

    Subclasses implement :meth:`on_message` and may use :meth:`send`,
    :meth:`multicast`, :meth:`set_timer`, and :meth:`charge`.
    """

    def __init__(self, node_id: NodeId, scheduler: Scheduler) -> None:
        self.node_id = node_id
        self.scheduler = scheduler
        self.network: Optional["Network"] = None
        self.stats = ProcessStats()
        #: per-node instruments from the scheduler's observability hub (a
        #: shared no-op registry when observability is disabled) plus the
        #: system-wide tracer; ``self.tracing`` is cached so hot paths can
        #: skip trace-id construction with one attribute test.
        self.obs = scheduler.obs
        self.metrics = self.obs.registry_for(node_id.name)
        self.tracing = self.obs.tracer.enabled
        self.crashed = False
        #: real-runtime cost hook: when set (by a real backend's network at
        #: registration), ``charge`` burns CPU through it instead of doing
        #: virtual-time accounting.  ``None`` under the simulator.
        self._burn: Optional[Callable[[float], None]] = None
        self._busy_until = 0.0
        self._in_handler = False
        self._pending_cost = 0.0
        self._outbox: List[Tuple[NodeId, "Message"]] = []

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #

    def attach_network(self, network: "Network") -> None:
        """Connect this process to the simulated network (done by the builder)."""
        self.network = network

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now

    @property
    def busy_until(self) -> float:
        """Virtual time at which this node finishes its current work."""
        return self._busy_until

    # ------------------------------------------------------------------ #
    # Message handling entry points (called by the network).
    # ------------------------------------------------------------------ #

    def deliver(self, sender: NodeId, message: "Message", size: int) -> None:
        """Called by the network when a message arrives at this node.

        If the node is busy the delivery is deferred to ``busy_until``;
        otherwise the handler runs immediately.  Crashed nodes drop
        everything silently.
        """
        if self.crashed:
            return
        if self._busy_until > self.now + 1e-12 or self._in_handler:
            self.scheduler.call_at(
                max(self._busy_until, self.now),
                lambda: self.deliver(sender, message, size),
                label=f"{self.node_id}:deferred-delivery",
            )
            return
        self.stats.messages_received += 1
        self.stats.bytes_received += size
        self._run_handler(lambda: self.on_message(sender, message))

    def fire_timer(self, callback: Callable[[], None]) -> None:
        """Run a timer callback under the same busy/cost accounting as messages."""
        if self.crashed:
            return
        if self._busy_until > self.now + 1e-12 or self._in_handler:
            self.scheduler.call_at(
                max(self._busy_until, self.now),
                lambda: self.fire_timer(callback),
                label=f"{self.node_id}:deferred-timer",
            )
            return
        self.stats.timer_fires += 1
        self._run_handler(callback)

    def _run_handler(self, handler: Callable[[], None]) -> None:
        """Run ``handler`` with cost accounting and deferred sends."""
        if self._in_handler:
            raise SimulationError(f"{self.node_id} re-entered its handler")
        self._in_handler = True
        self._pending_cost = 0.0
        self._outbox = []
        try:
            handler()
        finally:
            self._in_handler = False
        completion = self.now + self._pending_cost
        self._busy_until = completion
        self.stats.busy_ms += self._pending_cost
        self.stats.handler_invocations += 1
        outbox, self._outbox = self._outbox, []
        if not outbox:
            return
        if completion <= self.now + 1e-12:
            self._flush(outbox)
        else:
            self.scheduler.call_at(
                completion, lambda: self._flush(outbox),
                label=f"{self.node_id}:flush",
            )

    def _flush(self, outbox: List[Tuple[NodeId, "Message"]]) -> None:
        if self.crashed or self.network is None:
            return
        for destination, message in outbox:
            self.network.send(self.node_id, destination, message)
            self.stats.messages_sent += 1

    # ------------------------------------------------------------------ #
    # API for subclasses.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: "Message") -> None:
        """Handle an incoming message.  Subclasses override this."""
        raise NotImplementedError

    def charge(self, milliseconds: float) -> None:
        """Charge ``milliseconds`` of processing time to the current handler.

        Outside of a handler (e.g. during setup) the charge is recorded as
        busy time starting now.

        Under a real-time backend (``_burn`` set) the charge is burned as
        actual CPU immediately and only tallied in ``stats.busy_ms``: the
        wall clock, not virtual accounting, then determines when this node
        gets to its next message.
        """
        if milliseconds < 0:
            raise SimulationError("cannot charge negative processing time")
        if self._burn is not None:
            self._burn(milliseconds)
            self.stats.busy_ms += milliseconds
            return
        if self._in_handler:
            self._pending_cost += milliseconds
        else:
            self._busy_until = max(self._busy_until, self.now) + milliseconds
            self.stats.busy_ms += milliseconds

    def send(self, destination: NodeId, message: "Message") -> None:
        """Send ``message`` to ``destination`` when the current handler completes."""
        if self.crashed:
            return
        if self._in_handler:
            self._outbox.append((destination, message))
            return
        if self.network is None:
            raise SimulationError(f"{self.node_id} is not attached to a network")
        self.network.send(self.node_id, destination, message)
        self.stats.messages_sent += 1

    def multicast(self, destinations: List[NodeId], message: "Message") -> None:
        """Send ``message`` to every node in ``destinations`` (excluding self)."""
        for destination in destinations:
            if destination != self.node_id:
                self.send(destination, message)

    def set_timer(self, delay: float, callback: Callable[[], None],
                  label: str = "") -> Timer:
        """Schedule ``callback`` to run on this node after ``delay`` ms."""
        return self.scheduler.call_after(
            delay, lambda: self.fire_timer(callback),
            label=label or f"{self.node_id}:timer",
        )

    def trace_event(self, trace_id: str, event: str) -> None:
        """Record a span event for ``trace_id`` at this node, now.

        Pure observation -- no charge, no event, no RNG -- so calling it can
        never perturb the simulation.  Callers on hot paths should guard
        with ``if self.tracing`` to avoid building trace ids for nothing.
        """
        self.obs.tracer.record(trace_id, event, self.node_id.name, self.now)

    def crash(self) -> None:
        """Crash this node: it stops sending, receiving, and firing timers."""
        self.crashed = True

    def recover(self) -> None:
        """Clear the crash flag (state recovery is the subclass's business)."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.node_id}>"
