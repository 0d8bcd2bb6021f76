"""A point-to-point link between two hosts (the replication ship channel).

Unlike the :mod:`repro.net` substrates — shared *services* with accounts,
sessions and mailboxes — a :class:`HostLink` is a bare pipe: latency drawn
from a :class:`~repro.net.channel.LatencyModel`, optional loss, an
availability flag the fault injector can toggle
(:data:`~repro.sim.failures.FaultKind.REPLICATION_LINK_DOWN`), and
endpoint-host awareness: a transfer whose destination host is dark fails
exactly like a dropped packet.

The link also carries the adversarial fault surface: its
:class:`~repro.net.adversary.AdversaryModel` can reorder a packet inside a
bounded horizon, amplify it into duplicate copies with independent delays,
and flag copies corrupt at receive time.  :meth:`HostLink.ship` exposes the
payload-carrying form — every arriving copy (primary and duplicates) is
handed to an ``on_receive`` callback, and the primary copy's callback return
doubles as the transport-level acknowledgement.

Accounting contract (the regression tier pins this): a transfer refused
pre-flight charges ``stats.rejected`` exactly once and never enters the
pipe; a packet that entered the pipe charges exactly one of
``stats.delivered`` / ``stats.lost``, whether it fell to the loss draw, a
mid-flight outage, or a dark destination.  ``submitted == delivered + lost``
therefore holds across any resend sequence; duplicate copies ride the
adversary counters only.

The warm-standby pair (:mod:`repro.core.replication`) ships pessimistic-log
records over one of these (:meth:`HostLink.ship`, a generator: the shipper
suspends until the round trip ends) and heartbeats through the two halves
of a transfer, :meth:`HostLink.depart` and :meth:`HostLink.lost_in_flight`,
which its keep-alive steps do at their own instants (inline, with the
link's state read once per call, but for a departure under an adversary).
Those steps may run late (a quiet pair settles them lazily), so every
other draw on the link's RNG first runs :attr:`HostLink.settle`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net.channel import ChannelBase, LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.host import Host
    from repro.sim.kernel import Environment

#: LAN-to-LAN ship latency: a few tens of milliseconds, tail under a second.
DEFAULT_LINK_LATENCY = LatencyModel(median=0.03, sigma=0.5, low=0.005, high=1.0)


class LinkPacket(NamedTuple):
    """One arriving copy of a shipped payload, as the receiver sees it."""

    payload: Any
    corrupt: bool
    duplicate: bool
    sent_at: float


class HostLink(ChannelBase):
    """Point-to-point transfer channel between two failable hosts."""

    def __init__(
        self,
        env: "Environment",
        src: "Host",
        dst: "Host",
        rng: np.random.Generator,
        latency: LatencyModel = DEFAULT_LINK_LATENCY,
        loss_probability: float = 0.0,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1], got {loss_probability}"
            )
        super().__init__(env, f"link-{src.name}-{dst.name}")
        self.src = src
        self.dst = dst
        self.rng = rng
        self.latency = latency
        self.loss_probability = loss_probability
        #: While a quiet pair owes keep-alive steps on this link, the
        #: settling of them (else None): it runs before every draw on
        #: ``rng`` and every ``stats`` charge but a step's own.
        self.settle: Optional[Callable[[], None]] = None

    def usable(self, toward: "Host") -> bool:
        """Whether a transfer toward ``toward`` could start right now."""
        return self.available and toward.up

    def transfer(self, toward: Optional["Host"] = None):
        """Generator: move one record toward ``toward`` (default ``dst``).

        Returns True when the record arrived, False when the link was down,
        the destination host was dark at arrival time, or the packet was
        lost.  Waiting the latency happens in either case — the sender only
        learns the outcome after the round trip.
        """
        result = yield from self.ship(None, toward=toward)
        return result

    def ship(
        self,
        payload: Any,
        toward: Optional["Host"] = None,
        on_receive: Optional[Callable[[LinkPacket], Optional[bool]]] = None,
    ):
        """Generator: move ``payload`` toward ``toward`` (default ``dst``).

        Every copy that arrives — the primary and any adversarial
        duplicates — is handed to ``on_receive`` as a :class:`LinkPacket`.
        The return value is False for a pre-flight refusal or an in-flight
        loss; when the primary copy arrives it is whatever ``on_receive``
        returned (``None`` coerces to True), which lets a receiver NACK a
        corrupt frame through the sender's round trip.
        """
        toward = toward if toward is not None else self.dst
        sent_at = self.env.now
        if self.settle is not None:
            self.settle()
        departed = self.depart(payload, toward, on_receive)
        if departed is None:
            return False
        delay, corrupt = departed
        yield self.env.timeout(delay)
        if self.settle is not None:
            self.settle()
        if self.lost_in_flight(toward):
            return False
        self.stats.record_delivery(self.env.now - sent_at)
        if on_receive is not None:
            ack = on_receive(LinkPacket(payload, corrupt, False, sent_at))
            return True if ack is None else bool(ack)
        return True

    def depart(self, payload, toward, on_receive):
        """Put one packet in the pipe: ``(delay, corrupt)``, or None when
        the link refused it pre-flight.  Launches the duplicate copies,
        sent at ``env.now`` (a keep-alive step settled late never meets an
        adversary, so its copies are always sent on time)."""
        if not self.available:
            # Pre-flight refusal: the packet never entered the pipe, so it
            # is charged to ``rejected`` only — never also to ``lost``.
            self.stats.rejected += 1
            return None
        self.stats.submitted += 1
        delay = self.latency.draw(self.rng)
        if not self.adversary.enabled:
            return delay, False
        sent_at = self.env.now
        extra_delay, extra_copies, corrupt = self._adversary_effects(self.rng)
        for index in range(extra_copies):
            self.env.process(
                self._ship_copy(payload, toward, on_receive, sent_at),
                name=f"{self.name}-dup{index}",
            )
        return delay + extra_delay, corrupt

    def lost_in_flight(self, toward: "Host") -> bool:
        """One exit point for every in-flight failure: exactly one ``lost``
        charge whether the loss draw hit, the link died mid-flight, or the
        destination host was dark at arrival."""
        lost = bool(
            self.loss_probability
            and self.rng.random() < self.loss_probability
        )
        if lost or not self.available or not toward.up:
            self.stats.lost += 1
            return True
        return False

    def _ship_copy(self, payload, toward, on_receive, sent_at: float):
        """A duplicate copy in flight: independent latency, its own reorder
        and corruption draws, and no primary-stream accounting."""
        if self.settle is not None:
            self.settle()
        delay = self.latency.draw(self.rng)
        extra_delay, _, corrupt = self._adversary_effects(self.rng, copy=True)
        yield self.env.timeout(delay + extra_delay)
        if self.settle is not None:
            self.settle()
        if self.loss_probability and self.rng.random() < self.loss_probability:
            return
        if not self.available or not toward.up:
            return
        self.adversary_stats.duplicates_delivered += 1
        if on_receive is not None:
            on_receive(LinkPacket(payload, corrupt, True, sent_at))
