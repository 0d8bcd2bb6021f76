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
suspends until the round trip ends) and heartbeats through
:meth:`HostLink.send`, the callback twin that needs no process.
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
        departed = self._depart(payload, toward, on_receive)
        if departed is None:
            return False
        delay, corrupt = departed
        yield self.env.timeout(delay)
        if self._in_flight_failure(toward):
            return False
        self.stats.record_delivery(self.env.now - sent_at)
        if on_receive is not None:
            ack = on_receive(LinkPacket(payload, corrupt, False, sent_at))
            return True if ack is None else bool(ack)
        return True

    def send(self, toward: "Host", done: Callable[[bool], None]) -> None:
        """Callback twin of :meth:`transfer`: no process, one timer.

        The same draws in the same order (latency, then adversary
        effects) and the same duplicate copies as ``transfer``; the
        outcome ``transfer`` would return reaches ``done(ok)`` instead —
        at once for a pre-flight refusal, else from the arrival timer.
        """
        departed = self._depart(None, toward, None)
        if departed is None:
            done(False)
            return
        timer = self.env.timeout(
            departed[0], (toward, self.env.now, done)
        )
        timer.callbacks.append(self._landed)

    def _landed(self, timer) -> None:
        toward, sent_at, done = timer.value
        if self._in_flight_failure(toward):
            done(False)
            return
        self.stats.record_delivery(self.env.now - sent_at)
        done(True)

    def _depart(self, payload, toward, on_receive):
        """Put one packet in the pipe: ``(delay, corrupt)``, or None when
        the link refused it pre-flight.  Launches the duplicate copies."""
        if not self.available:
            # Pre-flight refusal: the packet never entered the pipe, so it
            # is charged to ``rejected`` only — never also to ``lost``.
            self.stats.rejected += 1
            return None
        self.stats.submitted += 1
        sent_at = self.env.now
        delay = self.latency.draw(self.rng)
        extra_delay, extra_copies, corrupt = self._adversary_effects(self.rng)
        for index in range(extra_copies):
            self.env.process(
                self._ship_copy(payload, toward, on_receive, sent_at),
                name=f"{self.name}-dup{index}",
            )
        return delay + extra_delay, corrupt

    def _in_flight_failure(self, toward: "Host") -> bool:
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
        delay = self.latency.draw(self.rng)
        extra_delay, _, corrupt = self._adversary_effects(self.rng, copy=True)
        yield self.env.timeout(delay + extra_delay)
        if self.loss_probability and self.rng.random() < self.loss_probability:
            return
        if not self.available or not toward.up:
            return
        self.adversary_stats.duplicates_delivered += 1
        if on_receive is not None:
            on_receive(LinkPacket(payload, corrupt, True, sent_at))
