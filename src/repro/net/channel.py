"""Shared channel machinery: latency models, outages, statistics.

Every concrete channel (IM, email, SMS) composes a :class:`LatencyModel`
(seeded, long-tailed), a loss probability, and an availability flag that the
fault injector can toggle to create outages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.errors import ChannelUnavailable, ConfigurationError
from repro.net.adversary import AdversaryModel, AdversaryStats, draw_effects

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


@dataclass(frozen=True)
class LatencyModel:
    """Lognormal delivery-latency distribution, clipped to [low, high].

    The defaults of the three channels (see their modules) are calibrated so
    the benches land near the paper's figures: IM "typically less than one
    second", email/SMS "seconds to days".
    """

    median: float
    sigma: float
    low: float
    high: float

    def __post_init__(self):
        if self.median <= 0 or self.sigma < 0:
            raise ConfigurationError(
                f"invalid latency model median={self.median} sigma={self.sigma}"
            )
        if not 0 <= self.low <= self.high:
            raise ConfigurationError(
                f"invalid latency bounds [{self.low}, {self.high}]"
            )
        # log(median), the underlying normal's mean: a plain attribute,
        # not a field, so ``asdict`` and equality see the four knobs only.
        object.__setattr__(self, "mu", float(np.log(self.median)))

    def draw(self, rng: np.random.Generator) -> float:
        """Sample one delivery latency in seconds.

        ``rng.lognormal(mean=mu, sigma=sigma)`` is ``exp(mu + sigma * z)``
        for one standard normal ``z``: drawing ``z`` directly gives the
        same value and leaves the stream in the same state, for half the
        cost.
        """
        if self.sigma == 0:
            return float(min(max(self.median, self.low), self.high))
        value = math.exp(self.mu + self.sigma * rng.standard_normal())
        return float(min(max(value, self.low), self.high))


@dataclass
class ChannelStats:
    """Counters every channel keeps; benches read these directly.

    Latency is kept as exact running aggregates, not one float per message:
    a channel's bookkeeping stays flat however many messages it carries.
    """

    submitted: int = 0
    delivered: int = 0
    lost: int = 0
    rejected: int = 0
    #: Sum and maximum of every delivered message's transit time.
    latency_total: float = 0.0
    latency_max: float = 0.0

    def record_delivery(self, latency: float) -> None:
        self.delivered += 1
        self.latency_total += latency
        if latency > self.latency_max:
            self.latency_max = latency

    @property
    def delivery_ratio(self) -> float:
        if self.submitted == 0:
            return float("nan")
        return self.delivered / self.submitted


class ChannelBase:
    """Availability, outages, the adversary and message transit, common to
    all channels.  A substrate sets ``rng``, ``latency`` and
    ``loss_probability`` and hands :meth:`transit` its ``arrive`` step."""

    rng: np.random.Generator
    latency: LatencyModel
    loss_probability: float

    def __init__(self, env: "Environment", name: str):
        self.env = env
        self.name = name
        self.available = True
        self.stats = ChannelStats()
        self.adversary = AdversaryModel.off()
        self.adversary_stats = AdversaryStats()
        self._outage_until: Optional[float] = None
        self._adversary_until: Optional[float] = None
        self._adversary_baseline = AdversaryModel.off()
        #: Called just before and again just after ``available`` or
        #: ``adversary`` changes (a replicated pair's ship link settles its
        #: keep-alives on the first call and re-arms them on the second).
        self.watcher: Optional[Callable[[], None]] = None

    def _change(self, attribute: str, value) -> None:
        """Set ``attribute`` to ``value`` between the two ``watcher`` calls."""
        watcher = self.watcher
        if watcher is not None:
            watcher()
        setattr(self, attribute, value)
        if watcher is not None:
            watcher()

    def set_available(self, available: bool) -> None:
        """Flip channel availability (fault-injection hook)."""
        self._change("available", available)

    def outage(self, duration: float) -> None:
        """Take the channel down for ``duration`` simulated seconds.

        Overlapping outages extend each other rather than reviving the
        channel early.
        """
        if duration <= 0:
            raise ConfigurationError(f"outage duration must be > 0, got {duration}")
        end = self.env.now + duration
        if self._outage_until is not None and self._outage_until >= end:
            return
        first = self._outage_until is None or self._outage_until <= self.env.now
        self._outage_until = end
        if first:
            self.set_available(False)
            self.env.process(self._outage_timer(), name=f"{self.name}-outage")

    def _outage_timer(self):
        # An extension only moves ``_outage_until``; sleep on until it.
        while (
            self._outage_until is not None
            and self.env.now < self._outage_until
        ):
            yield self.env.timeout(self._outage_until - self.env.now)
        self._outage_until = None
        self.set_available(True)

    def set_adversary(self, model: AdversaryModel) -> None:
        """Install ``model`` as this channel's *ambient* adversary (fault
        hook); pulses layer on top and revert to it when they expire."""
        self._change("adversary", model)
        self._adversary_baseline = model

    def adversary_pulse(self, model: AdversaryModel, duration: float) -> None:
        """Run ``model`` for ``duration`` simulated seconds, then revert to
        the ambient adversary.  Overlapping pulses extend the window (the
        latest model wins), mirroring :meth:`outage` semantics.
        """
        if duration <= 0:
            raise ConfigurationError(
                f"adversary pulse duration must be > 0, got {duration}"
            )
        end = self.env.now + duration
        self._change("adversary", model)
        if self._adversary_until is not None and self._adversary_until >= end:
            return
        first = (
            self._adversary_until is None
            or self._adversary_until <= self.env.now
        )
        self._adversary_until = end
        if first:
            self.env.process(
                self._adversary_timer(), name=f"{self.name}-adversary"
            )

    def _adversary_timer(self):
        while (
            self._adversary_until is not None
            and self.env.now < self._adversary_until
        ):
            yield self.env.timeout(self._adversary_until - self.env.now)
        self._adversary_until = None
        self._change("adversary", self._adversary_baseline)

    def _adversary_effects(
        self, rng, copy: bool = False
    ) -> tuple[float, int, bool]:
        """Draw this send's (extra delay, extra copies, corrupt flag)."""
        return draw_effects(self.adversary, rng, self.adversary_stats, copy)

    def transit(
        self,
        message,
        arrive: Callable[[object], bool],
        duplicate: bool = False,
    ) -> None:
        """Put ``message`` in flight: one timer, no process.

        Draws the adversary effects, then the latency, and arms the transit
        timer; :meth:`_arrival` runs as its callback.  ``arrive(message)``
        is the substrate's hand-off (session / mailbox / phone lookup and a
        plain ``Store.put``) and returns False when there is nowhere to
        deliver.  Adversarial duplicates re-enter here with their own
        latency, reorder and corruption draws — from one zero-delay event,
        so they draw after the parent and behind every other send of the
        same instant, which keeps adversarial seeds' RNG order.
        """
        extra_delay, extra_copies, corrupt = self._adversary_effects(
            self.rng, copy=duplicate
        )
        timer = self.env.timeout(
            self.latency.draw(self.rng) + extra_delay,
            (message, arrive, corrupt, duplicate),
        )
        timer.callbacks.append(self._arrival)
        if extra_copies:
            launch = self.env.event()
            launch.callbacks.append(self._launch_copies)
            launch.succeed((message, arrive, extra_copies))

    def _launch_copies(self, launch) -> None:
        message, arrive, copies = launch.value
        for _ in range(copies):
            self.transit(replace(message), arrive, duplicate=True)

    def _arrival(self, timer) -> None:
        message, arrive, corrupt, duplicate = timer.value
        lost = bool(
            self.loss_probability
            and self.rng.random() < self.loss_probability
        )
        if corrupt:
            message = replace(message, corrupt=True)
        # The transit span opens before the hand-off: an idle reader
        # handles the message inside ``arrive`` and opens its own spans.
        span = (
            self._open_transit(message)
            if self.env.tracer is not None and not duplicate
            else None
        )
        if lost or not arrive(message):
            # Loss draw, or nowhere to put it at arrival time: the recipient
            # logged out, the phone left coverage or the service died while
            # the message was in flight.
            if not duplicate:
                self.stats.lost += 1
                if span is not None:
                    self.env.tracer.end(span, "lost")
        elif duplicate:
            # Duplicate copies ride the adversary counters only, keeping
            # the primary stream's submitted == delivered + lost exact.
            self.adversary_stats.duplicates_delivered += 1
        else:
            self.stats.record_delivery(self.env.now - message.created_at)
            if span is not None:
                self.env.tracer.end(span, "delivered")

    def _require_available(self) -> None:
        if not self.available:
            self.stats.rejected += 1
            raise ChannelUnavailable(f"channel {self.name!r} is down")

    def _open_transit(self, message):
        """Open the message's in-flight interval as a retroactive span.

        Channels know a message's fate only at the *end* of its transit, so
        the span starts at ``message.created_at`` and :meth:`_arrival`
        closes it at ``env.now`` with the fate.  Requires ``env.tracer`` —
        the call site guards on that so the disabled path stays one slot
        load.  None for a message no alert correlates.
        """
        if message.correlation is None:
            return None
        return self.env.tracer.begin(
            message.correlation,
            f"transit.{message.channel.value}",
            parent=message.trace_parent,
            start=message.created_at,
            recipient=message.recipient,
        )
