"""Adversarial channel behaviour: reordering, duplication, corruption.

The substrates model benign failure — outage, delay, loss.  Real IM/email/SMS
backbones and WAN replication links also *reorder* packets (a later send
overtakes an earlier one), *duplicate* them (retransmit amplification), and
*corrupt* them in flight (flagged here at receive time, the way a failed
checksum is).  Dolev, Dubois, Potop-Butucaru & Tixeuil's stabilizing
exactly-once results are stated against exactly this adversary: an unreliable
non-FIFO duplicating channel.

An :class:`AdversaryModel` is attached to any :class:`~repro.net.channel.
ChannelBase`.  The off model draws **no** random numbers, so enabling the
machinery without turning any knob leaves every existing seeded run
byte-identical — the same inertness contract `AdmissionConfig.permissive()`
honours.  All draws come from the owning channel's component RNG stream, so
adversarial schedules are bit-reproducible and shrinkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

DEFAULT_REORDER_HORIZON = 2.0
DEFAULT_DUPLICATE_MAX = 3


@dataclass(frozen=True)
class AdversaryModel:
    """Per-channel adversary knobs; all zero means benign (and draw-free).

    ``reorder_probability``
        Chance a copy is held back an extra ``U(0, reorder_horizon]``
        seconds — enough for later sends to overtake it (latency inversion
        with a bounded horizon, never unbounded reordering).
    ``duplicate_probability``
        Chance a send is amplified into extra copies.  The copy count is
        drawn so the *total* number of copies lands in
        ``[2, duplicate_max]``; each copy gets an independent latency (and
        reorder/corruption) draw.
    ``corrupt_probability``
        Chance an arriving copy is flagged corrupt — the bit-flip itself is
        not simulated byte-by-byte; the flag models a failed checksum at
        receive time.
    """

    reorder_probability: float = 0.0
    reorder_horizon: float = DEFAULT_REORDER_HORIZON
    duplicate_probability: float = 0.0
    duplicate_max: int = DEFAULT_DUPLICATE_MAX
    corrupt_probability: float = 0.0

    def __post_init__(self):
        for knob in ("reorder_probability", "duplicate_probability",
                     "corrupt_probability"):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{knob} must be in [0, 1], got {value!r}"
                )
        if self.reorder_horizon < 0:
            raise ConfigurationError(
                f"reorder horizon must be >= 0, got {self.reorder_horizon!r}"
            )
        if self.duplicate_max < 1:
            raise ConfigurationError(
                f"duplicate_max must be >= 1, got {self.duplicate_max!r}"
            )
        # Whether any knob is set: read on every send, so computed once.
        # A plain attribute, not a field, so ``asdict`` (fingerprints,
        # reproducer pins) sees the knobs only.
        object.__setattr__(self, "enabled", bool(
            self.reorder_probability
            or self.duplicate_probability
            or self.corrupt_probability
        ))

    @classmethod
    def off(cls) -> "AdversaryModel":
        """The benign adversary: no knob set, no RNG ever drawn."""
        return cls()


@dataclass
class AdversaryStats:
    """Injection-side counters, separate from :class:`ChannelStats` so the
    ``submitted == delivered + lost`` primary-stream invariant stays exact."""

    reordered: int = 0
    duplicates_injected: int = 0
    duplicates_delivered: int = 0
    corrupt_injected: int = 0


def draw_effects(
    model: AdversaryModel,
    rng: np.random.Generator,
    stats: AdversaryStats,
    copy: bool = False,
) -> tuple[float, int, bool]:
    """Draw ``(extra_delay, extra_copies, corrupt)`` for one send.

    The draw order is fixed (reorder, duplicate, corrupt) and the off model
    short-circuits before any draw — that is the byte-identity contract.
    ``copy=True`` is a duplicate copy drawing its own reorder/corruption;
    copies never re-duplicate.
    """
    if not model.enabled:
        return 0.0, 0, False
    extra_delay = 0.0
    extra_copies = 0
    corrupt = False
    if model.reorder_probability and rng.random() < model.reorder_probability:
        extra_delay = model.reorder_horizon * float(rng.random())
        stats.reordered += 1
    if (
        not copy
        and model.duplicate_probability
        and model.duplicate_max > 1
        and rng.random() < model.duplicate_probability
    ):
        extra_copies = int(rng.integers(1, model.duplicate_max))
        stats.duplicates_injected += extra_copies
    if model.corrupt_probability and rng.random() < model.corrupt_probability:
        corrupt = True
        stats.corrupt_injected += 1
    return extra_delay, extra_copies, corrupt
