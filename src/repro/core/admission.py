"""Traffic hardening in front of the §4.2 delivery pipeline.

SIMBA's delivery path assumes polite traffic; at the ROADMAP's
million-user scale, alert storms, duplicate submissions and per-channel
provider limits are the common case.  This module is the admission layer
that keeps the pipeline dependable under that load:

- :class:`TokenBucket` rate limiters at three scopes — per-channel,
  per-recipient, global — refilled lazily from simulation time;
- dedup: with ``dedup_window`` set, a copy of an alert whose delivery
  status on the pessimistic log is terminal (a replay, a fallback copy)
  is journalled ``dedup_suppressed`` instead of ``duplicate_incoming``;
- :class:`BackoffPolicy` + :class:`DeadLetterQueue`: bounded per-alert
  retry budgets with exponential backoff and deterministic jitter,
  replacing the fixed-delay retry loop that would otherwise hammer a
  persistently-down channel forever;
- :class:`LoadShedder`: storm-mode detection on arrival rate and inbox
  depth, shedding or coalescing low-priority alerts — every shed is
  journalled as an explicit outcome, never a silent drop.

Everything is deterministic: jitter draws come from a dedicated
:mod:`repro.sim.rng` stream (``admission-<user>``), so enabling admission
never perturbs any existing stream, and a permissive
:meth:`AdmissionConfig.permissive` config is a no-op (the ``admission_off``
row of ``tests/test_knob_invariance.py``).

One :class:`AdmissionController` lives on the *persistent*
:class:`~repro.core.buddy.BuddyConfig`, not on an incarnation, so its
buckets, storm state and dead letters survive MAB crashes and MDC
restarts.  An alert's retry count lives on its
:class:`~repro.core.pessimistic_log.DeliveryStatus`, which survives them
with the log — a crash must not refill an alert's retry budget.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pessimistic_log import DeliveryStatus

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BackoffPolicy",
    "DeadLetter",
    "DeadLetterQueue",
    "LoadShedder",
    "TokenBucket",
]


# ----------------------------------------------------------------------
# Token buckets
# ----------------------------------------------------------------------


class TokenBucket:
    """Classic token bucket refilled lazily from simulation time.

    ``rate`` tokens accrue per second up to ``burst``; a grant consumes
    one token.  Grant timestamps are retained (bounded) so the delivery
    oracle can audit the fairness invariant after the fact: the number of
    grants inside *any* window ``W`` never exceeds ``burst + rate * W``.
    """

    #: Grant-log bound: enough for any test-scale run to audit exactly.
    MAX_GRANT_LOG = 65536

    __slots__ = ("name", "rate", "burst", "tokens", "updated_at", "grants",
                 "granted_total", "rejected_total")

    def __init__(self, rate: float, burst: float, name: str = "bucket"):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.name = name
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_at = 0.0
        self.grants: deque[float] = deque(maxlen=self.MAX_GRANT_LOG)
        self.granted_total = 0
        self.rejected_total = 0

    def _refill(self, now: float) -> None:
        if now > self.updated_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated_at) * self.rate
            )
            self.updated_at = now

    def available(self, now: float) -> float:
        self._refill(now)
        return self.tokens

    def wait_time(self, now: float) -> float:
        """Seconds from ``now`` until one token is available (0.0 if one
        is available already).

        ``updated_at`` may sit *ahead* of ``now`` when a reservation has
        committed a future-dated token via :meth:`take_at`; the next
        token then arrives relative to that commit time, not ``now`` —
        ignoring the gap would let back-to-back reservations under-wait
        and break the fairness bound.
        """
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        return (self.updated_at - now) + (1.0 - self.tokens) / self.rate

    def try_take(self, now: float) -> bool:
        """Take one token immediately, or reject without waiting."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self._record_grant(now)
            return True
        self.rejected_total += 1
        return False

    def take_at(self, at: float) -> None:
        """Commit a token at future time ``at`` (reserved by the caller,
        which computed ``at >= now + wait_time(now)`` across scopes)."""
        self._refill(at)
        self.tokens -= 1.0
        self._record_grant(at)

    def _record_grant(self, at: float) -> None:
        self.grants.append(at)
        self.granted_total += 1


# ----------------------------------------------------------------------
# Backoff + dead letters
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with bounded multiplicative jitter.

    The deterministic schedule ``base * factor**attempt`` is monotone
    nondecreasing; jitter scales each delay by a factor drawn uniformly
    from ``[1 - jitter, 1 + jitter]``, and the result is clamped to
    ``max_delay`` — so every delay is bounded regardless of attempt.
    """

    base: float = 30.0
    factor: float = 2.0
    max_delay: float = 900.0
    jitter: float = 0.1

    def delay_for(self, attempt: int, rng=None) -> float:
        delay = self.base * self.factor ** attempt
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return min(delay, self.max_delay)


@dataclass(slots=True)
class DeadLetter:
    """One poisoned alert parked for operator attention."""

    alert_id: str
    user: str
    reason: str
    at: float
    attempts: int


class DeadLetterQueue:
    """Terminal parking lot for alerts whose retry budget is exhausted.

    Nothing here is retried automatically — that is the point: a
    persistently-failing alert stops consuming delivery capacity, and the
    journal records ``dead_lettered`` so the oracle can account for it.
    """

    def __init__(self):
        self.entries: list[DeadLetter] = []
        self._by_alert: dict[str, DeadLetter] = {}

    def add(self, letter: DeadLetter) -> None:
        self.entries.append(letter)
        self._by_alert[letter.alert_id] = letter

    def get(self, alert_id: str) -> Optional[DeadLetter]:
        return self._by_alert.get(alert_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, alert_id: str) -> bool:
        return alert_id in self._by_alert


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------


class LoadShedder:
    """Storm-mode detector on a sliding arrival-rate window + queue depth.

    Pure bookkeeping — the *decision* to shed a given alert also depends
    on its severity and is made by the controller, so this object stays
    independently property-testable.
    """

    def __init__(self, window: float, rate_threshold: Optional[float],
                 depth_threshold: Optional[int]):
        self.window = window
        self.rate_threshold = rate_threshold
        self.depth_threshold = depth_threshold
        self._arrivals: deque[float] = deque()
        self.storm_entries = 0
        self._in_storm = False

    def record_arrival(self, now: float) -> None:
        self._arrivals.append(now)
        cutoff = now - self.window
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()

    def arrival_rate(self, now: float) -> float:
        cutoff = now - self.window
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
        return len(self._arrivals) / self.window

    def storm_active(self, now: float, queue_depth: int) -> bool:
        active = False
        if self.rate_threshold is not None:
            active = self.arrival_rate(now) >= self.rate_threshold
        if not active and self.depth_threshold is not None:
            active = queue_depth >= self.depth_threshold
        if active and not self._in_storm:
            self.storm_entries += 1
        self._in_storm = active
        return active


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionConfig:
    """Scalar-only admission knobs (JSON round-trips through reproducers).

    Every limit defaults to *off* (``None``); :meth:`permissive` is the
    explicit everything-off config used by the byte-identity regression
    tests, :meth:`hardened` the storm-ready default used by E12.
    """

    #: Seed for the jitter stream (mixed per-user via RngRegistry).
    seed: int = 0
    # Rate limits (tokens/second; None disables the scope).
    global_rate: Optional[float] = None
    global_burst: float = 10.0
    recipient_rate: Optional[float] = None
    recipient_burst: float = 4.0
    channel_rate: Optional[float] = None
    channel_burst: float = 8.0
    #: Longest a throttled alert will wait for tokens before being shed.
    max_throttle_delay: float = 120.0
    # Dedup (None disables).  Only whether the window is set is read:
    # suppression keys on the alert's status on the log.
    dedup_window: Optional[float] = None
    #: Read by nothing: dedup keys on the log's delivery status.  Kept so
    #: reproducer files and run fingerprints, which hash every field, stay
    #: valid.
    dedup_entries: int = 4096
    # Retry budget + backoff (None budget keeps the legacy attempt cap;
    # None backoff_base keeps the legacy fixed retry delay).
    retry_budget: Optional[int] = None
    backoff_base: Optional[float] = None
    backoff_factor: float = 2.0
    backoff_max: float = 900.0
    backoff_jitter: float = 0.1
    # Storm-mode shedding (both thresholds None disables).
    storm_window: float = 60.0
    storm_rate: Optional[float] = None
    storm_depth: Optional[int] = None
    #: Severities eligible for shedding/coalescing under storm mode.
    shed_severities: tuple = ("routine",)
    #: Coalesce window for same-(user, keyword) routine alerts in a storm.
    coalesce_window: Optional[float] = None

    @classmethod
    def permissive(cls, seed: int = 0) -> "AdmissionConfig":
        """Everything off: provably zero behavior change."""
        return cls(seed=seed)

    @classmethod
    def hardened(cls, seed: int = 0) -> "AdmissionConfig":
        """Storm-ready defaults used by E12 and the storm chaos tier."""
        return cls(
            seed=seed,
            global_rate=2.0,
            global_burst=10.0,
            recipient_rate=0.5,
            recipient_burst=4.0,
            channel_rate=1.0,
            channel_burst=8.0,
            max_throttle_delay=120.0,
            dedup_window=3600.0,
            dedup_entries=4096,
            retry_budget=3,
            backoff_base=30.0,
            backoff_factor=2.0,
            backoff_max=600.0,
            backoff_jitter=0.1,
            storm_window=60.0,
            storm_rate=0.5,
            storm_depth=8,
            coalesce_window=120.0,
        )


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------


@dataclass
class ShedDecision:
    """Why an alert was (not) shed — annotated onto the trace span."""

    action: str  # "admit" | "shed" | "coalesce"
    reason: str = ""
    coalesced_into: Optional[str] = None


class AdmissionController:
    """One endpoint's admission state: buckets, storm shedding, DLQ.

    The controller is sim-time-driven but env-free: every method takes
    ``now`` explicitly, so it can be owned by persistent config objects
    that outlive kernels and incarnations.
    """

    def __init__(self, config: AdmissionConfig, owner: str):
        self.config = config
        self.owner = owner
        #: Deterministic jitter stream — a *named* stream, so enabling
        #: admission never perturbs any pre-existing RNG stream.
        self.rng = RngRegistry(seed=config.seed).stream(f"admission-{owner}")
        self.backoff = BackoffPolicy(
            base=config.backoff_base if config.backoff_base is not None else 30.0,
            factor=config.backoff_factor,
            max_delay=config.backoff_max,
            jitter=config.backoff_jitter,
        )
        self.global_bucket: Optional[TokenBucket] = (
            TokenBucket(config.global_rate, config.global_burst, "global")
            if config.global_rate is not None else None
        )
        self.recipient_buckets: dict[str, TokenBucket] = {}
        self.channel_buckets: dict[str, TokenBucket] = {}
        self.dead_letters = DeadLetterQueue()
        self.shedder: Optional[LoadShedder] = (
            LoadShedder(config.storm_window, config.storm_rate,
                        config.storm_depth)
            if (config.storm_rate is not None
                or config.storm_depth is not None) else None
        )
        self._shed_severities = frozenset(config.shed_severities)
        #: Last admitted (at, alert_id) per coalesce key.
        self._coalesce: OrderedDict[str, tuple[float, str]] = OrderedDict()
        # Shed accounting, audited by the every-shed-is-journalled
        # invariant against the journal's per-kind counts.
        self.shed_counts: Counter[str] = Counter()
        self.throttle_waits = 0
        #: Copies the pipeline suppressed as duplicates of settled alerts.
        self.dedup_suppressed = 0

    # -- rate limiting -------------------------------------------------

    def _recipient_bucket(self, recipient: str) -> Optional[TokenBucket]:
        if self.config.recipient_rate is None:
            return None
        bucket = self.recipient_buckets.get(recipient)
        if bucket is None:
            bucket = TokenBucket(
                self.config.recipient_rate, self.config.recipient_burst,
                f"recipient:{recipient}",
            )
            self.recipient_buckets[recipient] = bucket
        return bucket

    def channel_bucket(self, channel: str) -> Optional[TokenBucket]:
        if self.config.channel_rate is None:
            return None
        bucket = self.channel_buckets.get(channel)
        if bucket is None:
            bucket = TokenBucket(
                self.config.channel_rate, self.config.channel_burst,
                f"channel:{channel}",
            )
            self.channel_buckets[channel] = bucket
        return bucket

    def reserve_route(self, now: float, recipient: str) -> Optional[float]:
        """Reserve global + per-recipient tokens for one routing pass.

        Returns the wait (seconds, possibly 0.0) before the pass may
        proceed, committing tokens at ``now + wait`` in every scope — or
        ``None`` (nothing committed) when the wait would exceed
        ``max_throttle_delay``, in which case the alert is rate-limited.
        """
        buckets = []
        if self.global_bucket is not None:
            buckets.append(self.global_bucket)
        recipient_bucket = self._recipient_bucket(recipient)
        if recipient_bucket is not None:
            buckets.append(recipient_bucket)
        if not buckets:
            return 0.0
        wait = max(bucket.wait_time(now) for bucket in buckets)
        if wait > self.config.max_throttle_delay:
            for bucket in buckets:
                bucket.rejected_total += 1
            return None
        at = now + wait
        for bucket in buckets:
            bucket.take_at(at)
        if wait > 0:
            self.throttle_waits += 1
        return wait

    def try_submit(self, now: float, channel: str) -> bool:
        """Per-channel provider limit consulted at submission time."""
        bucket = self.channel_bucket(channel)
        if bucket is None:
            return True
        return bucket.try_take(now)

    def all_buckets(self) -> list[TokenBucket]:
        buckets = []
        if self.global_bucket is not None:
            buckets.append(self.global_bucket)
        buckets.extend(self.recipient_buckets.values())
        buckets.extend(self.channel_buckets.values())
        return buckets

    # -- retry budget + dead letters ------------------------------------

    def take_retry_token(self, status: "DeliveryStatus") -> bool:
        """Consume one retry from the alert's budget (True = may retry);
        the count is the alert's delivery status on the log."""
        budget = self.config.retry_budget
        if budget is not None and status.retries >= budget:
            return False
        status.retries += 1
        return True

    def retry_delay(self, attempt: int, fallback: float) -> float:
        """Backoff delay for retry ``attempt`` (legacy fixed delay when
        backoff is not configured)."""
        if self.config.backoff_base is None:
            return fallback
        return self.backoff.delay_for(attempt, self.rng)

    def dead_letter(self, alert_id: str, reason: str, at: float,
                    attempts: int) -> DeadLetter:
        letter = DeadLetter(
            alert_id=alert_id, user=self.owner, reason=reason, at=at,
            attempts=attempts,
        )
        self.dead_letters.add(letter)
        return letter

    # -- storm shedding ------------------------------------------------

    def admit(self, now: float, alert_id: str, keyword: str, severity: str,
              queue_depth: int) -> ShedDecision:
        """Storm-mode admit/shed/coalesce decision for one arrival."""
        if self.shedder is None:
            return ShedDecision("admit")
        self.shedder.record_arrival(now)
        if not self.shedder.storm_active(now, queue_depth):
            return ShedDecision("admit")
        if severity not in self._shed_severities:
            return ShedDecision("admit", reason="storm: severity exempt")
        window = self.config.coalesce_window
        if window is not None:
            ckey = f"{self.owner}:{keyword}"
            previous = self._coalesce.get(ckey)
            if previous is not None and now - previous[0] <= window:
                self.shed_counts["coalesced"] += 1
                return ShedDecision(
                    "coalesce",
                    reason=f"storm: within {window:.0f}s of {previous[1]}",
                    coalesced_into=previous[1],
                )
            self._coalesce[ckey] = (now, alert_id)
            self._coalesce.move_to_end(ckey)
            while len(self._coalesce) > 65536:
                self._coalesce.popitem(last=False)
            return ShedDecision("admit", reason="storm: coalesce anchor")
        self.shed_counts["shed"] += 1
        return ShedDecision("shed", reason="storm: low-priority drop")

    def count_shed(self, kind: str) -> None:
        """Attribute a shed decided outside :meth:`admit` (rate limiting)."""
        self.shed_counts[kind] += 1

    # -- rollup ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "owner": self.owner,
            "shed": self.shed_counts.get("shed", 0),
            "coalesced": self.shed_counts.get("coalesced", 0),
            "rate_limited": self.shed_counts.get("rate_limited", 0),
            "dedup_suppressed": self.dedup_suppressed,
            # Always 0 (nothing evicts); kept because the rollup digests
            # hash every key.
            "dedup_evicted": 0,
            "dead_letters": len(self.dead_letters),
            "throttle_waits": self.throttle_waits,
            "submissions_rejected": sum(
                b.rejected_total for b in self.channel_buckets.values()
            ),
            "storm_entries": (
                self.shedder.storm_entries if self.shedder is not None else 0
            ),
        }


def build_controller(config: Optional[AdmissionConfig],
                     owner: str) -> Optional[AdmissionController]:
    """Controller for ``owner``, or None when admission is unconfigured."""
    if config is None:
        return None
    return AdmissionController(config, owner)
