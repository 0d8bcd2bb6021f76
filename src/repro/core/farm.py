"""BuddyFarm: thousands of MyAlertBuddies on one simulation kernel.

The paper's workload is a portal serving ≈225k users / ≈778k alerts a day
(§1), but SIMBA's architecture is a *personal* proxy: one MAB per user.
Scaling that design is therefore a deployment problem — many small daemons
against shared channel substrates — and this module is that deployment
layer:

- **Batched tenancy**: :meth:`BuddyFarm.add_users` creates N users and
  their deployments in one call against the world's shared IM/email/SMS
  services; :meth:`BuddyFarm.launch_all` starts every MAB.
- **O(1) lookup**: tenants are indexed by user name and by numeric index,
  and each keeps its source-facing ``book``, so a replayed log record is
  addressed with ``source.emit_to(tenant.book, ...)`` without scanning or
  registering thousands of targets with the source.
- **Determinism by sharding**: tenants are assigned round-robin to shards;
  farm-level randomness (launch staggering) draws from per-shard RNG
  streams (each built by its first draw), and each deployment keeps its own
  per-user stream, so results are independent of tenant creation order and
  identical across runs for a fixed seed.
- **Shared profile configuration**: what every tenant of one
  :class:`FarmProfile` holds alike — accepted sources, keyword map,
  categories, delivery modes — is built once per farm and shared;
  its tables are replaced, never changed in place, so a tenant's own
  ``accept_source`` / ``map_keyword`` / ``subscribe`` / ``register_mode``
  still change that tenant only.
- **Aggregate rollups**: journal tallies (O(kinds) per tenant thanks to the
  journal's incremental counters), receipt latencies and delivery ratios
  across the whole farm.

A farm does not change what a MAB *is* — each tenant runs the real
:class:`~repro.core.buddy.MyAlertBuddy` with the full §4.2 pipeline and HA
machinery.  :class:`FarmProfile` only tunes per-tenant configuration (which
categories to subscribe, maintenance cadence, journal bounding) so a
million-alert run stays O(traffic) in memory and kernel events.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.aggregator import CategoryAggregator
from repro.core.buddy import BuddyConfig
from repro.core.classifier import AlertClassifier
from repro.core.filters import FilterPolicy
from repro.core.rejuvenation import RejuvenationPolicy
from repro.core.replication import FencingService, ReplicatedPair, build_pair
from repro.core.subscription import SubscriptionLayer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.addresses import AddressBook
    from repro.core.admission import AdmissionConfig
    from repro.core.delivery_modes import DeliveryMode
    from repro.core.user_endpoint import Receipt, UserEndpoint
    from repro.core.watchdog import MasterDaemonController
    from repro.world import BuddyDeployment, SimbaWorld


@dataclass
class FarmProfile:
    """Per-tenant configuration the farm applies at creation time."""

    #: Categories each tenant subscribes to (keyword == category).
    categories: tuple[str, ...] = ("News",)
    #: Delivery mode used for every subscription.
    mode_name: str = "normal"
    #: Alert sources every tenant's classifier accepts.
    accept_sources: tuple[str, ...] = ()
    present: bool = True
    ack_enabled: bool = True
    #: Self-stabilization cadence.  The paper runs sanity checks every
    #: minute on one desktop (§4.2.1); with thousands of tenants that is
    #: O(tenants × minutes) kernel events, so farms may stretch it.
    sanity_interval: Optional[float] = None
    monkey_enabled: bool = True
    nightly_enabled: bool = True
    #: Bound each tenant's retained journal events (counts stay exact).
    journal_max_events: Optional[int] = None
    #: Spread launches over [0, launch_stagger) seconds (per-shard RNG) so
    #: periodic maintenance does not fire in lockstep across the farm.
    launch_stagger: float = 0.0
    #: Traffic hardening applied to every tenant (rate limits, dedup,
    #: retry budgets, storm shedding).  None = legacy unhardened path.
    admission: Optional["AdmissionConfig"] = None


@dataclass
class FarmTenant:
    """One user's slice of the farm."""

    name: str
    index: int
    shard: int
    user: "UserEndpoint"
    deployment: "BuddyDeployment"
    book: "AddressBook" = field(repr=False, default=None)
    #: Set by :meth:`BuddyFarm.start_watchdogs` — None under plain
    #: :meth:`BuddyFarm.launch_all`.
    mdc: Optional["MasterDaemonController"] = field(repr=False, default=None)
    #: Set by :meth:`BuddyFarm.enable_replication` — the tenant's
    #: warm-standby pair (None for solo tenants).
    pair: Optional["ReplicatedPair"] = field(repr=False, default=None)


class _ProfileConfig:
    """What every tenant of one :class:`FarmProfile` holds alike, built
    once per farm: the accepted-source table, the keyword map, the
    categories and the standard delivery modes.

    A tenant's :class:`~repro.core.buddy.BuddyConfig` stays its own (a
    harness sets hooks on it), and so do its classifier, aggregator, filter
    policy and subscription layer objects; their tables are these, until the
    tenant changes one.  (A fresh filter policy holds no table of its own.)
    """

    def __init__(self, profile: FarmProfile):
        from repro.world import standard_modes, standard_user_book

        self.profile = profile
        self.user_book = standard_user_book
        self.classifier = AlertClassifier()
        for source_name in profile.accept_sources:
            self.classifier.accept_source(source_name)
        self.aggregator = CategoryAggregator()
        for category in profile.categories:
            self.aggregator.map_keyword(category, category)
        self.categories = frozenset(profile.categories)
        self.modes: dict[str, "DeliveryMode"] = {
            mode.name: mode for mode in standard_modes()
        }

    def config_for(self, user: "UserEndpoint") -> BuddyConfig:
        """A tenant's own config over the shared tables, with ``user``
        registered and subscribed as the profile says."""
        profile = self.profile
        subscriptions = SubscriptionLayer(self.categories)
        subscriptions.register_user(user.name, self.user_book(user), self.modes)
        for category in profile.categories:
            subscriptions.subscribe(category, user.name, profile.mode_name)
        config = BuddyConfig(
            user=user.name,
            classifier=self.classifier.copy(),
            aggregator=self.aggregator.copy(),
            filters=FilterPolicy(),
            subscriptions=subscriptions,
            rejuvenation=RejuvenationPolicy(
                nightly_enabled=profile.nightly_enabled
            ),
            monkey_enabled=profile.monkey_enabled,
            admission=profile.admission,
        )
        if profile.sanity_interval is not None:
            config.sanity_interval = profile.sanity_interval
        return config


class BuddyFarm:
    """Multi-tenant deployment layer over one :class:`SimbaWorld`."""

    def __init__(
        self,
        world: "SimbaWorld",
        shards: int = 16,
        profile: Optional[FarmProfile] = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.world = world
        self.shards = shards
        self.profile = profile if profile is not None else FarmProfile()
        self.tenants: dict[str, FarmTenant] = {}
        self._by_index: list[FarmTenant] = []
        self._shared: Optional[_ProfileConfig] = None
        self._launched = False

    def __len__(self) -> int:
        return len(self._by_index)

    def __iter__(self) -> Iterator[FarmTenant]:
        return iter(self._by_index)

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    def add_user(self, name: str) -> FarmTenant:
        """Create one user + deployment, configured per the profile."""
        profile = self.profile
        world = self.world
        if self._shared is None:
            self._shared = _ProfileConfig(profile)
        index = len(self._by_index)
        user = world.create_user(
            name, present=profile.present, ack_enabled=profile.ack_enabled
        )
        deployment = world.create_buddy(
            user,
            journal_max_events=profile.journal_max_events,
            config=self._shared.config_for(user),
        )
        tenant = FarmTenant(
            name=name,
            index=index,
            shard=index % self.shards,
            user=user,
            deployment=deployment,
            book=deployment.source_facing_book(),
        )
        self.tenants[name] = tenant
        self._by_index.append(tenant)
        return tenant

    def add_users(self, count: int, prefix: str = "user") -> list[FarmTenant]:
        """Batch-create ``count`` tenants named ``{prefix}{i}``."""
        start = len(self._by_index)
        names = [f"{prefix}{start + offset}" for offset in range(count)]
        self.world.prime_tenants(names)
        return [self.add_user(name) for name in names]

    # ------------------------------------------------------------------
    # O(1) lookup
    # ------------------------------------------------------------------

    def tenant(self, name: str) -> FarmTenant:
        return self.tenants[name]

    def tenant_at(self, index: int) -> FarmTenant:
        return self._by_index[index]

    # ------------------------------------------------------------------
    # Batched lifecycle
    # ------------------------------------------------------------------

    def launch_all(self) -> None:
        """Start one MAB incarnation per tenant.

        With ``launch_stagger`` set, each tenant starts at a per-shard
        random offset inside the window, so thousands of sanity-check and
        nightly-rejuvenation timers do not fire in lockstep.
        """
        if self._launched:
            raise RuntimeError("farm already launched")
        self._launched = True
        stagger = self.profile.launch_stagger
        rngs = self.world.rngs
        for tenant in self._by_index:
            if stagger > 0.0:
                # The shard's stream, built by its first draw.
                delay = float(
                    rngs.stream(f"farm-shard-{tenant.shard}").uniform(
                        0.0, stagger
                    )
                )
                self.world.env.process(
                    self._delayed_launch(tenant, delay),
                    name=f"farm-launch-{tenant.name}",
                )
            else:
                tenant.deployment.launch()

    def _delayed_launch(self, tenant: FarmTenant, delay: float):
        yield self.world.env.timeout(delay)
        tenant.deployment.launch()

    def enable_replication(self, **pair_kwargs) -> dict[str, "ReplicatedPair"]:
        """Give every tenant a warm-standby pair on a second host.

        Each tenant's deployment becomes the *primary* of a
        :class:`~repro.core.replication.ReplicatedPair`: a standby
        deployment (sharing the tenant's config and logical addresses) is
        placed on a host of its own, connected by a log-ship
        :class:`~repro.sim.link.HostLink`, under one farm-wide
        :class:`~repro.core.replication.FencingService`.  Call before
        :meth:`start_watchdogs` so the primary MDCs get their resurrection
        gates attached.  ``pair_kwargs`` forward to ``build_pair``
        (lease/heartbeat tuning, link latency/loss, MDC kwargs).
        """
        if self._launched:
            raise RuntimeError(
                "enable replication before launching the farm"
            )
        fencing = pair_kwargs.pop("fencing", None) or FencingService()
        pairs: dict[str, "ReplicatedPair"] = {}
        for tenant in self._by_index:
            if tenant.pair is not None:
                raise RuntimeError(f"{tenant.name!r} is already replicated")
            tenant.pair = build_pair(
                self.world,
                tenant.deployment,
                fencing=fencing,
                **pair_kwargs,
            )
            pairs[tenant.name] = tenant.pair
        return pairs

    def start_watchdogs(self, **mdc_kwargs) -> None:
        """Put every tenant under its own MDC watchdog (§4.2.1).

        Each MDC launches (and on crash/hang relaunches) its tenant's
        incarnations, so this replaces :meth:`launch_all` — calling both
        would race two incarnations for the same endpoint.  This is the
        launch mode fault-injection rigs (the chaos testkit) need: a farm
        whose tenants survive PROCESS_CRASH / PROCESS_HANG faults.

        For replicated tenants the MDC is attached to the pair: the
        failover controller gates its boot-time restarts (epoch fencing)
        and reuses the same kwargs for the standby's MDC at promotion.
        """
        if self._launched:
            raise RuntimeError("farm already launched")
        self._launched = True
        for tenant in self._by_index:
            tenant.mdc = self.world.start_mdc(tenant.deployment, **mdc_kwargs)
            if tenant.pair is not None:
                tenant.pair.attach_primary_mdc(tenant.mdc, mdc_kwargs)

    def deployments(self) -> list["BuddyDeployment"]:
        """Every tenant's deployment, in tenant-index order."""
        return [tenant.deployment for tenant in self._by_index]

    # ------------------------------------------------------------------
    # Aggregate rollups
    # ------------------------------------------------------------------

    def aggregate_counts(self) -> Counter:
        """Sum of every tenant journal's per-kind tallies (O(1) per kind)."""
        total: Counter = Counter()
        for tenant in self._by_index:
            total.update(tenant.deployment.journal.counts())
        return total

    def iter_receipts(self, unique: bool = True) -> Iterator["Receipt"]:
        """Stream every receipt across the farm (``unique`` drops
        duplicates).  The rollup hot path: one pass, nothing materialized —
        at farm scale the receipt population is the largest collection in
        the run, and building a throwaway list of it per rollup dominated
        the A4 profile.
        """
        for tenant in self._by_index:
            for receipt in tenant.user.receipts:
                if unique and receipt.duplicate:
                    continue
                yield receipt

    def receipts(self, unique: bool = True) -> list["Receipt"]:
        """Every receipt across the farm, as a list (see
        :meth:`iter_receipts` for the non-materializing form)."""
        return list(self.iter_receipts(unique=unique))

    def delivery_summary(self) -> dict:
        """Farm-wide delivery rollup: receipts, latency, journal tallies.

        Single pass over the receipt stream: the latency list is the only
        thing kept (``summarize`` needs the values), so rollup cost is
        O(events) with no intermediate Receipt list.
        """
        from repro.metrics.stats import summarize

        latencies = [r.latency for r in self.iter_receipts(unique=True)]
        counts = self.aggregate_counts()
        return {
            "tenants": len(self._by_index),
            "received": len(latencies),
            "latency": summarize(latencies),
            "routed": counts["routed"],
            "delivery_failed": counts["delivery_failed"],
            "counts": counts,
        }

    def admission_summary(self) -> Optional[dict]:
        """Farm-wide admission rollup, or None when hardening is off."""
        totals: Counter = Counter()
        tenants_hardened = 0
        for tenant in self._by_index:
            controller = tenant.deployment.config.admission_controller()
            if controller is None:
                continue
            tenants_hardened += 1
            for key, value in controller.summary().items():
                if key != "owner":
                    totals[key] += value
        if tenants_hardened == 0:
            return None
        return {"tenants_hardened": tenants_hardened, **totals}
