"""E13: the sharded A4 — farm-of-farms throughput beyond one core.

A4 (:func:`~repro.experiments.ablations.run_farm_throughput_sweep`) showed
aggregate throughput growing near-linearly with tenants *inside one
kernel*; this experiment shows the next multiplier: partitioning the same
logical population over N :class:`~repro.core.shard.ShardedFarm` worker
processes and checking that (a) the work really spreads — each shard's
kernel only processes its own tenants — and (b) nothing about the results
depends on N (the shard-count-invariance oracle).

**Workload.** ``build_e13_workload`` is the per-shard builder the
:class:`~repro.core.shard.ShardWorker` runs at construction.  Out of a
population of ``users`` logical tenants, a deterministic ~``active_permille
/ 1000`` fraction are *senders*: each emits ``alerts_per_sender`` alerts at
times drawn from its own name-keyed RNG stream, and each alert fans out to
``fanout_width`` recipients chosen by stable hash over the whole
population.  Every hop — even to a recipient on the sender's own shard —
travels the cross-shard bridge, so delivery timing is a pure function of
the send time and identical in every layout.  Recipients materialize
lazily on first delivery, which is what lets the logical population reach
100k–1M while the kernels only carry the ~active slice.

**Single-core caveat.** Shard workers are OS processes; the measured
``speedup`` column is real parallelism and scales with available cores.
On a 1-core container every layout time-slices the same CPU, so the
honest local speedup is ~1× (the committed ``BENCH_A4_SHARD.json``
baseline records exactly that) — the invariance guarantees are what make
the multi-core numbers trustworthy wherever they are measured.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.farm import FarmProfile
from repro.core.shard import ShardedFarm, stable_hash64
from repro.metrics.stats import Summary, summarize
from repro.net.channel import LatencyModel
from repro.sim.rng import RngRegistry
from repro.world import WorldConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.shard import ShardRuntime
    from repro.testkit.oracle import OracleReport

#: Dotted path handed to :class:`~repro.core.shard.ShardSpec` (must be
#: importable by name in worker processes).
E13_WORKLOAD = "repro.experiments.sharded:build_e13_workload"

#: Zero-variance channels: within one shard world the IM/email/SMS
#: substrates are shared by every local tenant, so any latency/loss
#: randomness would couple a tenant's timings to its neighbours' traffic —
#: exactly the interleaving dependence shard-count invariance forbids.
#: ``sigma=0`` latency draws consume no RNG and losses are off.
def e13_world_config(seed: int) -> WorldConfig:
    return WorldConfig(
        seed=seed,
        im_latency=LatencyModel(median=0.4, sigma=0.0, low=0.0, high=5.0),
        im_loss=0.0,
        email_latency=LatencyModel(median=45.0, sigma=0.0, low=0.0, high=600.0),
        email_loss=0.0,
        sms_latency=LatencyModel(median=10.0, sigma=0.0, low=0.0, high=120.0),
        sms_loss=0.0,
    )


#: Lean per-tenant configuration for six-figure populations: bounded
#: journals, no monkey/nightly background machinery and no sanity checks
#: (each would add O(tenants × minutes) kernel events and none of them are
#: what E13 measures; an infinite interval joins no cohort at all).
E13_PROFILE = FarmProfile(
    categories=("News",),
    mode_name="normal",
    accept_sources=("portal",),
    present=True,
    ack_enabled=True,
    sanity_interval=math.inf,
    monkey_enabled=False,
    nightly_enabled=False,
    journal_max_events=64,
    launch_stagger=0.0,
)


def _is_sender(name: str, active_permille: int) -> bool:
    """Deterministic sender selection by name hash (layout-independent)."""
    return stable_hash64(f"e13-sender-{name}") % 1000 < active_permille


def _sender_process(env, runtime: "ShardRuntime", name: str, times,
                    fanout_width: int, population: int):
    previous = 0.0
    for j, at in enumerate(times):
        if at > previous:
            yield env.timeout(at - previous)
            previous = at
        for m in range(fanout_width):
            recipient = stable_hash64(f"e13-rcpt-{name}-{j}-{m}") % population
            runtime.send_envelope(
                runtime.user_name(recipient),
                "News",
                f"e13-{name}-{j}",
                "body",
                origin=name,
                seq=j * fanout_width + m,
                alert_id=f"e13-{name}-{j}-{m}",
            )


def build_e13_workload(
    runtime: "ShardRuntime",
    duration: float = 600.0,
    active_permille: int = 60,
    alerts_per_sender: int = 2,
    fanout_width: int = 2,
) -> None:
    """Install this shard's slice of the E13 traffic.

    Senders are pure traffic generators — they are never materialized as
    tenants (only *recipients* cost a MAB), and their emission times come
    from name-keyed streams, so the envelope set is a pure function of
    (seed, population), not of the shard layout.
    """
    env = runtime.world.env
    senders = [
        name for name in runtime.local_names
        if _is_sender(name, active_permille)
    ]
    # Each sender's stream is drawn once, here: a registry of the world's
    # root seed gives the world's streams and is dropped with this call.
    once = RngRegistry(runtime.world.rngs.seed)
    streams = [f"e13-traffic-{name}" for name in senders]
    once.prime(streams)
    for name, stream in zip(senders, streams):
        rng = once.stream(stream)
        times = sorted(
            float(t) for t in rng.uniform(0.0, duration, size=alerts_per_sender)
        )
        env.process(
            _sender_process(
                env, runtime, name, times, fanout_width, runtime.population
            ),
            name=f"e13-sender-{name}",
        )


@dataclass
class ShardedRunResult:
    """One measured shard layout of the E13 sweep."""

    shards: int
    population: int
    #: Tenants actually materialized (recipients only — see the workload).
    tenants: int
    receipts: int
    delivered: int
    envelopes: int
    undelivered_envelopes: int
    virtual_seconds: float
    wall_seconds: float
    alerts_per_wall_second: float
    latency: Summary
    counts: dict
    merged_fingerprint: str
    placement_summary: str
    per_shard_events: dict = field(default_factory=dict)


def run_sharded_throughput(
    shards: int,
    users: int = 100_000,
    seed: int = 0,
    duration: float = 600.0,
    epoch: float = 60.0,
    drain: float = 240.0,
    workload_kwargs: Optional[dict] = None,
    vnodes: int = 64,
    inline: bool = False,
) -> ShardedRunResult:
    """Run the E13 workload on one shard layout and measure it.

    ``drain`` extends the horizon past the traffic window so in-flight
    envelopes (due at most one ``epoch`` after the last send) and their
    delivery pipelines finish; the epoch-drain loop itself guarantees the
    same epoch sequence for every layout.  ``inline=True`` runs the shards
    in-process (tests, debugging) — same protocol, no parallelism.
    """
    kwargs = {"duration": duration}
    kwargs.update(workload_kwargs or {})
    until = duration + drain
    farm = ShardedFarm(
        shards=shards,
        seed=seed,
        population=users,
        workload=E13_WORKLOAD,
        workload_kwargs=kwargs,
        vnodes=vnodes,
        epoch=epoch,
        world_config=e13_world_config(seed),
        profile=E13_PROFILE,
        inline=inline,
    )
    with farm:
        started = time.perf_counter()
        farm.run(until=until)
        rollup = farm.merged_rollup()
        wall = time.perf_counter() - started
        fingerprint = farm.merged_fingerprint()
    envelopes = sum(load.envelopes_out for load in rollup.loads)
    return ShardedRunResult(
        shards=shards,
        population=users,
        tenants=rollup.tenants,
        receipts=rollup.receipts,
        delivered=rollup.delivered,
        envelopes=envelopes,
        undelivered_envelopes=rollup.undelivered_envelopes,
        virtual_seconds=until,
        wall_seconds=wall,
        alerts_per_wall_second=(
            rollup.delivered / wall if wall > 0 else float("nan")
        ),
        latency=summarize(rollup.latencies),
        counts=dict(rollup.counts),
        merged_fingerprint=fingerprint,
        placement_summary=rollup.placement.summary(),
        per_shard_events=dict(rollup.placement.per_shard_events),
    )


@dataclass
class ShardedComparisonResult:
    """The E13 sweep: one result per shard count, plus the oracle verdict."""

    results: list[ShardedRunResult]
    invariance: "OracleReport"

    @property
    def baseline(self) -> ShardedRunResult:
        return self.results[0]

    def speedup(self, result: ShardedRunResult) -> float:
        base = self.baseline.alerts_per_wall_second
        if base <= 0:
            return float("nan")
        return result.alerts_per_wall_second / base


def run_sharded_comparison(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    users: int = 100_000,
    seed: int = 0,
    duration: float = 600.0,
    epoch: float = 60.0,
    drain: float = 240.0,
    workload_kwargs: Optional[dict] = None,
    inline: bool = False,
) -> ShardedComparisonResult:
    """Measure every layout in ``shard_counts`` and audit invariance.

    The first entry is the speedup baseline (conventionally 1).  The
    returned :class:`~repro.testkit.oracle.OracleReport` compares the
    *measured* runs — no extra simulation — so a fingerprint mismatch in a
    real sweep is caught, not just in the small test-tier worlds.
    """
    from repro.testkit.oracle import check_shard_count_invariance

    results = [
        run_sharded_throughput(
            shards=count,
            users=users,
            seed=seed,
            duration=duration,
            epoch=epoch,
            drain=drain,
            workload_kwargs=workload_kwargs,
            inline=inline,
        )
        for count in shard_counts
    ]
    return ShardedComparisonResult(
        results=results,
        invariance=check_shard_count_invariance(results=results),
    )
