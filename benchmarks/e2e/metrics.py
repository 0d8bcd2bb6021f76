"""The metric catalogue: names, units, directions, bounds, and how each
value is computed from what a worker reports.

Two families.  *End-to-end* metrics are what a user of the system (or
of the simulator) sees; each has a bound by which its median may worsen
before a change counts as a regression, or is *exact* — a pure function
of the seed that must repeat bit for bit.  *Per-layer* metrics come from
the traced pass and explain the end-to-end ones; ``moves`` records,
before anything is optimised, which end-to-end metric each should move
and on which workloads.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from layers import LAYERS, RUNTIME_GC

WORKLOADS: dict[str, str] = {
    "farm_steady": (
        "500 pre-built tenants on one kernel, Poisson IM-with-ack happy "
        "path: per-alert hop cost does the work, materialization, bridge, "
        "replication and admission do none"
    ),
    "shard_fanout_cold": (
        "E13 over 2 process shards, ~1 alert per lazily materialized "
        "tenant: materialization, epoch bridge, pipes and GC over a large "
        "heap dominate, the per-alert hop path does not"
    ),
    "farm_chaos_replicated": (
        "80 replicated tenants under a generated fault schedule: recovery "
        "replay, retries, log shipping, failover and idle timers, the "
        "paths a happy-path shortcut could make slower"
    ),
    "farm_storm_admission": (
        "4-source burst storm against hardened admission: most arrivals "
        "end coalesced or suppressed before routing, so the reject path "
        "does the work and the router little"
    ),
}

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric's median over a
    #: set of seeds may worsen (``BENCHMARK.json``); None = not listed
    #: there, because its value swings with the seed (see the README,
    #: "What the driver gates").
    bound: float | None
    definition: str
    #: A pure function of the seed: at one seed it must repeat bit for
    #: bit, and ``compare.py`` allows it no slack at all.
    exact: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "alerts_per_wall_s", "alerts/s", "higher", 0.25,
        "offered alerts / wall seconds of the timed run, tracing off",
    ),
    EndToEnd(
        "cpu_s_per_kalert", "s", "lower", 0.25,
        "user+sys CPU of the workload process and its shard workers over "
        "the timed run, per 1000 offered alerts",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.08,
        "peak RSS of the workload process plus its largest shard worker",
    ),
    EndToEnd(
        "rss_kb_per_tenant", "kB", "lower", 0.08,
        "(peak RSS - RSS after imports), summed over tenant-holding "
        "processes, / tenants materialized",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "user+sys CPU of the workload process and its shard workers from "
        "process start to timed-run start: interpreter, imports, input "
        "generation, world/farm construction, launch warm-up, worker spawn",
    ),
    EndToEnd(
        "sim_latency_p50_s", "sim-s", "lower", None,
        "emission to first receipt on the user's device, simulated "
        "seconds, median over delivered alerts",
        exact=True,
    ),
    EndToEnd(
        "sim_latency_p99_s", "sim-s", "lower", None,
        "same, 99th percentile (nearest rank)",
        exact=True,
    ),
    EndToEnd(
        "delivered_ratio", "ratio", "higher", 0.15,
        "unique offered alerts received / offered",
        exact=True,
    ),
    EndToEnd(
        "on_time_ratio", "ratio", "higher", None,
        "received within 60 sim-s of emission / offered; undelivered or "
        "refused counts as late",
        exact=True,
    ),
    # Always 0 on a correct run and a listed metric is never 0; the result
    # line's ``failed`` / ``attempted`` carry it instead.
    EndToEnd(
        "failed_ratio", "ratio", "lower", None,
        "(alerts without a terminal accounted outcome + alerts named in "
        "oracle violations + offered alerts of crashed reps) / offered",
        exact=True,
    ),
)

#: The metrics ``BENCHMARK.json`` lists, and the ones that are functions
#: of the seed alone (also enforced through the digest; see the README,
#: "What the driver gates").
GATED = tuple(m.name for m in END_TO_END if m.bound is not None)
EXACT = tuple(m.name for m in END_TO_END if m.exact)


#: Calibration-loop rate CPU times are scaled to: a round number near
#: this class of machine's unloaded speed, so corrected values read like
#: raw ones on a quiet box.
REFERENCE_EPS = 25_000_000.0


def quiet_wall(rep: dict) -> float:
    """Wall seconds of the timed run minus the time the hypervisor held
    the guest's busy vCPUs back (all of the steal when one process does
    the work, its per-worker share when shard workers do)."""
    return rep["wall_s"] - rep["steal_s"] / max(1, len(rep["workers"]))


def end_to_end(rep: dict) -> dict[str, float]:
    """Every end-to-end metric of one timed repetition.

    The timed run is corrected for what the host did meanwhile (see
    ``worker.py``): wall by the steal it reports, CPU by the calibration
    loop's concurrent speed.  The raw readings stay in ``rep``.
    """
    offered = rep["offered"]
    workers = rep["workers"]
    cpu = rep["cpu_s"] + sum(w["cpu_s"] for w in workers)
    peak = rep["peak_rss_kb"]
    if workers:
        # Tenants live in the shard workers, forked after imports.
        resident = sum(
            w["peak_rss_kb"] - rep["imports_rss_kb"] for w in workers
        )
        peak += max(w["peak_rss_kb"] for w in workers)
    else:
        resident = rep["peak_rss_kb"] - rep["imports_rss_kb"]
    return {
        "alerts_per_wall_s": offered / quiet_wall(rep),
        "cpu_s_per_kalert": (
            1000.0 * cpu * rep["host_cpu_eps"] / REFERENCE_EPS / offered
        ),
        "peak_rss_mb": peak / 1024.0,
        "rss_kb_per_tenant": resident / rep["tenants"],
        "setup_s": rep["setup_cpu_s"],
        "sim_latency_p50_s": rep["sim_latency_p50_s"],
        "sim_latency_p99_s": rep["sim_latency_p99_s"],
        "delivered_ratio": rep["received"] / offered,
        "on_time_ratio": rep["on_time"] / offered,
        "failed_ratio": rep["failed"] / offered,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

SPEED = ("alerts_per_wall_s", "cpu_s_per_kalert")
STEADY_CHAOS = ("farm_steady", "farm_chaos_replicated")
HOP_LAYERS = ("core.pipeline", "core.router", "core.endpoint", "net", "core.log")


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metrics this one should move...
    moves: tuple[str, ...]
    #: ...and the workloads on which it should.
    on: tuple[str, ...]
    #: A count (or a ratio of counts) the program determines: it repeats
    #: exactly for a seed, so two commits compare exactly.
    exact: bool = False


def _layer_moves(layer: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Predicted effect of a layer's self time, by the issue's table."""
    if layer in HOP_LAYERS:
        # No move expected from core.router on the storm workload: most
        # arrivals never reach routing there.
        return ("alerts_per_wall_s",), ("farm_steady",)
    if layer in ("clients", "core.buddy"):
        return ("cpu_s_per_kalert",), STEADY_CHAOS
    if layer == "core.admission":
        return ("alerts_per_wall_s", "on_time_ratio"), ("farm_storm_admission",)
    if layer == "core.replication":
        return ("alerts_per_wall_s",), ("farm_chaos_replicated",)
    if layer in ("core.shard", "runtime.other"):
        return ("alerts_per_wall_s",), ("shard_fanout_cold",)
    if layer == "core.farm":
        return ("alerts_per_wall_s", "setup_s"), ("shard_fanout_cold", "farm_steady")
    if layer == RUNTIME_GC:
        return ("alerts_per_wall_s", "peak_rss_mb"), ("shard_fanout_cold", "farm_steady")
    if layer == "testkit":
        return ("alerts_per_wall_s",), ("farm_chaos_replicated", "farm_storm_admission")
    return SPEED, ALL


def _catalogue() -> tuple[PerLayer, ...]:
    entries = []
    for layer in LAYERS:
        moves, on = _layer_moves(layer)
        entries.append(
            PerLayer(f"{layer}.self_us_per_alert", "us", "lower", moves, on)
        )
        # Interpreter-internal call counts (stdlib, collector) are not
        # promised to repeat; the program's own are.
        entries.append(
            PerLayer(f"{layer}.calls_per_alert", "calls/alert", "lower", moves,
                     on, exact=not layer.startswith("runtime."))
        )
    steady = ("farm_steady",)
    shard = ("shard_fanout_cold",)
    chaos = ("farm_chaos_replicated",)
    storm = ("farm_storm_admission",)
    wall = ("alerts_per_wall_s",)
    tenancy = ("setup_s", "alerts_per_wall_s", "rss_kb_per_tenant")
    recovery = ("alerts_per_wall_s", "delivered_ratio", "sim_latency_p99_s")
    heap = ("alerts_per_wall_s", "peak_rss_mb")
    # name, unit, better, moves, on, exact
    named = [
        ("sim.process.resumes_per_alert", "1/alert", "lower", SPEED, ALL, True),
        ("sim.process.spawns_per_alert", "1/alert", "lower", SPEED, ALL, True),
        ("sim.scheduler.events_per_alert", "1/alert", "lower", SPEED, ALL, True),
        ("sim.scheduler.timeouts_per_alert", "1/alert", "lower", SPEED, ALL, True),
        ("sim.scheduler.cancelled_per_alert", "1/alert", "lower", SPEED, ALL, True),
        ("core.router.fallback_ratio", "ratio", "lower", wall, steady, True),
        ("core.log.appends_per_alert", "1/alert", "lower", wall, steady, True),
        ("core.farm.materialize_ms_per_tenant", "ms", "lower", tenancy,
         steady + shard, False),
        ("core.farm.tenants", "count", "lower", tenancy, steady + shard, True),
        ("core.shard.coordinator_share", "ratio", "lower", wall, shard, False),
        ("core.shard.envelopes_per_alert", "1/alert", "lower", wall, shard, True),
        ("core.shard.epochs", "count", "lower", wall, shard, True),
        ("core.shard.imbalance", "ratio", "lower", wall, shard, True),
        ("core.shard.parallel_efficiency", "ratio", "higher", wall, shard, False),
        ("core.replication.ships_per_alert", "1/alert", "lower", recovery, chaos, True),
        ("core.replication.resends_per_kship", "1/kship", "lower", recovery, chaos, True),
        ("core.replication.promotions", "count", "lower", recovery, chaos, True),
        ("core.pipeline.retry_ratio", "ratio", "lower", recovery, chaos, True),
        ("core.pipeline.dead_letter_ratio", "ratio", "lower", recovery, chaos, True),
        ("core.log.replayed", "count", "lower", recovery, chaos, True),
        ("core.admission.absorbed_ratio", "ratio", "higher",
         ("alerts_per_wall_s", "on_time_ratio"), storm, True),
        ("runtime.gc.share", "ratio", "lower", heap, shard + steady, False),
        ("runtime.gc.gen2_collections", "count", "lower", heap, shard + steady, False),
        # Cost of the instrument itself; predicts nothing.
        ("trace.overhead_x", "x", "lower", (), (), False),
    ]
    entries += [PerLayer(*row) for row in named]
    return tuple(entries)


PER_LAYER: tuple[PerLayer, ...] = _catalogue()

#: Journal kinds that dead-letter an alert on the record: the oracle's
#: ``DEAD_LETTER_KINDS`` plus admission's ``dead_lettered`` (spelled out
#: because the parent process never imports ``repro``).
_DEAD_LETTER_KINDS = (
    "rejected", "unmapped", "filtered", "no_subscribers",
    "delivery_abandoned", "dead_lettered",
)
_ABSORBED_KINDS = ("coalesced", "shed", "rate_limited", "dedup_suppressed")


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    """Every per-layer metric, from a traced repetition and the untraced
    one of the same size that ran beside it."""
    run = traced["ledger"]["run"]
    setup = traced["ledger"]["setup"]
    offered = traced["offered"]
    counts = traced["counts"]
    values: dict[str, float] = {}
    for layer, row in run["layers"].items():
        values[f"{layer}.self_us_per_alert"] = 1e6 * row["self_s"] / offered
        values[f"{layer}.calls_per_alert"] = row["calls"] / offered

    def calls(*probes: str) -> int:
        return sum(run["probes"][probe]["calls"] for probe in probes)

    def journal(*kinds: str) -> float:
        return sum(counts.get(f"journal.{kind}", 0) for kind in kinds)

    timeouts = calls("wheel.timeout", "heap.timeout")
    values["sim.process.resumes_per_alert"] = (
        calls("process.resume", "process.step") / offered
    )
    values["sim.process.spawns_per_alert"] = calls("process.spawn") / offered
    # A pooled timeout is queued inside timeout(); a constructed one goes
    # through schedule() and is already counted there.
    values["sim.scheduler.events_per_alert"] = (
        calls("wheel.schedule", "heap.schedule")
        + timeouts - calls("timeout.construct")
    ) / offered
    values["sim.scheduler.timeouts_per_alert"] = timeouts / offered
    values["sim.scheduler.cancelled_per_alert"] = (
        calls("wheel.cancelled", "heap.cancelled") / offered
    )
    received = traced["received"]
    values["core.router.fallback_ratio"] = (
        counts.get("fallbacks", 0) / received if received else 0.0
    )
    values["core.log.appends_per_alert"] = counts.get("log_entries", 0) / offered

    # Tenants are materialized in set-up (farm_steady), lazily in the run
    # (shards) or inside run_chaos; exactly one probe sees them.
    materialize = 0.0
    for phase in (run, setup):
        lazy = phase["probes"]["shard.tenant"]
        eager = phase["probes"]["farm.add_user"]
        materialize += (lazy if lazy["calls"] else eager)["inclusive_s"]
    values["core.farm.materialize_ms_per_tenant"] = (
        1e3 * materialize / traced["tenants"]
    )
    values["core.farm.tenants"] = traced["tenants"]

    coordinator = (
        run["probes"]["shard.run"]["inclusive_s"]
        - run["probes"]["shard.worker_epoch"]["inclusive_s"]
    )
    values["core.shard.coordinator_share"] = max(0.0, coordinator) / run["wall_s"]
    values["core.shard.envelopes_per_alert"] = (
        counts.get("envelopes_in", 0) / offered
    )
    values["core.shard.epochs"] = counts.get("epochs", 0)
    values["core.shard.imbalance"] = counts.get("imbalance", 0.0)
    workers = untraced["workers"]
    values["core.shard.parallel_efficiency"] = (
        sum(w["cpu_s"] for w in workers) / (quiet_wall(untraced) * len(workers))
        if workers else 0.0
    )

    ships = counts.get("ships", 0)
    values["core.replication.ships_per_alert"] = ships / offered
    values["core.replication.resends_per_kship"] = (
        1000.0 * counts.get("resends", 0) / ships if ships else 0.0
    )
    values["core.replication.promotions"] = counts.get("promotions", 0)
    values["core.pipeline.retry_ratio"] = journal("retry_scheduled") / offered
    values["core.pipeline.dead_letter_ratio"] = (
        journal(*_DEAD_LETTER_KINDS) / offered
    )
    values["core.log.replayed"] = journal("recovery_replay")
    values["core.admission.absorbed_ratio"] = (
        sum(counts.get(f"admission.{kind}", 0) for kind in _ABSORBED_KINDS)
        / offered
    )
    values["runtime.gc.share"] = run["gc"]["wall_s"] / run["wall_s"]
    values["runtime.gc.gen2_collections"] = run["gc"]["collections"][2]
    values["trace.overhead_x"] = quiet_wall(traced) / quiet_wall(untraced)
    return values
