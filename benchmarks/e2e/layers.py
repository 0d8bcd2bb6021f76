"""The one table that assigns every source file to a ledger layer.

Layers are named after the modules they cover.  The traced pass
(:mod:`ledger`) charges each profiled function's self time and calls to
the layer owning its file; code outside ``src/repro`` (stdlib, numpy,
builtins, pickle/pipes and the benchmark's own driver code) is
``runtime.other``, and garbage-collector pauses are ``runtime.gc``.

The table is explicit, file by file: a module added under ``src/repro``
belongs to no layer until someone decides which one, and
``test_bench_e2e.py`` fails until they do.
"""

from __future__ import annotations

from pathlib import Path

#: Repository root (this file lives in ``benchmarks/e2e``).
REPO_ROOT = Path(__file__).resolve().parents[2]
#: The package the ledger attributes.
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

_PACKAGE_MARKER = "/src/repro/"

RUNTIME_GC = "runtime.gc"
RUNTIME_OTHER = "runtime.other"

#: layer -> files (relative to ``src/repro``).  Order is presentation
#: order: kernel first, then the delivery path source -> user, then the
#: deployment layers around it.
_TABLE: dict[str, tuple[str, ...]] = {
    "sim.scheduler": (
        "sim/__init__.py", "sim/clock.py", "sim/kernel.py", "sim/pool.py",
        "sim/scheduler.py", "sim/wheel.py",
    ),
    "sim.process": ("sim/events.py", "sim/process.py"),
    "sim.stores": ("sim/stores.py",),
    "sim.rng": ("sim/rng.py",),
    # Everything that *originates* alerts: the generic sources, the
    # paper's Aladdin/WISH producers, the sender-side baseline
    # strategies, and the experiment/workload modules whose emitter
    # processes run inside the kernel (E13's sender lives here).
    "sources": (
        "sources/__init__.py", "sources/base.py", "sources/desktop.py",
        "sources/portal.py", "sources/proxy.py", "sources/webserver.py",
        "sources/webstore.py",
        "aladdin/__init__.py", "aladdin/devices.py", "aladdin/gateway.py",
        "aladdin/networks.py", "aladdin/remote_admin.py",
        "aladdin/replication.py", "aladdin/scenario.py", "aladdin/sss.py",
        "wish/__init__.py", "wish/alerts.py", "wish/client.py",
        "wish/floorplan.py", "wish/radio.py", "wish/server.py",
        "baselines/__init__.py", "baselines/email_only.py",
        "baselines/redundant.py", "baselines/simba_strategy.py",
        "experiments/__init__.py", "experiments/ablations.py",
        "experiments/adversarial.py", "experiments/aladdin_e2e.py",
        "experiments/chaos.py", "experiments/delivery_comparison.py",
        "experiments/failover.py", "experiments/fault_tolerance.py",
        "experiments/latency.py", "experiments/portal_scale.py",
        "experiments/sharded.py", "experiments/storm.py",
        "experiments/wish_e2e.py",
        "workloads/__init__.py", "workloads/arrivals.py",
        "workloads/faultload.py", "workloads/portal_log.py",
    ),
    "net": (
        "net/__init__.py", "net/adversary.py", "net/channel.py",
        "net/email.py", "net/im.py", "net/message.py", "net/presence.py",
        "net/sms.py",
    ),
    "clients": (
        "clients/__init__.py", "clients/automation.py", "clients/dialogs.py",
        "clients/email_client.py", "clients/im_client.py",
        "clients/screen.py", "core/managers.py", "core/monkey.py",
    ),
    "core.endpoint": ("core/endpoint.py", "core/user_endpoint.py"),
    "core.pipeline": (
        "core/aggregator.py", "core/alert.py", "core/classifier.py",
        "core/delivery_modes.py", "core/filters.py", "core/pipeline.py",
        "core/subscription.py", "core/xml_codec.py",
    ),
    "core.router": ("core/addresses.py", "core/router.py"),
    "core.log": ("core/pessimistic_log.py",),
    "core.buddy": (
        "core/buddy.py", "core/host.py", "core/rejuvenation.py",
        "core/stabilizer.py", "core/watchdog.py",
    ),
    "core.admission": ("core/admission.py",),
    "core.replication": (
        "core/replication.py", "core/stabilizing.py", "sim/link.py",
    ),
    "core.farm": ("core/farm.py", "world.py"),
    "core.shard": ("core/shard.py",),
    # The audit and observation machinery: chaos harness, oracle, fault
    # injector, reports, tracing.
    "testkit": (
        "testkit/__init__.py", "testkit/bugs.py", "testkit/generator.py",
        "testkit/harness.py", "testkit/oracle.py", "testkit/parallel.py",
        "testkit/schedule.py", "testkit/shrink.py", "testkit/sweep.py",
        "testkit/trace_oracle.py", "sim/failures.py",
        "metrics/__init__.py", "metrics/admission_report.py",
        "metrics/adversarial_report.py", "metrics/collector.py",
        "metrics/failover_report.py", "metrics/invariant_report.py",
        "metrics/recovery_report.py", "metrics/reports.py",
        "metrics/shard_report.py", "metrics/stats.py", "metrics/timeline.py",
        "metrics/trace_report.py",
        "obs/__init__.py", "obs/render.py", "obs/trace.py",
    ),
    RUNTIME_GC: (),
    # Import-time glue with no per-alert work rides with the runtime.
    RUNTIME_OTHER: (
        "__init__.py", "__main__.py", "errors.py", "core/__init__.py",
    ),
}

#: Layer names, in presentation order.
LAYERS: tuple[str, ...] = tuple(_TABLE)

#: file (relative to ``src/repro``, posix) -> layer.
FILE_LAYER: dict[str, str] = {
    path: layer for layer, paths in _TABLE.items() for path in paths
}


def duplicate_assignments() -> list[str]:
    """Files listed under more than one layer (must be empty)."""
    seen: set[str] = set()
    duplicates = []
    for paths in _TABLE.values():
        for path in paths:
            if path in seen:
                duplicates.append(path)
            seen.add(path)
    return duplicates


def package_files() -> list[str]:
    """Every ``.py`` file under ``src/repro``, relative and posix."""
    return sorted(
        path.relative_to(PACKAGE_ROOT).as_posix()
        for path in PACKAGE_ROOT.rglob("*.py")
    )


def layer_of(filename: str) -> str:
    """The layer charged for code in ``filename`` (a ``co_filename``).

    Files outside the package — and package files the table does not
    know, which the test suite reports — are ``runtime.other``.
    """
    index = filename.rfind(_PACKAGE_MARKER)
    if index < 0:
        return RUNTIME_OTHER
    relative = filename[index + len(_PACKAGE_MARKER):]
    return FILE_LAYER.get(relative, RUNTIME_OTHER)
