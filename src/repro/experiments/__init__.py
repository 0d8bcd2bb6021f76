"""Experiment harnesses: one per result in the paper's evaluation (§5).

Each ``run_*`` function builds a world, executes the experiment, and returns
a result object whose fields correspond to the numbers the paper reports.

The one experiment index — id, claim, run function, renderer, the pairs
the result must satisfy, CLI flags — is :data:`repro.__main__.EXPERIMENTS`
(``python -m repro list``).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adversarial": (
        "AdversarialResult",
        "AdversarialVariant",
        "adversarial_schedule",
        "run_adversarial_comparison",
    ),
    ".ablations": (
        "AckTimeoutPoint",
        "FarmThroughputPoint",
        "LogLatencyPoint",
        "run_ack_timeout_sweep",
        "run_daemon_saturation_sweep",
        "run_farm_throughput_sweep",
        "run_log_latency_sweep",
    ),
    ".aladdin_e2e": ("AladdinE2EResult", "run_aladdin_disarm"),
    ".chaos": ("ChaosExperimentResult", "run_chaos_experiment"),
    ".delivery_comparison": (
        "ComparisonResult",
        "StrategyMetrics",
        "run_comparison",
    ),
    ".failover": (
        "FailoverResult",
        "FailoverVariant",
        "crash_schedule",
        "run_failover_comparison",
    ),
    ".fault_tolerance": (
        "FaultMonthResult",
        "HAFeatures",
        "run_fault_month",
        "run_ha_ablation",
    ),
    ".latency": ("run_ack_roundtrip", "run_im_one_way", "run_proxy_routing"),
    ".portal_scale": ("PortalScaleResult", "run_portal_log"),
    ".sharded": (
        "ShardedComparisonResult",
        "ShardedRunResult",
        "run_sharded_comparison",
        "run_sharded_throughput",
    ),
    ".storm": (
        "StormResult",
        "StormVariant",
        "run_storm_comparison",
        "storm_schedule",
    ),
    ".wish_e2e": (
        "WishE2EResult",
        "run_wish_accuracy_sweep",
        "run_wish_location",
    ),
})
