"""Experiment harnesses: one per result in the paper's evaluation (§5).

Each ``run_*`` function builds a world, executes the experiment, and returns
a result object whose fields correspond to the numbers the paper reports.

The one experiment index — id, claim, run function, renderer, the pairs
the result must satisfy, CLI flags — is :data:`repro.__main__.EXPERIMENTS`
(``python -m repro list``).
"""

from repro.experiments.adversarial import (
    AdversarialResult,
    AdversarialVariant,
    adversarial_schedule,
    run_adversarial_comparison,
)

from repro.experiments.ablations import (
    AckTimeoutPoint,
    FarmThroughputPoint,
    LogLatencyPoint,
    run_ack_timeout_sweep,
    run_daemon_saturation_sweep,
    run_farm_throughput_sweep,
    run_log_latency_sweep,
)
from repro.experiments.aladdin_e2e import AladdinE2EResult, run_aladdin_disarm
from repro.experiments.chaos import (
    ChaosExperimentResult,
    run_chaos_experiment,
)
from repro.experiments.delivery_comparison import (
    ComparisonResult,
    StrategyMetrics,
    run_comparison,
)
from repro.experiments.failover import (
    FailoverResult,
    FailoverVariant,
    crash_schedule,
    run_failover_comparison,
)
from repro.experiments.fault_tolerance import (
    FaultMonthResult,
    HAFeatures,
    run_fault_month,
    run_ha_ablation,
)
from repro.experiments.latency import (
    run_ack_roundtrip,
    run_im_one_way,
    run_proxy_routing,
)
from repro.experiments.portal_scale import PortalScaleResult, run_portal_log
from repro.experiments.sharded import (
    ShardedComparisonResult,
    ShardedRunResult,
    run_sharded_comparison,
    run_sharded_throughput,
)
from repro.experiments.storm import (
    StormResult,
    StormVariant,
    run_storm_comparison,
    run_storm_sweep,
    storm_schedule,
)
from repro.experiments.wish_e2e import (
    WishE2EResult,
    run_wish_accuracy_sweep,
    run_wish_location,
)

__all__ = [
    "AckTimeoutPoint",
    "AdversarialResult",
    "AdversarialVariant",
    "AladdinE2EResult",
    "ChaosExperimentResult",
    "FarmThroughputPoint",
    "LogLatencyPoint",
    "run_ack_timeout_sweep",
    "run_daemon_saturation_sweep",
    "run_farm_throughput_sweep",
    "run_log_latency_sweep",
    "ComparisonResult",
    "FailoverResult",
    "FailoverVariant",
    "FaultMonthResult",
    "HAFeatures",
    "PortalScaleResult",
    "ShardedComparisonResult",
    "ShardedRunResult",
    "StormResult",
    "StormVariant",
    "StrategyMetrics",
    "WishE2EResult",
    "adversarial_schedule",
    "run_ack_roundtrip",
    "run_adversarial_comparison",
    "run_aladdin_disarm",
    "run_chaos_experiment",
    "crash_schedule",
    "run_comparison",
    "run_failover_comparison",
    "run_fault_month",
    "run_ha_ablation",
    "run_im_one_way",
    "run_portal_log",
    "run_proxy_routing",
    "run_sharded_comparison",
    "run_sharded_throughput",
    "run_storm_comparison",
    "run_storm_sweep",
    "run_wish_accuracy_sweep",
    "run_wish_location",
    "storm_schedule",
]
