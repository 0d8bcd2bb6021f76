"""The oracle's verdicts on a fixed corpus, pinned byte for byte.

For every case below, the ``oracle_corpus`` row of :data:`tests.repin.PINS`
holds the sorted ``str(v)`` of ``violations`` and of ``trace_violations``
plus the full ``checked`` and ``info`` dicts to
``tests/data/oracle/reports.json``.  A refactor of the audit must reproduce
all of it — same strings, same counters, same keys present only on
replicated / hardened / traced runs.  A PR that *means* to change a verdict
re-pins with ``python tests/repin.py --write`` and says so.
``test_verdict_equals_the_parents`` names the case whose verdict moved; the
row and the per-case test share one run of each case.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.core.admission import AdmissionConfig
from repro.sim.clock import MINUTE
from repro.testkit import (
    ChaosRunConfig,
    StormConfig,
    chaos_sweep,
    drop_retry_stages,
    replay_reproducer,
    run_chaos,
    silent_drop_stages,
)
from tests.test_chaos_oracle import CONFIG, TOTAL_OUTAGE, amnesia_stages
from tests.test_chaos_regressions import CHAOS_DIR, PINNED

CORPUS = Path(__file__).parent / "data" / "oracle" / "reports.json"

HARDENED_STORM = ChaosRunConfig(
    seed=0, n_users=2, duration=10 * MINUTE, settle=10 * MINUTE,
    storm=StormConfig(), admission=AdmissionConfig.hardened(),
)


def replicated_trial():
    sweep = chaos_sweep(
        seed=0, trials=1, n_users=2, duration=45 * MINUTE,
        settle=15 * MINUTE, replication=True, shrink_failures=False,
        jobs=1, trace=True,
    )
    return sweep.trials[0].report


#: case name → a traced run (the untraced verdict is the same report minus
#: the trace keys, which ``test_trace_seed_smoke`` asserts separately).
CASES = {
    **{
        f"pin:{path.stem}": (lambda p=path: replay_reproducer(p, trace=True))
        for path in PINNED
    },
    "pin:handoff_failover": lambda: replay_reproducer(
        CHAOS_DIR.parent / "trace" / "handoff_failover.json", trace=True
    ),
    "total_outage:real": lambda: run_chaos(TOTAL_OUTAGE, CONFIG, trace=True),
    "total_outage:silent_drop": lambda: run_chaos(
        TOTAL_OUTAGE, CONFIG, stage_factory=silent_drop_stages, trace=True
    ),
    "total_outage:drop_retry": lambda: run_chaos(
        TOTAL_OUTAGE, CONFIG, stage_factory=drop_retry_stages, trace=True
    ),
    "total_outage:abandon_amnesia": lambda: run_chaos(
        TOTAL_OUTAGE, CONFIG, stage_factory=amnesia_stages, trace=True
    ),
    "adversarial_pin:naive_transport": lambda: replay_reproducer(
        CHAOS_DIR / "adversarial_ship_link_naive.json",
        overrides={"transport": "naive"}, trace=True,
    ),
    "failover_storm_pin:silent_drop": lambda: replay_reproducer(
        CHAOS_DIR / "failover_storm_fenced.json",
        stage_factory=silent_drop_stages, trace=True,
    ),
    "hardened_storm:untraced": lambda: run_chaos([], HARDENED_STORM),
    "hardened_storm:traced": lambda: run_chaos([], HARDENED_STORM, trace=True),
    "replicated_trial:seed0": replicated_trial,
}


def snapshot(report) -> dict:
    oracle = report.oracle
    return {
        "violations": sorted(str(v) for v in oracle.violations),
        "trace_violations": sorted(str(v) for v in oracle.trace_violations),
        "checked": dict(oracle.checked),
        "info": dict(oracle.info),
    }


@functools.cache
def verdict(case: str) -> dict:
    """``snapshot`` of one run of ``CASES[case]``."""
    return snapshot(CASES[case]())


def test_corpus_covers_exactly_the_cases():
    assert set(json.loads(CORPUS.read_text())) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_equals_the_parents(case):
    assert verdict(case) == json.loads(CORPUS.read_text())[case]
