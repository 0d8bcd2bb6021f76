"""Scaled-down runs of every experiment harness, held to the registry's claims.

``python -m repro <id>`` runs the full-size versions; these tests keep the
harness code covered in the regular suite with small parameters and judge
each small run by the same ``holds`` pairs (:data:`repro.__main__.EXPERIMENTS`)
wherever the pair does not depend on the run's size.
"""

from dataclasses import replace

from repro.__main__ import EXPERIMENTS
from repro.experiments import (
    HAFeatures,
    run_ack_roundtrip,
    run_aladdin_disarm,
    run_comparison,
    run_fault_month,
    run_im_one_way,
    run_portal_log,
    run_proxy_routing,
    run_wish_location,
)
from repro.experiments.fault_tolerance import run_logging_window
from repro.sim.clock import DAY, MINUTE
from repro.workloads.faultload import FaultloadSpec


def broken(key, result, *about):
    """The row's claims that ``result`` breaks, as ``main`` would print them.

    A small run cannot be held to a row's full-size pairs (E6's fault
    counts are the month's, E7's farm is 500 tenants): ``about`` narrows
    the row to the pairs whose statement mentions one of the phrases.
    Every phrase must select something, so a reworded claim fails here
    instead of silently dropping out of the test.
    """
    row = EXPERIMENTS[key]
    if about:
        for phrase in about:
            assert any(phrase in statement for statement, _ in row.holds), (
                f"{key} has no claim about {phrase!r}"
            )
        row = replace(
            row,
            holds=tuple(
                pair for pair in row.holds
                if any(phrase in pair[0] for phrase in about)
            ),
        )
    return row.broken(result)


class TestLatencyHarnesses:
    def test_e1_small(self):
        summary = run_im_one_way(n_alerts=40, seed=5)
        assert summary.count == 40
        assert broken("e1", summary) == []

    def test_e2_small(self):
        summary = run_ack_roundtrip(n_alerts=40, seed=5)
        assert summary.count == 40
        assert broken("e2", summary) == []

    def test_e3_small(self):
        summary = run_proxy_routing(n_changes=20, seed=5)
        assert summary.count == 20
        assert broken("e3", summary) == []

    def test_e4_small(self):
        result = run_aladdin_disarm(n_presses=10, seed=5)
        assert result.presses == 10
        assert broken("e4", result) == []

    def test_e5_small(self):
        result = run_wish_location(n_moves=10, seed=5)
        assert result.moves == 10
        assert broken("e5", result) == []


SMALL_SPEC = FaultloadSpec(
    duration=4 * DAY,
    im_outages=2,
    client_logouts=3,
    client_hangs=2,
    mab_faults=6,
    known_dialogs=2,
    unknown_dialogs=1,
    power_outages=1,
    memory_leaks=1,
)


class TestFaultHarness:
    def test_e6_small_week(self):
        result = run_fault_month(seed=3, spec=SMALL_SPEC,
                                 alert_period=15 * MINUTE)
        # The counts follow the spec, not the paper's month.
        assert result.client_restarts == 2
        assert result.unrecovered == 2  # 1 power + 1 unknown dialog
        assert broken(
            "e6", result, "4 to 103 minutes", "delivery ratio", "latency"
        ) == []

    def test_e9_watchdog_ablation_collapses(self):
        month = {
            features.label(): run_fault_month(
                seed=3,
                spec=SMALL_SPEC,
                alert_period=15 * MINUTE,
                features=features,
            )
            for features in (HAFeatures(), HAFeatures(watchdog=False))
        }
        assert broken(
            "e9", {"month": month},
            "the full stack delivers", "without the watchdog",
        ) == []

    def test_logging_window_guarantee(self):
        logged = run_logging_window(seed=2, n_alerts=6, logging_enabled=True)
        unlogged = run_logging_window(seed=2, n_alerts=6,
                                      logging_enabled=False)
        assert broken(
            "e9", {"logged": logged, "unlogged": unlogged}, "crash window"
        ) == []


class TestScaleAndComparison:
    def test_e7_replay_only(self):
        result = run_portal_log(
            seed=2, full_scale_days=1, replay_users=4,
            replay_alerts_target=60,
        )
        assert result.replay_users == 4
        assert broken(
            "e7", result, "alerts/day", "recipients/day", "replay delivery",
            "replay median",
        ) == []

    def test_e8_small(self):
        assert broken("e8", run_comparison(n_alerts=60, seed=2)) == []
