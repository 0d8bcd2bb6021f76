"""Command-line entry point: run any paper experiment and print its table.

Usage::

    python -m repro list           # show available experiments
    python -m repro e1 [--seed N]  # run one experiment (e1..e14, a1..a4)
    python -m repro all            # run E1-E8 (E9 is slow; run explicitly)
    python -m repro trace --reproducer <pinned.json>
                                   # replay traced; dump one alert's span
                                   # tree + latency attribution

:data:`EXPERIMENTS` is the one experiment index: id → claim, how to run
it, how to render the result, what the result must show for the claim to
hold, and which flags it understands.  A run whose result breaks one of
its row's ``holds`` pairs says so on stderr and exits 1; stdout is the
report either way.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

from repro import experiments as ex
from repro import metrics
from repro.metrics.reports import format_table


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment index."""

    claim: str
    #: ``run(seed=..., **flags)`` → result; ``render(result)`` → report.
    run: Callable[..., object]
    render: Callable[[object], str]
    #: What the result must show for the claim to stand, in reading order:
    #: ``(statement, predicate)`` pairs.  The statement is a format string
    #: over the result, so a false pair reports what was measured instead.
    holds: tuple[tuple[str, Callable[[Any], bool]], ...] = ()
    #: Flags understood besides ``--seed``, each passed to ``run`` by
    #: name; any other is a usage error.
    flags: tuple[str, ...] = ()
    #: Part of ``python -m repro all``.
    in_all: bool = False

    def broken(self, result) -> list[str]:
        """The statements ``result`` does not bear out, measured values
        filled in."""
        return [
            statement.format(result)
            for statement, predicate in self.holds
            if not predicate(result)
        ]


def _late(package, name: str, **bound) -> Callable[..., Any]:
    """``package.name``, looked up when called, with ``bound`` keywords
    (the call's own win, as with ``partial``).  A row names its functions
    without importing their modules, so ``list`` imports no experiment."""

    def call(*args, **kwargs):
        return getattr(package, name)(*args, **{**bound, **kwargs})

    return call


def _paper_table(title: str, *rows: tuple[str, str, str]):
    """Renderer for a paper-vs-measured table: each row is (metric, the
    paper's value, a format string applied to the result)."""

    def render(result) -> str:
        return format_table(
            ["metric", "paper", "measured"],
            [[metric, paper, measured.format(result)]
             for metric, paper, measured in rows],
            title=title,
        )

    return render


def _e6_table(result) -> str:
    fault_triggered = result.mdc_restarts - result.rejuvenations
    return format_table(
        ["category", "paper", "measured"],
        [
            ["IM downtimes", "5 (4-103 min)",
             f"{result.im_outages} ({min(result.im_outage_minutes):.0f}-"
             f"{max(result.im_outage_minutes):.0f} min)"],
            ["re-logons", "9", result.relogons],
            ["client kill-restarts", "9", result.client_restarts],
            ["MDC restarts (fault-triggered)", "36", fault_triggered],
            ["unrecovered", "3", result.unrecovered],
            ["delivery ratio", "—", f"{result.delivery_ratio:.4f}"],
        ],
        title="E6: one-month fault injection",
    )


def _run_e9(seed: int) -> dict:
    """The E6 month per variant label (``full-stack``, ``no-…``), and the
    targeted crash-after-ack window — a statistical month rarely hits it —
    with pessimistic logging on and off."""
    from repro.experiments.fault_tolerance import run_logging_window

    return dict(
        month={r.label: r for r in ex.run_ha_ablation(seed=seed)},
        logged=run_logging_window(seed=seed, logging_enabled=True),
        unlogged=run_logging_window(seed=seed, logging_enabled=False),
    )


def _e9_table(result: dict) -> str:
    rows = [
        [r.label, f"{r.delivery_ratio:.4f}", f"{r.im_path_ratio:.3f}"]
        for r in result["month"].values()
    ]
    for label, key in (("on", "logged"), ("off", "unlogged")):
        rows.append([f"(crash-after-ack, logging {label})",
                     f"acked-but-lost={result[key].acked_but_lost}", "—"])
    return format_table(
        ["variant", "delivered", "via IM"], rows, title="E9: HA ablation"
    )


def _run_e13(seed: int, shards: int | None = None, users: int = 100_000):
    if shards is None:
        shard_counts: tuple[int, ...] = (1, 2, 4)
    elif shards <= 1:
        shard_counts = (1,)
    else:
        shard_counts = (1, shards)
    return ex.run_sharded_comparison(
        shard_counts=shard_counts, users=users, seed=seed
    )


def _e10_report(result) -> str:
    return metrics.sweep_report(result.sweep)


def _sweep_table(title: str, *columns: tuple[str, str]):
    """Renderer for a sweep, one row per point: each column is (header, a
    format string applied to the point)."""

    def render(points) -> str:
        return format_table(
            [header for header, _ in columns],
            [[cell.format(point) for _, cell in columns] for point in points],
            title=title,
        )

    return render


def _run_a4(seed: int) -> dict:
    """A4's two sweeps: where one daemon saturates, how a farm scales."""
    return dict(
        daemon=ex.run_daemon_saturation_sweep(
            rates=(0.05, 0.1, 0.2, 0.4), seed=seed
        ),
        farm=ex.run_farm_throughput_sweep(
            user_counts=(1, 10, 50, 100), seed=seed
        ),
    )


_a4_daemon_table = _sweep_table(
    "A4: MAB single-daemon saturation sweep",
    ("offered rate", "{0.rate:.2f}/s"), ("alerts", "{0.offered}"),
    ("delivered", "{0.delivered}"), ("on-time(<60s)", "{0.on_time_ratio:.3f}"),
    ("median latency", "{0.latency.median:.1f} s"),
    ("p95 latency", "{0.latency.p95:.1f} s"),
)
_a4_farm_table = _sweep_table(
    "A4: BuddyFarm aggregate throughput sweep",
    ("users", "{0.users}"), ("offered", "{0.offered}"),
    ("delivered", "{0.delivered}"),
    ("aggregate rate", "{0.aggregate_rate:.2f}/s"),
    ("vs 1-daemon ceiling", "{0.ceiling_multiple:.1f}x"),
    ("on-time(<60s)", "{0.on_time_ratio:.3f}"),
    ("median latency", "{0.latency.median:.1f} s"),
)


def _a4_tables(result: dict) -> str:
    return (f"{_a4_daemon_table(result['daemon'])}\n\n"
            f"{_a4_farm_table(result['farm'])}")


_e8_strategies_table = _sweep_table(
    "E8: SIMBA vs baselines",
    ("strategy", "{0.name}"), ("delivered", "{0.delivery_ratio:.3f}"),
    ("critical on-time", "{0.critical_on_time_ratio:.3f}"),
    ("msgs/alert", "{0.messages_per_alert:.2f}"),
    ("median latency", "{0.latency.median:.1f} s"),
)


EXPERIMENTS = {
    "e1": Experiment(
        "one-way IM < 1 s",
        _late(ex, "run_im_one_way", n_alerts=300),
        _paper_table(
            "E1: one-way IM delivery (source -> MyAlertBuddy)",
            ("one-way IM, median", "< 1 s", "{0.median:.2f} s"),
            ("one-way IM, p90", "< 1 s", "{0.p90:.2f} s"),
        ),
        holds=(
            ("median one-way IM < 1 s (measured {0.median:.2f} s)",
             lambda s: s.median < 1.0),
            ("p90 one-way IM < 1 s (measured {0.p90:.2f} s)",
             lambda s: s.p90 < 1.0),
            ("mean < 2 s: an IM, not store-and-forward "
             "(measured {0.mean:.2f} s)", lambda s: s.mean < 2.0),
        ),
        in_all=True,
    ),
    "e2": Experiment(
        "logged ack ~1.5 s",
        _late(ex, "run_ack_roundtrip", n_alerts=300),
        _paper_table(
            "E2: logged-ack round trip",
            ("ack round trip, mean", "~1.5 s", "{0.mean:.2f} s"),
        ),
        holds=(
            ("1 s < mean ack round trip < 2.5 s (measured {0.mean:.2f} s)",
             lambda s: 1.0 < s.mean < 2.5),
            ("mean ack round trip > a one-way IM + the 0.5 s log write "
             "(measured {0.mean:.2f} s)",
             lambda s: s.mean
             > ex.run_im_one_way(n_alerts=100, seed=1).mean + 0.5),
        ),
        in_all=True,
    ),
    "e3": Experiment(
        "proxy -> user ~2.5 s",
        _late(ex, "run_proxy_routing", n_changes=120),
        _paper_table(
            "E3: proxy change to user IM",
            ("proxy -> MAB -> user, mean", "~2.5 s", "{0.mean:.2f} s"),
        ),
        holds=(
            ("1.5 s < mean proxy -> user < 4 s (measured {0.mean:.2f} s)",
             lambda s: 1.5 < s.mean < 4.0),
        ),
        in_all=True,
    ),
    "e4": Experiment(
        "Aladdin end-to-end ~11 s",
        _late(ex, "run_aladdin_disarm", n_presses=60),
        _paper_table(
            "E4: Aladdin end-to-end",
            ("remote press -> user IM, mean", "~11 s",
             "{0.end_to_end.mean:.2f} s"),
            ("home chain", "—", "{0.press_to_gateway_alert.mean:.2f} s"),
            ("SIMBA leg", "—", "{0.simba_delivery.mean:.2f} s"),
        ),
        holds=(
            ("every press pops an IM on the user's screen "
             "(measured {0.receipts} of {0.presses})",
             lambda r: r.receipts == r.presses),
            ("7 s < mean press -> user IM < 16 s "
             "(measured {0.end_to_end.mean:.2f} s)",
             lambda r: 7.0 < r.end_to_end.mean < 16.0),
            ("the home chain outweighs the SIMBA leg (measured "
             "{0.press_to_gateway_alert.mean:.2f} s vs "
             "{0.simba_delivery.mean:.2f} s)",
             lambda r: r.press_to_gateway_alert.mean > r.simba_delivery.mean),
        ),
        in_all=True,
    ),
    "e5": Experiment(
        "WISH location ~5 s",
        _late(ex, "run_wish_location", n_moves=60),
        _paper_table(
            "E5: WISH location alert",
            ("laptop report -> subscriber IM, mean", "~5 s",
             "{0.report_to_im.mean:.2f} s"),
            ("mean confidence", "%", "{0.mean_confidence:.1f} %"),
        ),
        holds=(
            ("3 s < mean report -> subscriber IM < 7 s "
             "(measured {0.report_to_im.mean:.2f} s)",
             lambda r: 3.0 < r.report_to_im.mean < 7.0),
            ("all but at most 2 moves fire a location alert "
             "(measured {0.alerts} of {0.moves})",
             lambda r: r.alerts >= r.moves - 2),
            ("mean confidence > 50 % (measured {0.mean_confidence:.1f} %)",
             lambda r: r.mean_confidence > 50.0),
        ),
        in_all=True,
    ),
    "e6": Experiment(
        "one-month fault log",
        _late(ex, "run_fault_month"),
        _e6_table,
        holds=(
            ("5 extended IM downtimes (measured {0.im_outages})",
             lambda r: r.im_outages == 5),
            ("IM downtimes last 4 to 103 minutes",
             lambda r: 4.0 <= min(r.im_outage_minutes)
             and max(r.im_outage_minutes) <= 103.0),
            ("9 IM client kill-restarts (measured {0.client_restarts})",
             lambda r: r.client_restarts == 9),
            ("30 to 45 fault-triggered MDC restarts for 36 injected faults "
             "(measured {0.mdc_restarts}, {0.rejuvenations} of them orderly)",
             lambda r: 30 <= r.mdc_restarts - r.rejuvenations <= 45),
            ("3 unrecovered: 1 power outage, 2 unknown dialogs "
             "(measured {0.unrecovered})", lambda r: r.unrecovered == 3),
            ("delivery ratio > 0.95 (measured {0.delivery_ratio:.4f})",
             lambda r: r.delivery_ratio > 0.95),
            ("median user IM latency < 10 s "
             "(measured {0.user_latency.median:.2f} s)",
             lambda r: r.user_latency.median < 10.0),
        ),
        in_all=True,
    ),
    "e7": Experiment(
        "portal scale 225k/778k",
        _late(ex, "run_portal_log", full_scale_days=2),
        _paper_table(
            "E7: portal usage-log scale",
            ("alerts/day", "~778,000", "{0.mean_alerts_per_day:,.0f}"),
            ("recipients/day", "~225,000", "{0.mean_users_per_day:,.0f}"),
            ("replay delivery ratio", "—", "{0.replay_delivery_ratio:.3f}"),
        ),
        holds=(
            ("700,000 < alerts/day < 850,000 "
             "(measured {0.mean_alerts_per_day:,.0f})",
             lambda r: 700_000 < r.mean_alerts_per_day < 850_000),
            ("200,000 < recipients/day < 250,000 "
             "(measured {0.mean_users_per_day:,.0f})",
             lambda r: 200_000 < r.mean_users_per_day < 250_000),
            ("the replay farm hosts >= 500 MAB tenants "
             "(measured {0.replay_users})", lambda r: r.replay_users >= 500),
            ("replay delivery ratio > 0.95 "
             "(measured {0.replay_delivery_ratio:.3f})",
             lambda r: r.replay_delivery_ratio > 0.95),
            ("replay median latency < 10 s "
             "(measured {0.replay_latency.median:.2f} s)",
             lambda r: r.replay_latency.median < 10.0),
        ),
        in_all=True,
    ),
    "e8": Experiment(
        "SIMBA vs baselines",
        _late(ex, "run_comparison"),
        lambda result: _e8_strategies_table(result.strategies),
        # The table above each line has the numbers, by strategy.
        holds=(
            ("SIMBA beats blanket redundancy on critical on-time ratio",
             lambda r: r.by_name("simba").critical_on_time_ratio
             > r.by_name("redundant").critical_on_time_ratio),
            ("SIMBA's critical on-time ratio > 2.5x email-only's",
             lambda r: r.by_name("simba").critical_on_time_ratio
             > 2.5 * r.by_name("email-only").critical_on_time_ratio),
            ("blanket redundancy sends > 3x SIMBA's messages per alert",
             lambda r: r.by_name("redundant").messages_per_alert
             > 3.0 * r.by_name("simba").messages_per_alert),
            ("SIMBA sends < 1.5 messages per alert",
             lambda r: r.by_name("simba").messages_per_alert < 1.5),
            ("four messages guarantee nothing: blanket redundancy's "
             "critical on-time ratio < 0.8",
             lambda r: r.by_name("redundant").critical_on_time_ratio < 0.8),
            ("email-only's median latency > 10x SIMBA's",
             lambda r: r.by_name("email-only").latency.median
             > 10 * r.by_name("simba").latency.median),
            ("every strategy eventually delivers > 90 % of alerts",
             lambda r: all(m.delivery_ratio > 0.9 for m in r.strategies)),
        ),
        in_all=True,
    ),
    "e9": Experiment(
        "HA ablation (slow)",
        _run_e9,
        _e9_table,
        holds=(
            ("the full stack delivers > 95 % through the month "
             "(measured {0[month][full-stack].delivery_ratio:.4f})",
             lambda r: r["month"]["full-stack"].delivery_ratio > 0.95),
            ("the full stack delivers > 95 % of that via IM "
             "(measured {0[month][full-stack].im_path_ratio:.3f})",
             lambda r: r["month"]["full-stack"].im_path_ratio > 0.95),
            ("without the watchdog delivery < half the full stack's "
             "(measured {0[month][no-watchdog].delivery_ratio:.4f})",
             lambda r: r["month"]["no-watchdog"].delivery_ratio
             < 0.5 * r["month"]["full-stack"].delivery_ratio),
            ("without the monkey thread delivery < half the full stack's "
             "(measured {0[month][no-monkey].delivery_ratio:.4f})",
             lambda r: r["month"]["no-monkey"].delivery_ratio
             < 0.5 * r["month"]["full-stack"].delivery_ratio),
            ("without self-stabilization nothing re-logs in "
             "(measured {0[month][no-stabilization].relogons} re-logons)",
             lambda r: r["month"]["no-stabilization"].relogons == 0),
            ("without self-stabilization the IM share drops by > 0.10 "
             "(measured {0[month][no-stabilization].im_path_ratio:.3f})",
             lambda r: r["month"]["no-stabilization"].im_path_ratio
             < r["month"]["full-stack"].im_path_ratio - 0.10),
            ("crash window, logging on: no acknowledged alert is lost "
             "(measured {0[logged].acked_but_lost})",
             lambda r: r["logged"].acked_but_lost == 0),
            ("crash window, logging on: recovery replays the log "
             "(measured {0[logged].recovery_replays} replays)",
             lambda r: r["logged"].recovery_replays > 0),
            ("crash window, logging off: >= 3 acknowledged alerts are lost "
             "(measured {0[unlogged].acked_but_lost})",
             lambda r: r["unlogged"].acked_but_lost >= 3),
            ("crash window, logging off: nothing is replayed "
             "(measured {0[unlogged].recovery_replays} replays)",
             lambda r: r["unlogged"].recovery_replays == 0),
        ),
    ),
    # E10-E14 print their own verdict line; the pair is that verdict.
    "e10": Experiment(
        "chaos sweep (oracle-checked)",
        _late(ex, "run_chaos_experiment", trials=5),
        _e10_report,
        holds=(("every trial leaves the delivery oracle clean",
                attrgetter("ok")),),
        flags=("jobs",),
    ),
    "e11": Experiment(
        "warm-standby failover vs MDC-only",
        _late(ex, "run_failover_comparison"),
        _late(metrics, "failover_report"),
        holds=(("the replicated pair loses nothing, routes nothing twice, "
                "stays oracle-green and beats MDC-only at p95",
                attrgetter("ok")),),
        flags=("jobs",),
    ),
    "e12": Experiment(
        "storm hardening: admission on vs off",
        _late(ex, "run_storm_comparison"),
        _late(metrics, "admission_report"),
        holds=(("the hardened farm lets no duplicate past dedup, accounts "
                "every undelivered alert and stays oracle-green",
                attrgetter("ok")),),
        flags=("jobs",),
    ),
    "e13": Experiment(
        "sharded farm-of-farms beyond one core",
        _run_e13,
        _late(metrics, "shard_report"),
        holds=(("every shard layout yields the same tenants, counts, "
                "receipts and merged journal fingerprint",
                attrgetter("invariance.ok")),),
        flags=("shards", "users"),
    ),
    "e14": Experiment(
        "adversarial links: stabilizing vs naive transport",
        _late(ex, "run_adversarial_comparison"),
        _late(metrics, "adversarial_report"),
        holds=(("the stabilizing transport accepts no corrupt frame and "
                "re-applies no duplicate where the naive one does",
                attrgetter("ok")),),
        flags=("jobs",),
    ),
    # The sweeps' points are pinned here because the pairs index them.
    "a1": Experiment(
        "ack-timeout trade-off (ablation)",
        _late(ex, "run_ack_timeout_sweep",
              timeouts=(2.0, 5.0, 15.0, 60.0), n_alerts=120),
        _sweep_table(
            "A1: ack-timeout sweep under periodic MAB hangs",
            ("ack timeout", "{0.ack_timeout:.0f} s"),
            ("delivered", "{0.delivered_ratio:.3f}"),
            ("premature fallbacks", "{0.premature_fallbacks}"),
            ("duplicates at MAB", "{0.duplicates_at_mab}"),
            ("mean source latency", "{0.mean_source_latency:.2f} s"),
        ),
        holds=(
            ("every timeout delivers > 99 % of alerts (email backup)",
             lambda ps: all(p.delivered_ratio > 0.99 for p in ps)),
            ("2 s races the ~1.4 s ack RTT into premature fallbacks "
             "(measured {0[0].premature_fallbacks})",
             lambda ps: ps[0].premature_fallbacks > 0),
            ("2 s delivers duplicates to MAB "
             "(measured {0[0].duplicates_at_mab})",
             lambda ps: ps[0].duplicates_at_mab > 0),
            ("from 5 s up no fallback is premature",
             lambda ps: all(p.premature_fallbacks == 0 for p in ps[1:])),
            ("patience costs stall time: mean source latency at 60 s > at "
             "5 s (measured {0[3].mean_source_latency:.2f} s vs "
             "{0[1].mean_source_latency:.2f} s)",
             lambda ps: ps[3].mean_source_latency > ps[1].mean_source_latency),
        ),
    ),
    "a2": Experiment(
        "ack RTT = 2 x one-way + log write (ablation)",
        _late(ex, "run_log_latency_sweep",
              write_latencies=(0.0, 0.25, 0.5, 1.0, 2.0), n_alerts=100),
        _sweep_table(
            "A2: ack round trip vs pessimistic-log write latency",
            ("log write latency", "{0.write_latency:.2f} s"),
            ("ack RTT mean", "{0.ack_rtt.mean:.2f} s"),
            ("ack RTT median", "{0.ack_rtt.median:.2f} s"),
        ),
        holds=(
            ("with no log write the ack RTT is two one-way IMs: 0.6 s < "
             "mean < 1.4 s (measured {0[0].ack_rtt.mean:.2f} s)",
             lambda ps: 0.6 < ps[0].ack_rtt.mean < 1.4),
            ("each second of log write costs a second of ack RTT +- 0.05 s",
             lambda ps: all(
                 abs(p.ack_rtt.mean - ps[0].ack_rtt.mean - p.write_latency)
                 <= 0.05 for p in ps[1:])),
            ("the paper's 0.5 s write lands on its ~1.5 s: 1.1 s < mean < "
             "1.8 s (measured {0[2].ack_rtt.mean:.2f} s)",
             lambda ps: 1.1 < ps[2].ack_rtt.mean < 1.8),
        ),
    ),
    "a3": Experiment(
        "WISH accuracy vs RF shadowing (ablation)",
        _late(ex, "run_wish_accuracy_sweep", sigmas=(0.0, 2.0, 4.0, 8.0)),
        _sweep_table(
            "A3: WISH location error vs RF shadowing noise",
            ("shadowing sigma", "{0.sigma:.1f} dB"),
            ("median error", "{0.error.median:.1f} m"),
            ("p90 error", "{0.error.p90:.1f} m"),
            ("mean confidence", "{0.confidence.mean:.0f} %"),
        ),
        holds=(
            ("at a realistic 2 dB the median error is a few metres: < 5 m "
             "(measured {0[1].error.median:.1f} m)",
             lambda ps: ps[1].error.median < 5.0),
            ("noise degrades accuracy: median error at 8 dB > at 0 dB "
             "(measured {0[3].error.median:.1f} m vs "
             "{0[0].error.median:.1f} m)",
             lambda ps: ps[3].error.median > ps[0].error.median),
            ("the confidence is honest: its mean at 8 dB < at 0 dB (measured "
             "{0[3].confidence.mean:.0f} % vs {0[0].confidence.mean:.0f} %)",
             lambda ps: ps[3].confidence.mean < ps[0].confidence.mean),
        ),
    ),
    "a4": Experiment(
        "MAB saturation and farm scaling (ablation)",
        _run_a4,
        _a4_tables,
        holds=(
            ("one daemon queues, it does not lose: >= 97 % delivered at "
             "every rate",
             lambda r: all(
                 p.delivered >= 0.97 * p.offered for p in r["daemon"])),
            ("below capacity alerts are timely: on-time > 0.95 at 0.05/s "
             "(measured {0[daemon][0].on_time_ratio:.3f})",
             lambda r: r["daemon"][0].on_time_ratio > 0.95),
            ("below capacity alerts are timely: on-time > 0.9 at 0.1/s "
             "(measured {0[daemon][1].on_time_ratio:.3f})",
             lambda r: r["daemon"][1].on_time_ratio > 0.9),
            ("past the ~0.2/s ceiling timeliness collapses: on-time < 0.5 "
             "at 0.4/s (measured {0[daemon][3].on_time_ratio:.3f})",
             lambda r: r["daemon"][3].on_time_ratio < 0.5),
            ("median latency at 0.4/s > 5x that at 0.05/s (measured "
             "{0[daemon][3].latency.median:.1f} s vs "
             "{0[daemon][0].latency.median:.1f} s)",
             lambda r: r["daemon"][3].latency.median
             > 5 * r["daemon"][0].latency.median),
            ("a farm loses nothing at any size: >= 97 % delivered",
             lambda r: all(
                 p.delivered >= 0.97 * p.offered for p in r["farm"])),
            ("a farm stays timely at every size: on-time > 0.95",
             lambda r: all(p.on_time_ratio > 0.95 for p in r["farm"])),
            ("100 tenants deliver >= 50x the single-daemon ceiling "
             "(measured {0[farm][3].ceiling_multiple:.1f}x)",
             lambda r: r["farm"][3].ceiling_multiple >= 50),
            ("near-linear: 100 tenants deliver >= 8x what 10 do (measured "
             "{0[farm][3].aggregate_rate:.2f}/s vs "
             "{0[farm][1].aggregate_rate:.2f}/s)",
             lambda r: r["farm"][3].aggregate_rate
             >= 8 * r["farm"][1].aggregate_rate),
        ),
    ),
}


def run_experiment(key: str, seed: int = 0, **flags) -> tuple[str, list[str]]:
    """Run one registered experiment; returns its rendered report and the
    claims of its row the result does not bear out (none: it holds)."""
    experiment = EXPERIMENTS[key]
    result = experiment.run(seed=seed, **flags)
    return experiment.render(result), experiment.broken(result)


def _score_trace(spans) -> tuple:
    """Interest score for --alert auto: prefer the trace that exercised the
    most machinery (failover handoffs, then fallback blocks, then sheer
    span count)."""
    handoffs = sum(1 for s in spans if s.name == "failover.handoff")
    fallbacks = sum(
        1
        for s in spans
        if s.name == "block" and s.annotations.get("index", 0) > 0
    )
    return (handoffs, fallbacks, len(spans))


def _run_trace_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Replay a pinned chaos reproducer with tracing on and "
        "render one alert's causal span tree plus latency attribution.",
    )
    parser.add_argument(
        "--reproducer", required=True,
        help="pinned reproducer JSON (see tests/data/chaos, "
        "tests/data/trace)",
    )
    parser.add_argument(
        "--alert", default="auto",
        help="alert id to render, or 'auto' (default) for the most "
        "eventful trace",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the full span record as JSON",
    )
    args = parser.parse_args(argv)

    from repro.metrics.trace_report import trace_report
    from repro.obs import (
        LIFECYCLE_PREFIX,
        attribute_spans,
        render_attribution,
        render_span_tree,
    )
    from repro.testkit.schedule import replay_reproducer

    report = replay_reproducer(args.reproducer, trace=True)
    sink = report.trace
    print(report.summary())
    print()

    alert_ids = [
        t for t in sink.trace_ids() if not t.startswith(LIFECYCLE_PREFIX)
    ]
    if not alert_ids:
        print("(run recorded no alert traces)")
        return 1
    if args.alert == "auto":
        chosen = max(alert_ids, key=lambda t: _score_trace(sink.spans(t)))
    elif args.alert in alert_ids:
        chosen = args.alert
    else:
        parser.error(
            f"unknown alert {args.alert!r}; traced: {', '.join(alert_ids)}"
        )
    spans = sink.spans(chosen)
    print(render_span_tree(spans, title=chosen))
    print()
    print(render_attribution(attribute_spans(spans)))
    print()
    print(trace_report(sink))

    if args.json_out is not None:
        from pathlib import Path

        Path(args.json_out).write_text(sink.to_json() + "\n")
        print(f"\nwrote {args.json_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the SIMBA paper's experiments.",
    )
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        # The trace forensics command has its own flags; hand it the rest.
        return _run_trace_command(argv[1:])
    parser.add_argument(
        "experiment",
        help="experiment id (e1..e14, a1..a4), 'all', 'list', or 'trace' "
        "(span-tree forensics; see python -m repro trace --help)",
    )
    # Every flag defaults to None so "not given" is distinguishable and a
    # command can reject what it does not take instead of ignoring it.
    parser.add_argument("--seed", type=int, default=None, help="default 0")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for sweep experiments; results are "
        "identical to --jobs 1, just faster",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="e13: compare shards=1 against this worker-process count "
        "(default: sweep 1/2/4)",
    )
    parser.add_argument(
        "--users", type=int, default=None,
        help="e13: logical user population (default 100,000)",
    )
    args = parser.parse_args(argv)
    command = args.experiment.lower()
    flags = {k: v for k, v in vars(args).items()
             if k != "experiment" and v is not None}
    if command == "list":
        declared: tuple[str, ...] = ()
    elif command == "all":
        declared = ("seed",)
    elif command in EXPERIMENTS:
        declared = ("seed", *EXPERIMENTS[command].flags)
    else:
        parser.error(
            f"unknown experiment {args.experiment!r} "
            f"(choose from {', '.join(EXPERIMENTS)}, all, list)"
        )
    undeclared = sorted(set(flags) - set(declared))
    if undeclared:
        parser.error(
            f"{command} does not take "
            + ", ".join(f"--{name}" for name in undeclared)
        )
    for name, least in (("seed", 0), ("jobs", 1), ("shards", 1), ("users", 1)):
        if flags.get(name, least) < least:
            parser.error(f"--{name} must be >= {least}, got {flags[name]}")
    if command == "list":
        print(
            format_table(
                ["id", "claim"],
                [[key, e.claim] for key, e in EXPERIMENTS.items()],
                title="available experiments",
            )
        )
        return 0
    keys = (
        [key for key, e in EXPERIMENTS.items() if e.in_all]
        if command == "all" else [command]
    )
    status = 0
    for key in keys:
        report, broken = run_experiment(key, **flags)
        print(report)
        if command == "all":
            print()
        # The verdict goes to stderr so stdout stays the report alone.
        for statement in broken:
            print(f"  ! {statement}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
