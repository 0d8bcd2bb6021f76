"""Command-line entry point: run any paper experiment and print its table.

Usage::

    python -m repro list           # show available experiments
    python -m repro e1 [--seed N]  # run one experiment
    python -m repro all            # run E1-E8 (E9 is slow; run explicitly)
    python -m repro trace --reproducer <pinned.json>
                                   # replay traced; dump one alert's span
                                   # tree + latency attribution

:data:`EXPERIMENTS` is the one experiment index: id → claim, how to run
it, how to render the result, and which flags it understands.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro import experiments as ex
from repro import metrics
from repro.experiments.fault_tolerance import run_logging_window
from repro.metrics.reports import format_table
from repro.testkit.parallel import sweep_pool


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment index."""

    claim: str
    #: ``run(seed=..., **flags)`` → result; ``render(result)`` → report.
    run: Callable[..., object]
    render: Callable[[object], str]
    #: Flags understood besides ``--seed``; any other is a usage error.
    #: ``jobs`` is not passed to ``run``: it sizes the worker pool the run
    #: happens inside.
    flags: tuple[str, ...] = ()
    #: Part of ``python -m repro all``.
    in_all: bool = False


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


def _e8_table(result) -> str:
    rows = [
        [m.name, f"{m.delivery_ratio:.3f}", f"{m.critical_on_time_ratio:.3f}",
         f"{m.messages_per_alert:.2f}", f"{m.latency.median:.1f} s"]
        for m in result.strategies
    ]
    return format_table(
        ["strategy", "delivered", "critical on-time", "msgs/alert",
         "median latency"],
        rows,
        title="E8: SIMBA vs baselines",
    )


def _run_e9(seed: int) -> list:
    rows = [
        [r.label, f"{r.delivery_ratio:.4f}", f"{r.im_path_ratio:.3f}"]
        for r in ex.run_ha_ablation(seed=seed)
    ]
    for label, enabled in (("on", True), ("off", False)):
        window = run_logging_window(seed=seed, logging_enabled=enabled)
        rows.append([f"(crash-after-ack, logging {label})",
                     f"acked-but-lost={window.acked_but_lost}", "—"])
    return rows


def _e9_table(rows: list) -> str:
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


EXPERIMENTS = {
    "e1": Experiment(
        "one-way IM < 1 s",
        partial(ex.run_im_one_way, n_alerts=300),
        _paper_table(
            "E1: one-way IM delivery (source -> MyAlertBuddy)",
            ("one-way IM, median", "< 1 s", "{0.median:.2f} s"),
            ("one-way IM, p90", "< 1 s", "{0.p90:.2f} s"),
        ),
        in_all=True,
    ),
    "e2": Experiment(
        "logged ack ~1.5 s",
        partial(ex.run_ack_roundtrip, n_alerts=300),
        _paper_table(
            "E2: logged-ack round trip",
            ("ack round trip, mean", "~1.5 s", "{0.mean:.2f} s"),
        ),
        in_all=True,
    ),
    "e3": Experiment(
        "proxy -> user ~2.5 s",
        partial(ex.run_proxy_routing, n_changes=120),
        _paper_table(
            "E3: proxy change to user IM",
            ("proxy -> MAB -> user, mean", "~2.5 s", "{0.mean:.2f} s"),
        ),
        in_all=True,
    ),
    "e4": Experiment(
        "Aladdin end-to-end ~11 s",
        partial(ex.run_aladdin_disarm, n_presses=60),
        _paper_table(
            "E4: Aladdin end-to-end",
            ("remote press -> user IM, mean", "~11 s",
             "{0.end_to_end.mean:.2f} s"),
            ("home chain", "—", "{0.press_to_gateway_alert.mean:.2f} s"),
            ("SIMBA leg", "—", "{0.simba_delivery.mean:.2f} s"),
        ),
        in_all=True,
    ),
    "e5": Experiment(
        "WISH location ~5 s",
        partial(ex.run_wish_location, n_moves=60),
        _paper_table(
            "E5: WISH location alert",
            ("laptop report -> subscriber IM, mean", "~5 s",
             "{0.report_to_im.mean:.2f} s"),
            ("mean confidence", "%", "{0.mean_confidence:.1f} %"),
        ),
        in_all=True,
    ),
    "e6": Experiment(
        "one-month fault log", ex.run_fault_month, _e6_table, in_all=True
    ),
    "e7": Experiment(
        "portal scale 225k/778k",
        partial(ex.run_portal_log, full_scale_days=2),
        _paper_table(
            "E7: portal usage-log scale",
            ("alerts/day", "~778,000", "{0.mean_alerts_per_day:,.0f}"),
            ("recipients/day", "~225,000", "{0.mean_users_per_day:,.0f}"),
            ("replay delivery ratio", "—", "{0.replay_delivery_ratio:.3f}"),
        ),
        in_all=True,
    ),
    "e8": Experiment(
        "SIMBA vs baselines", ex.run_comparison, _e8_table, in_all=True
    ),
    "e9": Experiment("HA ablation (slow)", _run_e9, _e9_table),
    "e10": Experiment(
        "chaos sweep (oracle-checked)",
        partial(ex.run_chaos_experiment, trials=5),
        _e10_report,
        flags=("jobs",),
    ),
    "e11": Experiment(
        "warm-standby failover vs MDC-only",
        ex.run_failover_comparison,
        metrics.failover_report,
        flags=("jobs",),
    ),
    "e12": Experiment(
        "storm hardening: admission on vs off",
        ex.run_storm_comparison,
        metrics.admission_report,
        flags=("jobs",),
    ),
    "e13": Experiment(
        "sharded farm-of-farms beyond one core",
        _run_e13,
        metrics.shard_report,
        flags=("shards", "users"),
    ),
    "e14": Experiment(
        "adversarial links: stabilizing vs naive transport",
        ex.run_adversarial_comparison,
        metrics.adversarial_report,
        flags=("jobs",),
    ),
}


def run_experiment(key: str, seed: int = 0, **flags) -> str:
    """Run one registered experiment and render its report."""
    experiment = EXPERIMENTS[key]
    if "jobs" not in experiment.flags:
        return experiment.render(experiment.run(seed=seed, **flags))
    # One persistent pool for the whole experiment: its sweeps reuse the
    # same workers instead of forking a fresh Pool per fanout.
    with sweep_pool(jobs=flags.pop("jobs", None)):
        return experiment.render(experiment.run(seed=seed, **flags))


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
        help="experiment id (e1..e14), 'all', 'list', or 'trace' "
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
    if command == "list":
        print(
            format_table(
                ["id", "claim"],
                [[key, e.claim] for key, e in EXPERIMENTS.items()],
                title="available experiments",
            )
        )
    elif command == "all":
        for key, experiment in EXPERIMENTS.items():
            if experiment.in_all:
                print(run_experiment(key, **flags))
                print()
    else:
        print(run_experiment(command, **flags))
    return 0


if __name__ == "__main__":
    sys.exit(main())
