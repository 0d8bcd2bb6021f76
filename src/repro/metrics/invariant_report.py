"""Render a chaos sweep (E10) as the plain-text table benches print.

Companion to :mod:`repro.metrics.recovery_report`: where that one
summarizes *what broke and recovered*, this one summarizes *what the
delivery oracle checked* — the per-trial verdicts with their shrink
outcomes, and the sweep's reproducibility fingerprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.reports import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.testkit.sweep import ChaosSweepResult


def sweep_report(result: "ChaosSweepResult") -> str:
    """Per-trial sweep table plus the reproducibility fingerprint."""
    rows = []
    for trial in result.trials:
        shrunk = "-"
        if trial.shrink_result is not None:
            shrunk = (
                f"{trial.shrink_result.original_size}→"
                f"{len(trial.shrink_result.schedule)}"
            )
        rows.append(
            (
                trial.index,
                trial.seed,
                trial.schedule_size,
                "PASS" if trial.ok else "FAIL",
                len(trial.violations),
                shrunk,
            )
        )
    table = format_table(
        ["trial", "seed", "faults", "verdict", "violations", "shrunk"],
        rows,
        title=f"chaos sweep seed={result.seed}",
    )
    verdict = "PASS" if result.ok else f"FAIL ({len(result.failures)} trial(s))"
    return (
        f"{table}\n"
        f"sweep verdict: {verdict}\n"
        f"fingerprint: {result.fingerprint()}"
    )
