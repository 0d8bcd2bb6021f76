"""Experiment E10: randomized chaos search over fault schedules.

The §5 evaluation replays *one* month-long trace; this experiment searches
many adversarial traces.  ``run_chaos_experiment`` wraps
:func:`repro.testkit.chaos_sweep` with reproducer pinning; ``python -m
repro e10`` runs it, and exits 0 only when every trial satisfies the
delivery oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.sim.clock import MINUTE
from repro.testkit import (
    ChaosIntensity,
    ChaosSweepResult,
    chaos_sweep,
    dump_reproducer,
)


@dataclass
class ChaosExperimentResult:
    """One sweep plus where any shrunk reproducers were pinned."""

    sweep: ChaosSweepResult
    pinned: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.sweep.ok


def run_chaos_experiment(
    seed: int = 0,
    trials: int = 5,
    n_users: int = 3,
    duration: float = 40 * MINUTE,
    settle: float = 18 * MINUTE,
    faults_per_hour: float = 8.0,
    pin_dir: Optional[Path] = None,
    jobs: Optional[int] = None,
) -> ChaosExperimentResult:
    """Run one seeded sweep; pin shrunk reproducers of failing trials.

    ``jobs`` fans trials across worker processes (see
    :func:`repro.testkit.parallel.fanout`); the sweep result — fingerprint
    included — is identical to a sequential run's.
    """
    intensity = ChaosIntensity(faults_per_hour=faults_per_hour)
    sweep = chaos_sweep(
        seed=seed,
        trials=trials,
        n_users=n_users,
        duration=duration,
        settle=settle,
        intensity=intensity,
        jobs=jobs,
    )
    result = ChaosExperimentResult(sweep=sweep)
    if pin_dir is not None:
        for trial in sweep.failures:
            if trial.reproducer is None:
                continue
            path = Path(pin_dir) / f"seed{seed}_trial{trial.index}.json"
            result.pinned.append(dump_reproducer(trial.reproducer, path))
    return result
