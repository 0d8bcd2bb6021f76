"""``chaos_sweep``: seeded random search over fault schedules.

One sweep = N trials.  Each trial derives its own sub-seed from the sweep
seed, generates a schedule, replays it through :func:`~repro.testkit
.harness.run_chaos`, and records the oracle verdict.  Failing trials are
delta-debugged down to minimal reproducers (budgeted — each shrink probe
is a full run) which callers can pin via
:func:`~repro.testkit.schedule.dump_reproducer`.

Reproducibility contract: ``chaos_sweep(seed=N, ...)`` is bit-for-bit
deterministic — :meth:`ChaosSweepResult.fingerprint` over two sweeps with
identical arguments is identical.  Trials are mutually independent (each
builds its own world from its own sub-seed), so ``jobs > 1`` fans them
out across a :func:`~repro.testkit.parallel.fanout` process pool and
merges results in trial-index order: the merged sweep — fingerprint
included — is identical to the sequential one, it just finishes sooner.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.clock import HOUR, MINUTE
from repro.sim.failures import ScheduledFault
from repro.testkit.generator import ChaosIntensity, FaultScheduleGenerator
from repro.testkit.harness import ChaosReport, ChaosRunConfig, run_chaos
from repro.testkit.parallel import fanout
from repro.testkit.schedule import Reproducer, make_reproducer
from repro.testkit.shrink import ShrinkResult, shrink

#: Knuth-style multiplicative mix so trial sub-seeds are decorrelated.
_SEED_MIX = 2654435761


def trial_seed(sweep_seed: int, index: int) -> int:
    return (sweep_seed * _SEED_MIX + index * 97 + 1) % (2**31)


@dataclass
class ChaosTrial:
    """One generated schedule and its verdict."""

    index: int
    seed: int
    schedule_size: int
    ok: bool
    violations: list[str]
    fingerprint: str
    report: ChaosReport = field(repr=False, default=None)
    shrink_result: Optional[ShrinkResult] = field(repr=False, default=None)
    reproducer: Optional[Reproducer] = field(repr=False, default=None)


@dataclass
class ChaosSweepResult:
    """Every trial of one sweep plus the aggregate verdict."""

    seed: int
    trials: list[ChaosTrial] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trials)

    @property
    def failures(self) -> list[ChaosTrial]:
        return [t for t in self.trials if not t.ok]

    def fingerprint(self) -> str:
        """Digest over every trial — the bit-for-bit reproducibility hook."""
        payload = {
            "seed": self.seed,
            "trials": [
                (t.index, t.seed, t.schedule_size, t.ok, t.fingerprint,
                 sorted(t.violations))
                for t in self.trials
            ],
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def summary(self) -> str:
        failed = self.failures
        lines = [
            f"chaos sweep seed={self.seed}: {len(self.trials)} trial(s), "
            f"{len(failed)} failing — fingerprint {self.fingerprint()[:16]}"
        ]
        for trial in self.trials:
            verdict = "PASS" if trial.ok else "FAIL"
            extra = ""
            if trial.shrink_result is not None:
                extra = (
                    f" (shrunk {trial.shrink_result.original_size} → "
                    f"{len(trial.shrink_result.schedule)} faults)"
                )
            lines.append(
                f"  trial {trial.index} [seed {trial.seed}]: {verdict}, "
                f"{trial.schedule_size} faults{extra}"
            )
        return "\n".join(lines)


@dataclass
class _TrialSpec:
    """Everything one worker needs to run one trial (fully picklable when
    ``intensity``/``stage_factory`` are — module-level factories qualify,
    closures do not)."""

    sweep_seed: int
    index: int
    sub_seed: int
    run_config: ChaosRunConfig
    n_users: int
    duration: float
    intensity: Optional[ChaosIntensity]
    stage_factory: Optional[Callable[[], list]]
    shrink_failures: bool
    shrink_budget: int
    trace: bool = False


def _run_trial(spec: _TrialSpec) -> ChaosTrial:
    """Run one seeded trial end to end (generate → replay → shrink)."""
    run_config = spec.run_config
    generator = FaultScheduleGenerator(
        seed=spec.sub_seed,
        users=[f"user{i}" for i in range(spec.n_users)],
        duration=spec.duration,
        start=run_config.start,
        intensity=spec.intensity,
        replication=run_config.replication,
    )
    schedule = generator.generate()
    report = run_chaos(
        schedule,
        run_config,
        stage_factory=spec.stage_factory,
        trace=spec.trace,
    )
    trial = ChaosTrial(
        index=spec.index,
        seed=spec.sub_seed,
        schedule_size=len(schedule),
        ok=report.ok,
        violations=[
            str(v)
            for v in (
                report.oracle.violations + report.oracle.trace_violations
            )
        ],
        fingerprint=report.fingerprint(),
        report=report,
    )
    if not report.ok and spec.shrink_failures and schedule:
        def still_fails(candidate: list[ScheduledFault]) -> bool:
            # Probes trace iff the trial did: a failure detected only by
            # the trace oracle must stay reproducible while shrinking.
            probe = run_chaos(
                candidate,
                run_config,
                stage_factory=spec.stage_factory,
                trace=spec.trace,
            )
            return not probe.ok

        trial.shrink_result = shrink(
            schedule, still_fails, max_trials=spec.shrink_budget
        )
        trial.reproducer = make_reproducer(
            report,
            trial.shrink_result.schedule,
            note=(
                f"sweep seed={spec.sweep_seed} trial={spec.index}: shrunk "
                f"{trial.shrink_result.original_size} → "
                f"{len(trial.shrink_result.schedule)} faults"
            ),
        )
    return trial


def chaos_sweep(
    seed: int = 0,
    trials: int = 5,
    n_users: int = 3,
    duration: float = 1 * HOUR,
    settle: float = 20 * MINUTE,
    intensity: Optional[ChaosIntensity] = None,
    config: Optional[ChaosRunConfig] = None,
    stage_factory: Optional[Callable[[], list]] = None,
    shrink_failures: bool = True,
    shrink_budget: int = 24,
    replication: Optional[bool] = None,
    jobs: Optional[int] = None,
    trace: bool = False,
) -> ChaosSweepResult:
    """Run ``trials`` random chaos trials; shrink whatever fails.

    ``config`` overrides the per-run parameters (its ``seed``, ``n_users``,
    ``duration`` are re-derived per trial); ``stage_factory`` plants a
    broken pipeline in every trial — the self-test path.  ``replication``
    flips warm-standby pairs on (or off) for every trial, overriding
    ``config.replication``; the generator then targets primaries, standbys
    and the ship link independently.

    ``jobs`` fans trials out across worker processes (None or 1 →
    sequential, see :func:`~repro.testkit.parallel.fanout`).  Results are
    merged in trial order and are identical to a sequential sweep's; with
    ``jobs > 1``, ``stage_factory``/``intensity`` must be picklable.

    ``trace`` runs every trial with a :class:`repro.obs.TraceSink` (it
    rides back on each ``trial.report.trace``) and folds the trace-backed
    invariants into each trial's verdict.  Fingerprints are unchanged —
    tracing is pure observation.
    """
    base = config if config is not None else ChaosRunConfig()
    specs = []
    for index in range(trials):
        sub_seed = trial_seed(seed, index)
        run_config = ChaosRunConfig(
            **{
                **base.__dict__,
                "seed": sub_seed,
                "n_users": n_users,
                "duration": duration,
                "settle": settle,
                **(
                    {"replication": replication}
                    if replication is not None
                    else {}
                ),
            }
        )
        specs.append(
            _TrialSpec(
                sweep_seed=seed,
                index=index,
                sub_seed=sub_seed,
                run_config=run_config,
                n_users=n_users,
                duration=duration,
                intensity=intensity,
                stage_factory=stage_factory,
                shrink_failures=shrink_failures,
                shrink_budget=shrink_budget,
                trace=trace,
            )
        )
    return ChaosSweepResult(
        seed=seed, trials=fanout(_run_trial, specs, jobs=jobs)
    )
