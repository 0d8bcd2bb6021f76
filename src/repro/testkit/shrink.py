"""Greedy delta-debugging of failing fault schedules (ddmin).

A random schedule that trips the oracle typically carries dozens of
irrelevant faults.  :func:`shrink` reduces it to a *locally minimal*
failing subsequence: remove any chunk — halves first, then finer
granularity, down to single faults — and keep the removal whenever the
reduced schedule still fails.  The result is what gets pinned as a
regression reproducer (see :mod:`repro.testkit.schedule`).

The predicate is the expensive part (each probe is a full chaos run), so
the shrinker is budgeted: ``max_trials`` caps predicate calls and the
result records whether minimization completed or ran out of budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.failures import ScheduledFault

FailsPredicate = Callable[[list[ScheduledFault]], bool]


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    schedule: list[ScheduledFault]
    original_size: int
    trials: int
    #: True when no single fault can be removed without the failure
    #: disappearing (1-minimal); False when ``max_trials`` ran out first.
    minimal: bool
    #: Sizes after each successful reduction, for forensics.
    steps: list[int] = field(default_factory=list)


def shrink(
    schedule: list[ScheduledFault],
    fails: FailsPredicate,
    max_trials: int = 64,
) -> ShrinkResult:
    """ddmin: reduce ``schedule`` to a minimal subsequence where
    ``fails(subsequence)`` still holds.

    ``fails`` must be deterministic (same schedule → same verdict); chaos
    predicates get that for free from the harness's fixed seed.  The input
    schedule itself is assumed failing — pass only schedules whose full
    run already tripped the oracle.
    """
    current = list(schedule)
    trials = 0
    steps: list[int] = []
    granularity = 2

    while len(current) >= 2 and trials < max_trials:
        chunk = max(1, len(current) // granularity)
        reduced_this_pass = False
        start = 0
        while start < len(current) and trials < max_trials:
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                start += chunk
                continue
            trials += 1
            if fails(candidate):
                current = candidate
                steps.append(len(current))
                reduced_this_pass = True
                granularity = max(granularity - 1, 2)
                # Re-probe from the same offset: the chunk now holds
                # different faults.
            else:
                start += chunk
        if not reduced_this_pass:
            if chunk == 1:
                break  # 1-minimal: no single fault is removable
            granularity = min(granularity * 2, len(current))

    # Final singles pass to a fixed point; 1-minimal only if it completed
    # (every remaining fault probed once, none removable) within budget.
    minimal = len(current) == 1
    progress = True
    while progress and len(current) > 1:
        progress = False
        minimal = True
        for index in range(len(current)):
            if trials >= max_trials:
                minimal = False
                progress = False
                break
            candidate = current[:index] + current[index + 1:]
            trials += 1
            if fails(candidate):
                current = candidate
                steps.append(len(current))
                progress = True
                break
    return ShrinkResult(
        schedule=current,
        original_size=len(schedule),
        trials=trials,
        minimal=minimal,
        steps=steps,
    )
