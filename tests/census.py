"""The chaos census: a seed × fault-rate grid, failing runs grouped by class.

Each run is the high-intensity tier's construction (20 users, an alert
every 10 s, world seed = schedule seed) at one of :data:`RATES` generated
faults per hour.  A failing run's class is its signature:

- the set of oracle invariants it breaks;
- the last two pipeline-trip outcomes of its first violating alert;
- whether that alert is in its tenant's pessimistic log.

One row per class: the count of runs, their ``seed@rate`` list and one
example alert, named by its subject.  The table is a pure function of the grid, so a
fate-neutral change prints it byte for byte; a behaviour change names the
classes it grows or empties.  EXPERIMENTS E10 commits the table; CI
fails when this tree's differs from it.

    python tests/census.py    # seeds 12-41, two worker processes
"""

import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.testkit import (  # noqa: E402
    ChaosIntensity,
    ChaosRunConfig,
    DeliveryOracle,
    FaultScheduleGenerator,
    run_chaos,
)
from repro.testkit.parallel import fanout  # noqa: E402

#: Past the twelve tier seeds (``tests/test_chaos_regressions.py``).
SEEDS = tuple(range(12, 42))
#: Generated faults per hour.
RATES = (10, 30, 60)
#: Worker processes; ``fanout`` gives the sequential run's table.
JOBS = 2


class _SigningOracle(DeliveryOracle):
    """Signs the run's first violating alert while its farm is alive."""

    signature = None

    def check(self, farm, offered=None, **kwargs):
        report = super().check(farm, offered=offered, **kwargs)
        if report.violations:
            first = next(
                (v for v in report.violations if v.alert_id), None
            )
            trips, logged, example = (), "-", "-"
            if first is not None:
                found = self.outcomes_by_user().get(first.user, {})
                seen = found.get(first.alert_id, ())
                trips = tuple(str(trip.kind) for trip in seen)[-2:]
                tenant = farm.tenants.get(first.user)
                logged = "yes" if tenant is not None and any(
                    side.log.entry_for_alert(first.alert_id) is not None
                    for side in _deployments(tenant)
                ) else "no"
                # Alert ids come from a process-global counter; the
                # round-robin subject names the alert in any process.
                example = next(
                    (trip.subject for trip in seen if trip.subject),
                    f"{first.user} (no trip)",
                )
            invariants = tuple(sorted({v.invariant for v in report.violations}))
            self.signature = (invariants, trips, logged), example
        return report


def _deployments(tenant):
    if tenant.pair is None:
        return [tenant.deployment]
    return [side.deployment for side in tenant.pair.sides()]


def census_run(point: tuple[int, int]):
    """``(seed, rate, signature or None, example)`` of one grid point."""
    seed, rate = point
    config = ChaosRunConfig(seed=seed, n_users=20, alert_period=10.0)
    schedule = FaultScheduleGenerator(
        seed,
        [f"user{i}" for i in range(config.n_users)],
        duration=config.duration,
        start=config.start,
        intensity=ChaosIntensity(faults_per_hour=rate),
    ).generate()
    oracle = _SigningOracle()
    run_chaos(schedule, config, oracle=oracle)
    if oracle.signature is None:
        return seed, rate, None, None
    signature, example = oracle.signature
    return seed, rate, signature, example


def census(seeds=SEEDS) -> str:
    """The census table of ``seeds`` × :data:`RATES`."""
    points = [(seed, rate) for rate in RATES for seed in seeds]
    classes = defaultdict(list)
    failing = {rate: 0 for rate in RATES}
    for seed, rate, signature, example in fanout(census_run, points, jobs=JOBS):
        if signature is not None:
            classes[signature].append((seed, rate, example))
            failing[rate] += 1
    per_rate = ", ".join(
        f"{failing[rate]}/{len(seeds)} at {rate}/h" for rate in RATES
    )
    lines = [
        f"census: {sum(failing.values())} of {len(points)} runs fail "
        f"({per_rate})",
        "runs | invariants | last two trips | in log | seeds | example",
    ]
    rows = sorted(classes.items(), key=lambda row: (-len(row[1]), row[0]))
    for (invariants, trips, logged), runs in rows:
        seeds_at = " ".join(f"{seed}@{rate}" for seed, rate, _ in runs)
        lines.append(
            f"{len(runs)} | {', '.join(invariants)} | "
            f"{' > '.join(trips) or '-'} | {logged} | "
            f"{seeds_at} | {runs[0][0]}@{runs[0][1]} {runs[0][2]}"
        )
    return "\n".join(lines)


def committed(experiments=ROOT / "EXPERIMENTS.md") -> str:
    """EXPERIMENTS E10's committed census table, as :func:`census` prints
    it: the count line, then each Markdown row without its outer bars."""
    section = experiments.read_text().split("\n## E10 ", 1)[1]
    section = section.split("\n## ", 1)[0]
    section = section.split("### The chaos census", 1)[1]
    count = re.search(r"(\d+ of \d+ runs fail \([^)]*\))", section)
    rows = [
        line[2:-2]
        for line in section.splitlines()
        if line.startswith("| ") and line.endswith(" |")
    ]
    return "\n".join([f"census: {count.group(1)}", *rows])


if __name__ == "__main__":
    print(census())
