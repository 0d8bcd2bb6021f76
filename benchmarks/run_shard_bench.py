"""Standalone sharded-farm benchmark runner: the A4-sharded gate.

Runs the E13 workload (see :mod:`repro.experiments.sharded`) on a fixed
population at each layout in ``--shards``, measures wall-clock aggregate
delivery throughput, verifies shard-count invariance (bit-identical merged
journal fingerprints — a correctness gate, not a tolerance check), and
emits/checks a ``BENCH_A4_SHARD.json`` artifact::

    python benchmarks/run_shard_bench.py --out-dir benchmarks/baselines
    python benchmarks/run_shard_bench.py --check benchmarks/baselines

Regression checking reuses :func:`run_kernel_bench.check_against`:
absolute ``alerts_per_s`` metrics are normalized by the same pure-Python
calibration loop; the ``_speedup`` metric is hardware-independent and
compared directly, as a one-sided lower bound.

The artifact records the machine it ran on (``host``: ``os.cpu_count()``
and the Python version) and ``--check`` prints the baseline's and the
current core counts side by side, because the speedup is only as good as
the cores behind it: with fewer cores than shards the workers time-slice
and the parallel part of the ratio is capped at the core count.

The ratio also has a part that is not parallelism, which is why "4 shards
beat 1" even on one core.  It is not a smaller *event* heap (the timing
wheel schedules in O(1)); it is the smaller *object* heap each kernel
owns.  The largest such term was CPython's cyclic collector, whose full
passes walked every resident tenant — four shards each walking a quarter
beat one walking all of it.  Shards now freeze their tenants out of the
collector's working set at epoch boundaries (DESIGN §9 "Heap discipline",
EXPERIMENTS §A9), which removed that term from both layouts: both
absolute numbers rose and the ratio fell (2.6x -> 1.8x on 2 vCPUs).
What makes any such number trustworthy is the invariance gate next to
it — more shards change wall-clock only, never results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_kernel_bench import _time_best, calibration, check_against  # noqa: E402

#: Gate configuration — fixed so the committed baseline and every CI run
#: measure the same workload (alerts/s is not scale-invariant enough to
#: compare across population sizes).
USERS = 20_000
SHARD_COUNTS = (1, 4)
SEED = 0
DURATION = 600.0
EPOCH = 60.0
DRAIN = 240.0

ARTIFACT = "BENCH_A4_SHARD"


def run_suite(
    users: int = USERS,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    seed: int = SEED,
) -> tuple[dict[str, dict], list[str]]:
    """Measure every layout; returns ({artifact: payload}, fingerprints)."""
    from repro.experiments.sharded import run_sharded_throughput

    cal_elapsed, cal_units = _time_best(calibration)
    results = [
        run_sharded_throughput(
            shards=count, users=users, seed=seed,
            duration=DURATION, epoch=EPOCH, drain=DRAIN,
        )
        for count in shard_counts
    ]
    metrics: dict[str, float] = {}
    for result in results:
        metrics[f"shards{result.shards}_alerts_per_s"] = (
            result.alerts_per_wall_second
        )
    base, top = results[0], results[-1]
    metrics["shard_parallel_speedup"] = (
        top.alerts_per_wall_second / base.alerts_per_wall_second
    )
    payload = {
        "schema": 1,
        "calibration_eps": cal_units / cal_elapsed,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "config": {
            "users": users,
            "shard_counts": list(shard_counts),
            "seed": seed,
            "duration": DURATION,
            "epoch": EPOCH,
            "drain": DRAIN,
            "delivered": base.delivered,
        },
        "metrics": metrics,
    }
    return {ARTIFACT: payload}, [r.merged_fingerprint for r in results]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=None,
        help=f"write {ARTIFACT}.json here",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE_DIR",
        help="fail (exit 1) if throughput regressed vs the committed baseline",
    )
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument(
        "--users", type=int, default=USERS,
        help="logical population (only the default is baseline-comparable)",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(SHARD_COUNTS),
        help="shard layouts to measure (first is the speedup baseline)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    results, fingerprints = run_suite(
        users=args.users, shard_counts=tuple(args.shards)
    )
    payload = results[ARTIFACT]
    print(f"{ARTIFACT} ({payload['config']['users']:,} users, "
          f"{time.perf_counter() - started:.0f} s):")
    for name, value in payload["metrics"].items():
        unit = "x" if name.endswith("_speedup") else "/s"
        print(f"  {name:28s} {value:>12,.1f} {unit}")

    # Invariance is a correctness gate: identical or the run is wrong.
    if len(set(fingerprints)) != 1:
        print(
            "INVARIANCE FAILURE: merged journal fingerprints differ across "
            f"shard layouts: {fingerprints}",
            file=sys.stderr,
        )
        return 1
    print(f"  merged fingerprint           {fingerprints[0][:16]} "
          f"(identical across {len(fingerprints)} layouts)")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        path = args.out_dir / f"{ARTIFACT}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.check is not None:
        baseline_path = args.check / f"{ARTIFACT}.json"
        if baseline_path.exists():
            recorded = json.loads(baseline_path.read_text()).get("host", {})
            print(f"  cores: baseline {recorded.get('cpu_count', 'unrecorded')}"
                  f" (python {recorded.get('python', 'unrecorded')}), "
                  f"current {payload['host']['cpu_count']} "
                  f"(python {payload['host']['python']})")
        failures = check_against(results, args.check, args.tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"benchmark check passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
