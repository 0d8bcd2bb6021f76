"""Standalone kernel benchmark runner: A5 throughput + A6 dead timers.

The runner needs nothing beyond the standard library, emits
machine-readable JSON artifacts, and doubles as the CI regression gate::

    python benchmarks/run_kernel_bench.py --out-dir benchmarks/baselines
    python benchmarks/run_kernel_bench.py --check benchmarks/baselines

Every workload builds on the *public* kernel API only, so the same file
runs unchanged against any kernel revision — that is how the before/after
tables in EXPERIMENTS.md (§A5/§A6) were produced.

CI regression checking compares events-per-second against the committed
baseline after normalizing by a pure-Python calibration loop measured in
the same run; dividing out the calibration ratio cancels most of the
hardware difference between the baseline machine and the CI runner, so
the gate trips on kernel regressions, not on runner lottery.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.sim import Environment, Store

#: Per-workload event counts, sized so each sample runs long enough
#: (hundreds of milliseconds) to dominate timer noise.
N_A5 = 100_000
N_A6_RACES = 20_000
A6_FANOUT = 100
REPEATS = 3


# ----------------------------------------------------------------------
# A5 workloads — raw kernel throughput
# ----------------------------------------------------------------------

def timeout_churn(n: int = N_A5) -> int:
    """Schedule/fire ``n`` timeouts through one process."""
    env = Environment()

    def ticker(env):
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return n


def zero_delay_churn(n: int = N_A5) -> int:
    """``n`` zero-delay hops — the succeed()/immediate-schedule hot path."""
    env = Environment()

    def hopper(env):
        for _ in range(n):
            yield env.timeout(0)

    env.process(hopper(env))
    env.run()
    return n


def store_churn(n: int = N_A5) -> int:
    """``n`` mailbox hand-offs: two processes ping-pong over two stores.

    ``put`` is a plain call, so each hand-off is one put and the one get
    event that wakes the other side — the shape of every inbox in the
    delivery path.
    """
    env = Environment()
    ping, pong = Store(env), Store(env)

    def client(env):
        for index in range(n // 2):
            ping.put(index)
            yield pong.get()

    def server(env):
        for _ in range(n // 2):
            item = yield ping.get()
            pong.put(item)

    env.process(client(env))
    env.process(server(env))
    env.run()
    return n


def process_spawn_churn(n: int = N_A5 // 2) -> int:
    """Spawn many short-lived processes (delivery processes look like this)."""
    env = Environment()

    def short(env):
        yield env.timeout(1.0)

    def spawner(env):
        for _ in range(n):
            env.process(short(env))
            yield env.timeout(0.1)

    env.process(spawner(env))
    env.run()
    return n


# ----------------------------------------------------------------------
# A6 workloads — the ack-heavy dead-timer pattern
# ----------------------------------------------------------------------

def _responder(env, ack):
    yield env.timeout(0.1)
    ack.succeed(env.now)


def dead_timer_races(n_races: int = N_A6_RACES, fanout: int = A6_FANOUT) -> int:
    """The DeliveryRouter pattern: ``any_of([ack, timeout])``, ack wins.

    ``fanout`` tenants each run ``n_races / fanout`` back-to-back ack
    races with a 600 s guard timeout that always loses.  A kernel without
    timer cancellation accumulates one dead heap entry per race and then
    drains all of them at the end; a cancelling kernel keeps the heap at
    O(fanout).
    """
    env = Environment()

    def tenant(env, races):
        for _ in range(races):
            ack = env.event()
            env.process(_responder(env, ack))
            guard = env.timeout(600.0)
            yield env.any_of([ack, guard])

    for _ in range(fanout):
        env.process(tenant(env, n_races // fanout))
    env.run()
    return n_races


def polluted_races(n_races: int = N_A6_RACES, fanout: int = A6_FANOUT) -> int:
    """The same race hand-rolled so the losing timeout always stays live.

    This reproduces the pre-cancellation kernel's behaviour *on any
    kernel* (the guard keeps a callback, so it is never orphaned), so the
    cost of carrying dead timers stays measured beside the cancelling race.
    """
    env = Environment()

    def tenant(env, races):
        for _ in range(races):
            ack = env.event()
            env.process(_responder(env, ack))
            guard = env.timeout(600.0)
            race = env.event()

            def settle(evt, race=race):
                if not race.triggered:
                    race.succeed(evt.value)

            ack.callbacks.append(settle)
            guard.callbacks.append(settle)
            yield race

    for _ in range(fanout):
        env.process(tenant(env, n_races // fanout))
    env.run()
    return n_races


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def calibration(n: int = 2_000_000) -> int:
    """Fixed pure-Python loop used to normalize across machines."""
    total = 0
    for index in range(n):
        total += index & 7
    assert total > 0
    return n


def _time_best(fn, *args) -> tuple[float, int]:
    """Best-of-``REPEATS`` wall time; returns (seconds, work units)."""
    best = float("inf")
    units = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        units = fn(*args)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, units


A5_WORKLOADS = {
    "timeout_churn_eps": timeout_churn,
    "zero_delay_eps": zero_delay_churn,
    "store_churn_eps": store_churn,
    "process_spawn_eps": process_spawn_churn,
}

A6_WORKLOADS = {
    "dead_timer_races_per_s": dead_timer_races,
    "polluted_races_per_s": polluted_races,
}


def run_suite(scale: float = 1.0) -> dict[str, dict]:
    """Run every workload; returns {"BENCH_A5": {...}, "BENCH_A6": {...}}."""
    cal_elapsed, cal_units = _time_best(calibration)
    cal_eps = cal_units / cal_elapsed

    def measure(workloads):
        metrics = {}
        for name, fn in workloads.items():
            elapsed, units = _time_best(
                fn, max(1000, int(fn.__defaults__[0] * scale))
            )
            metrics[name] = units / elapsed
        return metrics

    a5 = measure(A5_WORKLOADS)
    a6 = measure(A6_WORKLOADS)
    return {
        "BENCH_A5": {"schema": 1, "calibration_eps": cal_eps, "metrics": a5},
        "BENCH_A6": {"schema": 1, "calibration_eps": cal_eps, "metrics": a6},
    }


def check_against(
    results: dict[str, dict], baseline_dir: Path, tolerance: float
) -> list[str]:
    """Compare normalized throughput to committed baselines.

    A metric regresses when ``current / hardware_ratio`` falls more than
    ``tolerance`` below the baseline, where ``hardware_ratio`` is the
    current-vs-baseline calibration quotient.
    """
    failures = []
    for artifact, current in results.items():
        path = baseline_dir / f"{artifact}.json"
        if not path.exists():
            failures.append(f"missing baseline {path}")
            continue
        baseline = json.loads(path.read_text())
        hardware_ratio = current["calibration_eps"] / baseline["calibration_eps"]
        for name, base_value in baseline["metrics"].items():
            value = current["metrics"].get(name)
            if value is None:
                failures.append(f"{artifact}: metric {name} disappeared")
                continue
            normalized = value / hardware_ratio
            if normalized < base_value * (1.0 - tolerance):
                failures.append(
                    f"{artifact}: {name} regressed "
                    f"{normalized:,.0f} < {base_value:,.0f} "
                    f"(tolerance {tolerance:.0%}, "
                    f"hardware ratio {hardware_ratio:.2f})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=None,
        help="write BENCH_A5.json / BENCH_A6.json here",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE_DIR",
        help="fail (exit 1) if throughput regressed vs committed baselines",
    )
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply workload sizes (use <1 for smoke runs)",
    )
    args = parser.parse_args(argv)

    results = run_suite(scale=args.scale)
    for artifact, payload in results.items():
        print(f"{artifact}:")
        for name, value in payload["metrics"].items():
            print(f"  {name:28s} {value:>12,.1f} /s")
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for artifact, payload in results.items():
            path = args.out_dir / f"{artifact}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
    if args.check is not None:
        failures = check_against(results, args.check, args.tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"benchmark check passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
