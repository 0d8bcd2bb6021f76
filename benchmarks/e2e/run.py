"""The end-to-end benchmark: four delivery workloads, ten end-to-end
metrics, and the per-layer cost ledger beneath them.

Report form (what a person runs; every metric printed by name and unit,
one JSON document written, non-zero exit if any output is wrong)::

    python benchmarks/e2e/run.py [--seed N] [--reps N] [--workload NAME]
        [--scale full|quarter|tiny] [--trace-scale quarter|tiny|none]
        [--out FILE]

Driver form (what ``BENCHMARK.json`` names; one JSON result line)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh subprocess (``worker.py``) with
``PYTHONHASHSEED=0``, one at a time.  See README.md for what each
workload and metric means and how to read the ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from layers import REPO_ROOT
from metrics import (
    END_TO_END, GATED, PER_LAYER, WORKLOADS, end_to_end, per_layer,
    quartiles,
)

HERE = Path(__file__).resolve().parent
SRC = REPO_ROOT / "src"
#: Per-(scale, workload) digest of the seed-0 run.
DIGESTS = HERE / "digests.json"
#: Driver form: at least this many timed repetitions per run...
MIN_REPS = 3
#: ...plus this many set-up-only processes, so ``setup_s`` is a median of
#: seven samples or more.
SETUP_SAMPLES = 4
#: Layer shares of the traced run must account for its wall time.
SHARE_TOLERANCE = 0.02
CHILD_TIMEOUT = 170.0
#: Uncorrected readings of a timed repetition kept in the document.
RAW_KEYS = (
    "wall_s", "steal_s", "cpu_s", "workers", "host_cpu_eps", "setup_cpu_s",
    "setup_wall_s",
)
PER_LAYER_UNITS = {metric.name: metric.unit for metric in PER_LAYER}


class ChildFailed(RuntimeError):
    """A worker process crashed, hung or printed no result."""


def run_child(workload: str, seed: int, scale: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--mode", mode,
        "--t0", repr(time.perf_counter()),
    ]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}/{mode}: timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload}/{mode}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def pinned_digest(scale: str, workload: str) -> str | None:
    pins = json.loads(DIGESTS.read_text())
    return pins.get(scale, {}).get(workload)


def check_reps(reps: list[dict], seed: int, scale: str, workload: str) -> list[str]:
    """Everything wrong with a set of repetitions (empty = correct)."""
    problems = []
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(f"digest differs between repetitions: {sorted(digests)}")
    pinned = pinned_digest(scale, workload)
    if seed == 0 and pinned is not None and digests != {pinned}:
        problems.append(
            f"digest {sorted(digests)} is not the committed {pinned}"
        )
    for rep in reps:
        if rep["violations"]:
            problems.append(f"oracle: {rep['violations'][:3]}")
        if rep["failed"]:
            problems.append(f"{rep['failed']} of {rep['offered']} alerts failed")
    return problems


def measure(
    workload: str,
    seed: int,
    scale: str,
    reps: int | None = None,
    seconds: float | None = None,
    setup_samples: int = 0,
) -> dict:
    """Timed repetitions, tracing off.

    Runs ``reps`` repetitions, or — driver form — at least ``MIN_REPS``
    and as many more as it takes for their timed runs to add up to
    ``seconds``; then ``setup_samples`` set-up-only processes.
    """
    done: list[dict] = []
    crashes: list[str] = []

    def more() -> bool:
        if reps is not None:
            return len(done) + len(crashes) < reps
        if crashes:
            return False
        return (
            len(done) < MIN_REPS
            or sum(rep["wall_s"] for rep in done) < seconds
        )

    while more():
        try:
            done.append(run_child(workload, seed, scale, "timed"))
        except ChildFailed as exc:
            crashes.append(str(exc))
    setups = [rep["setup_cpu_s"] for rep in done]
    for _ in range(setup_samples if done else 0):
        try:
            setups.append(
                run_child(workload, seed, scale, "setup")["setup_cpu_s"]
            )
        except ChildFailed as exc:
            crashes.append(str(exc))

    problems = [f"crashed: {text}" for text in crashes]
    problems += check_reps(done, seed, scale, workload) if done else []
    samples = {metric.name: [] for metric in END_TO_END}
    for rep in done:
        for name, value in end_to_end(rep).items():
            samples[name].append(value)
    samples["setup_s"] = setups
    offered = done[0]["offered"] if done else 1
    attempted = sum(rep["offered"] for rep in done) + offered * len(crashes)
    failed = sum(rep["failed"] for rep in done) + offered * len(crashes)
    e2e = {}
    for metric in END_TO_END:
        values = samples[metric.name]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        e2e[metric.name] = {
            "unit": metric.unit, "median": median, "q1": q1, "q3": q3,
            "reps": len(values), "values": values,
        }
    if done:
        # One crashed repetition must show: the ratio is over all of them.
        ratio = failed / attempted
        e2e["failed_ratio"].update(median=ratio, q1=ratio, q3=ratio)
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "latency_samples": done[0]["received"] if done else 0,
        "digest": done[0]["digest"] if done else None,
        "counts": done[0]["counts"] if done else {},
        "e2e": e2e,
        # What the clocks read before any host correction, per repetition.
        "raw": [{key: rep[key] for key in RAW_KEYS} for rep in done],
    }


def trace(workload: str, seed: int, scale: str) -> dict:
    """The traced pass: one untraced and one traced repetition at
    ``scale``, the per-layer metrics and the raw ledger."""
    problems: list[str] = []
    try:
        untraced = run_child(workload, seed, scale, "timed")
        traced = run_child(workload, seed, scale, "traced")
    except ChildFailed as exc:
        return {
            "workload": workload, "seed": seed, "scale": scale,
            "correct": False, "problems": [f"crashed: {exc}"],
            "attempted": 1, "failed": 1, "layers": {}, "ledger": {},
        }
    # Same digest traced and untraced: profiling observed, never steered
    # — and for the shard workload, inline shards equal process shards.
    problems += check_reps([untraced, traced], seed, scale, workload)
    ledger = traced["ledger"]
    shares = sum(row["share"] for row in ledger["run"]["layers"].values())
    if abs(shares - 1.0) > SHARE_TOLERANCE:
        problems.append(f"layer shares sum to {shares:.4f}, not 1")
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "correct": not problems, "problems": problems,
        "attempted": traced["offered"], "failed": traced["failed"],
        "digest": traced["digest"],
        "share_sum": shares,
        "layers": per_layer(traced, untraced),
        "ledger": ledger,
    }


# ----------------------------------------------------------------------
# Driver form
# ----------------------------------------------------------------------


def driver(args) -> int:
    if args.trace:
        result = trace(args.workload, args.seed, args.trace_scale)
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in result["layers"].items()
        }
    else:
        result = measure(
            args.workload, args.seed, args.scale, seconds=args.seconds,
            setup_samples=SETUP_SAMPLES,
        )
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in result["e2e"].items() if name in GATED
        }
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Report form
# ----------------------------------------------------------------------


def environment() -> dict:
    # The same loop BENCH_A5/A6 normalize with; its module imports repro.
    sys.path[:0] = [str(REPO_ROOT / "benchmarks"), str(SRC)]
    from run_kernel_bench import calibration

    started = time.perf_counter()
    units = calibration()
    elapsed = time.perf_counter() - started
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "calibration_eps": units / elapsed,
        "python": platform.python_version(),
        "scheduler": os.environ.get("REPRO_SCHEDULER", "wheel"),
        "git_sha": sha,
    }


def print_report(name: str, measured: dict, traced: dict | None) -> None:
    print(f"\n== {name} (seed {measured['seed']}, scale {measured['scale']}, "
          f"{measured['attempted']} alerts attempted, "
          f"{measured['latency_samples']} latency samples) ==")
    for metric in END_TO_END:
        row = measured["e2e"].get(metric.name)
        if row is None:
            continue
        bound = "exact" if metric.exact else f"±{metric.bound:.0%}"
        print(f"  {metric.name:<22} {row['median']:>14.6g} {metric.unit:<9}"
              f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['reps']}]"
              f"  {metric.better} is better, bound {bound}")
    print(f"  digest {measured['digest']}")
    if traced is not None:
        print(f"  -- ledger (traced at scale {traced['scale']}, "
              f"shares sum {traced.get('share_sum', float('nan')):.4f}) --")
        for metric_name, value in traced["layers"].items():
            print(f"  {metric_name:<40} {value:>14.6g} "
                  f"{PER_LAYER_UNITS[metric_name]}")


def report(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    document = {
        "env": environment(), "seed": args.seed, "scale": args.scale,
        "trace_scale": args.trace_scale, "reps": args.reps, "workloads": {},
    }
    ledgers = {}
    ok = True
    for name in names:
        measured = measure(name, args.seed, args.scale, reps=args.reps)
        traced = None
        if args.trace_scale != "none":
            traced = trace(name, args.seed, args.trace_scale)
            ledgers[name] = traced.pop("ledger")
        print_report(name, measured, traced)
        problems = measured["problems"] + (traced["problems"] if traced else [])
        for problem in problems:
            print(f"  PROBLEM: {problem}")
        ok = ok and not problems
        document["workloads"][name] = {
            "correct": not problems,
            "problems": problems,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "latency_samples": measured["latency_samples"],
            "digest": measured["digest"],
            "counts": measured["counts"],
            "e2e": measured["e2e"],
            "raw": measured["raw"],
            "layers": traced["layers"] if traced else {},
            "trace_digest": traced["digest"] if traced else None,
        }
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        if ledgers:
            Path(f"{out}.trace.json").write_text(
                json.dumps(ledgers, indent=1, sort_keys=True) + "\n"
            )
    print("\nall outputs correct" if ok else "\nOUTPUTS INCORRECT")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--scale", choices=("full", "quarter", "tiny"),
                        default="full")
    parser.add_argument("--trace-scale", choices=("quarter", "tiny", "none"),
                        default="quarter")
    parser.add_argument("--out", help="write the JSON document here "
                        "(the raw ledger goes to <out>.trace.json)")
    parser.add_argument("--seconds", type=float,
                        help="driver form: measure for this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end, 1 = per-layer")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is not None or args.trace is not None:
        if args.workload is None or args.seconds is None or args.trace is None:
            parser.error("driver form needs --workload, --seconds and --trace")
        return driver(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
