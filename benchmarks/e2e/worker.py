"""One repetition of one workload, in its own interpreter.

``run.py`` starts this file as a fresh subprocess per repetition (a
farm forked from an interpreter that has already run one is measurably
slower, see the README) and reads the single JSON line it prints.

Modes: ``timed`` is the measured run, tracing off; ``setup`` stops after
set-up (extra ``setup_s`` samples are cheap); ``traced`` runs the same
workload under the ledger's profiler, shards inline so one profile sees
workers and coordinator.

Beside the timed run it measures what the host did meanwhile, because on
the shared 2-vCPU guests this runs on that is most of the run-to-run
difference: the seconds the hypervisor withheld from the guest
(``/proc/stat`` steal — up to half of a run's wall here), and the speed
of a fixed pure-Python loop (the one ``run_kernel_bench.calibration``
normalizes A5/A6 with) sampled in CPU time throughout the run.
``metrics.py`` corrects the run's wall by the first and its CPU by the
second; the raw readings stay in the output.  Set-up is a fraction of a
second, too short for either correction, and is reported in CPU seconds
(see the README, "Steadiness").
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import signal
import sys
import time
from contextlib import nullcontext

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _worker_pids() -> list[int]:
    return sorted(child.pid for child in multiprocessing.active_children())


def _proc_cpu(pid: int) -> float:
    """user+sys CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_steal() -> float:
    """Seconds the hypervisor has withheld from this guest's vCPUs so far
    (0 on a host that does not report steal)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


class HostSpeed:
    """Iterations per CPU-second of the calibration loop, while a phase
    runs.

    A sample is ``SAMPLE`` iterations of ``total += index & 7`` timed with
    ``process_time``; one is taken when the phase starts, one every
    ``INTERVAL`` seconds from a ``SIGALRM`` handler (it runs between two
    bytecodes of whatever the main thread is doing, costs under 2 % and
    touches nothing of the simulation), one when it ends.  CPU time, not
    wall: under steal the guest charges part of the stolen time to
    whoever was running, the workload and these samples alike, so their
    ratio is what stays put.
    """

    SAMPLE = 100_000
    INTERVAL = 0.25

    def __init__(self):
        self.iterations = 0
        self.cpu = 0.0

    def sample(self, *_signal_args) -> None:
        started = time.process_time()
        total = 0
        for index in range(self.SAMPLE):
            total += index & 7
        self.cpu += time.process_time() - started
        self.iterations += self.SAMPLE

    def __enter__(self) -> "HostSpeed":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @property
    def cpu_eps(self) -> float:
        return self.iterations / self.cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--mode", choices=("timed", "setup", "traced"),
                        default="timed")
    parser.add_argument(
        "--t0", type=float, required=True,
        help="parent's time.perf_counter() just before it started this "
             "process (CLOCK_MONOTONIC is shared), so the set-up wall "
             "includes interpreter start and imports",
    )
    args = parser.parse_args(argv)

    from workloads import ON_TIME_LIMIT, SIZES, WORKLOADS, percentile

    traced = args.mode == "traced"
    ledger = None
    if traced:
        from ledger import Ledger

        ledger = Ledger()
    imports_rss_kb = _peak_rss_kb()

    def phase(name):
        return ledger.phase(name) if ledger is not None else nullcontext()

    workload = WORKLOADS[args.workload](
        args.seed, SIZES[args.workload][args.scale], inline=traced
    )
    try:
        with phase("setup"):
            workload.setup()
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "mode": args.mode,
            # CPU this process and its shard workers have used since they
            # started: interpreter, imports, input generation, set-up.
            "setup_cpu_s": _self_cpu()
            + sum(_proc_cpu(pid) for pid in _worker_pids()),
            "setup_wall_s": time.perf_counter() - args.t0,
        }
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        pids = _worker_pids()
        workers_before = [_proc_cpu(pid) for pid in pids]
        # The traced pass reports shares and counts, which need no host
        # correction, and its profile should hold the workload only.
        host = HostSpeed()
        with nullcontext() if traced else host:
            steal_before = host_steal()
            cpu_before = _self_cpu()
            started = time.perf_counter()
            with phase("run"):
                workload.run()
            wall = time.perf_counter() - started
            cpu = _self_cpu() - cpu_before
            steal = host_steal() - steal_before
        workers = [
            {
                "cpu_s": _proc_cpu(pid) - before,
                "peak_rss_kb": _proc_peak_rss_kb(pid),
            }
            for pid, before in zip(pids, workers_before)
        ]
        outcome = workload.collect()
    finally:
        workload.close()

    ordered = sorted(outcome.latencies)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        steal_s=steal,
        host_cpu_eps=host.cpu_eps if not traced else None,
        workers=workers,
        imports_rss_kb=imports_rss_kb,
        peak_rss_kb=_peak_rss_kb(),
        offered=outcome.offered,
        received=len(ordered),
        on_time=sum(1 for value in ordered if value <= ON_TIME_LIMIT),
        failed=outcome.failed,
        unaccounted=outcome.unaccounted,
        violations=outcome.violations,
        tenants=outcome.tenants,
        sim_latency_p50_s=percentile(ordered, 0.50),
        sim_latency_p99_s=percentile(ordered, 0.99),
        counts=outcome.counts,
        digest=outcome.digest(),
    )
    if ledger is not None:
        result["ledger"] = ledger.phases
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
