"""The per-layer cost ledger: where one phase's wall time went.

A :class:`Ledger` wraps a phase of a workload (set-up, the timed run) in
a ``cProfile`` profiler and a ``gc.callbacks`` hook, both owned by the
benchmark, and afterwards charges every profiled function to the layer
that owns its source file (:mod:`layers`).  Nothing inside ``src/repro``
is instrumented: the layers are measured from outside.

Per layer it reports calls, self time, the inclusive time of calls that
*enter* the layer from another one, and the caller-layer -> callee-layer
edge matrix.  Collector pauses are lifted out of the function that
happened to trigger them and reported as their own ``runtime.gc`` layer.
Self times are inflated by the profiler (``trace.overhead_x`` says by
how much); shares and per-alert call counts are the stable part.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from layers import LAYERS, RUNTIME_GC, RUNTIME_OTHER, layer_of

#: probe name -> (module, dotted attribute).  Probes are public entry
#: points (and the kernel's innermost calls) whose call counts or
#: inclusive times feed the named per-layer metrics.  A probe whose
#: attribute is gone reads as zero calls and is listed under
#: ``missing_probes`` in the trace.
PROBES: dict[str, tuple[str, str]] = {
    "process.spawn": ("repro.sim.process", "Process.__init__"),
    "process.resume": ("repro.sim.process", "Process._resume"),
    "process.step": ("repro.sim.process", "Process._step"),
    "wheel.schedule": ("repro.sim.wheel", "WheelScheduler.schedule"),
    "wheel.timeout": ("repro.sim.wheel", "WheelScheduler.timeout"),
    "wheel.cancelled": ("repro.sim.wheel", "WheelScheduler.note_cancelled"),
    "heap.schedule": ("repro.sim.scheduler", "HeapScheduler.schedule"),
    "heap.timeout": ("repro.sim.scheduler", "HeapScheduler.timeout"),
    "heap.cancelled": ("repro.sim.scheduler", "HeapScheduler.note_cancelled"),
    "timeout.construct": ("repro.sim.events", "Timeout.__init__"),
    "farm.add_user": ("repro.core.farm", "BuddyFarm.add_user"),
    "shard.tenant": ("repro.core.shard", "ShardWorker.tenant"),
    "shard.run": ("repro.core.shard", "ShardedFarm.run"),
    "shard.worker_epoch": ("repro.core.shard", "ShardWorker.run_epoch"),
}


def _resolve_probes() -> tuple[dict[object, str], list[str]]:
    """code object -> probe name, plus the probes that no longer exist."""
    by_code: dict[object, str] = {}
    missing: list[str] = []
    for name, (module_name, dotted) in PROBES.items():
        try:
            target = importlib.import_module(module_name)
            for part in dotted.split("."):
                target = getattr(target, part)
            by_code[target.__code__] = name
        except (ImportError, AttributeError):
            missing.append(name)
    return by_code, missing


class _GcWatch:
    """``gc.callbacks`` hook: collector wall time, by generation and by
    the layer whose code triggered the collection."""

    def __init__(self):
        self.wall = 0.0
        self.collections = [0, 0, 0]
        self.by_layer: dict[str, float] = defaultdict(float)
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._started
        self.wall += elapsed
        self.collections[info["generation"]] += 1
        trigger = sys._getframe(1).f_code.co_filename
        self.by_layer[layer_of(trigger)] += elapsed


def _code_layer(code) -> str:
    # Builtins and C methods appear as strings, not code objects.
    if isinstance(code, str):
        return RUNTIME_OTHER
    return layer_of(code.co_filename)


def _attribute(entries, watch: _GcWatch, wall: float) -> dict:
    """Fold raw profiler entries into the per-layer table."""
    probe_codes, missing = _resolve_probes()
    calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
    self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    inclusive_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
    probes = {name: {"calls": 0, "inclusive_s": 0.0} for name in PROBES}
    for entry in entries:
        layer = _code_layer(entry.code)
        calls[layer] += entry.callcount
        self_s[layer] += entry.inlinetime
        probe = probe_codes.get(entry.code)
        if probe is not None:
            probes[probe]["calls"] += entry.callcount
            probes[probe]["inclusive_s"] += entry.totaltime
        for sub in entry.calls or ():
            callee = _code_layer(sub.code)
            edge = edges[(layer, callee)]
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime
            if callee != layer:
                inclusive_s[callee] += sub.totaltime
    # A collection pauses whichever call allocated last; move that time
    # out of its layer and into runtime.gc.  The profiler charged the
    # pause to the innermost profiled call: the function whose frame the
    # watch saw, or a builtin it was in (runtime.other), which is where
    # whatever the frame's layer cannot cover is taken from.
    for layer, paused in watch.by_layer.items():
        covered = min(paused, self_s[layer])
        self_s[layer] -= covered
        self_s[RUNTIME_OTHER] = max(
            0.0, self_s[RUNTIME_OTHER] - (paused - covered)
        )
    self_s[RUNTIME_GC] = watch.wall
    calls[RUNTIME_GC] = sum(watch.collections)
    inclusive_s[RUNTIME_GC] = watch.wall
    return {
        "wall_s": wall,
        "layers": {
            layer: {
                "calls": calls[layer],
                "self_s": self_s[layer],
                "inclusive_s": inclusive_s[layer],
                "share": self_s[layer] / wall if wall > 0 else 0.0,
            }
            for layer in LAYERS
        },
        "edges": [
            [caller, callee, count, seconds]
            for (caller, callee), (count, seconds) in sorted(edges.items())
        ],
        "probes": probes,
        "missing_probes": missing,
        "gc": {"wall_s": watch.wall, "collections": list(watch.collections)},
    }


class Ledger:
    """Profiles named phases; ``phases[name]`` holds each one's table."""

    def __init__(self):
        self.phases: dict[str, dict] = {}

    @contextmanager
    def phase(self, name: str):
        profiler = cProfile.Profile()
        watch = _GcWatch()
        gc.callbacks.append(watch)
        started = time.perf_counter()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            wall = time.perf_counter() - started
            gc.callbacks.remove(watch)
        self.phases[name] = _attribute(profiler.getstats(), watch, wall)
