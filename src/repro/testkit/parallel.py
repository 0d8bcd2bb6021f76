"""Deterministic multiprocessing fan-out for seed sweeps.

Every sweep in this repository — :func:`~repro.testkit.sweep.chaos_sweep`,
the E11 failover acceptance sweep, the A4 farm-throughput sweep — is a map
over independent seeded trials: each trial builds its own
:class:`~repro.sim.kernel.Environment` from its own sub-seed, shares no
state with its siblings, and is bit-for-bit deterministic in isolation.
That makes the fan-out embarrassingly parallel *and* safe: running trials
in worker processes cannot change any trial's result, only the wall-clock
time of the whole sweep.

:func:`fanout` is the one primitive: map a picklable function over a list
of work items with a process pool, returning results **in item order**
(``Pool.map`` semantics — completion order never leaks into the output).
A sweep merged from N workers is therefore byte-identical to the same
sweep run sequentially; the ``jobs`` row of ``tests/test_knob_invariance.py``
holds every caller to exactly that.

``jobs=None`` or ``1`` is sequential and in-process, with zero
multiprocessing overhead; ``jobs > 1`` builds one pool for that call and
closes it before returning, so no worker outlives the call.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` argument: None → 1 (sequential)."""
    if jobs is None:
        return 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def _pool_context():
    """Fork keeps worker start cheap and inherits the loaded modules; fall
    back to spawn where fork is unavailable (Windows, some macOS setups)."""
    from multiprocessing import get_all_start_methods, get_context

    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    return get_context(method)


def _named(fn: Callable[[T], R], item: T) -> R:
    """``fn(item)``, but a failure names the item it failed on (a trial
    spec carries its seed and config, a variant name is its own repr) and
    keeps the original as its cause.  The type stays the original's where
    one message builds it, so callers catch what they caught before."""
    try:
        return fn(item)
    except Exception as exc:
        message = f"{exc} (while running {item!r})"
        try:
            named = type(exc)(message)
        except TypeError:  # a constructor that takes more than a message
            named = RuntimeError(f"{type(exc).__name__}: {message}")
        raise named from exc


def fanout(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
) -> list[R]:
    """Map ``fn`` over ``items``; results come back in item order.

    With ``jobs <= 1`` (or fewer than two items) this is a plain in-process
    loop — the zero-overhead path, and the reference behaviour the parallel
    path must reproduce exactly.  With ``jobs > 1`` the items are spread
    over a process pool, one item per task (``chunksize=1``: trials are
    seconds-long sims, so scheduling overhead is noise and the pool
    load-balances trials of uneven duration).

    ``fn`` and each item/result must be picklable when ``jobs > 1`` (they
    cross a process boundary): module-level functions, ``functools.partial``
    over one (how the variant comparisons bind their shared arguments) and
    plain dataclasses qualify, lambdas and closures do not.

    An item that raises fails the call, under either path, with an error
    that names the item's ``repr`` (see :func:`_named`).
    """
    work = list(items)
    call = partial(_named, fn)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(work) < 2:
        return [call(item) for item in work]
    pool = _pool_context().Pool(processes=jobs)
    try:
        return pool.map(call, work, chunksize=1)
    finally:
        pool.close()
        pool.join()

