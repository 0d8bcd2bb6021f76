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

``jobs`` resolution: an explicit ``jobs`` argument wins; otherwise an
active :func:`sweep_pool` context (persistent workers shared by every
``fanout`` call inside the ``with`` block); otherwise 1 (sequential,
in-process, zero multiprocessing overhead).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, TypeVar

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


class SweepPool:
    """A reusable process pool for repeated :func:`fanout` calls.

    A one-shot ``Pool`` per ``fanout`` call is the right default for a
    single sweep, but chained sweeps (e10+e11+e12, the e13 comparison, a
    benchmark session) pay fork+import for every call.  A ``SweepPool``
    keeps the workers alive across calls; since every trial is
    self-contained and deterministic, reusing a worker cannot change any
    result — ``tests/test_parallel_sweep.py`` pins bit-identity against
    the one-shot path.

    The underlying pool is created lazily on the first map that needs it
    (``jobs > 1`` and at least two items), so a ``SweepPool(jobs=1)``
    never forks at all.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)
        self._pool = None
        self._closed = False

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``fanout`` semantics: item order in, item order out."""
        if self._closed:
            raise RuntimeError("sweep pool is closed")
        work = list(items)
        call = partial(_named, fn)
        if self.jobs <= 1 or len(work) <= 1:
            return [call(item) for item in work]
        if self._pool is None:
            self._pool = _pool_context().Pool(processes=self.jobs)
        return self._pool.map(call, work, chunksize=1)

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: The innermost active :func:`sweep_pool`, consulted by :func:`fanout`
#: when the caller passes ``jobs=None``.
_active_pool: Optional[SweepPool] = None


@contextmanager
def sweep_pool(jobs: Optional[int] = None) -> Iterator[SweepPool]:
    """Share one persistent worker pool across every ``fanout`` inside.

    ::

        with sweep_pool(jobs=4):
            run_chaos_experiment(...)      # all three sweeps reuse the
            run_failover_comparison(...)   # same four workers
            run_storm_comparison(...)

    Call sites that pass an explicit ``jobs`` to ``fanout`` are unaffected
    (an explicit argument always wins); nesting restores the outer pool on
    exit.
    """
    global _active_pool
    pool = SweepPool(jobs)
    previous = _active_pool
    _active_pool = pool
    try:
        yield pool
    finally:
        _active_pool = previous
        pool.close()


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

    With ``jobs=None`` inside an active :func:`sweep_pool` context, the
    call reuses the context's persistent workers instead of building a
    fresh pool.

    ``fn`` and each item/result must be picklable when ``jobs > 1`` (they
    cross a process boundary): module-level functions, ``functools.partial``
    over one (how the variant comparisons bind their shared arguments) and
    plain dataclasses qualify, lambdas and closures do not.

    An item that raises fails the call, under either path, with an error
    that names the item's ``repr`` (see :func:`_named`).
    """
    if jobs is None and _active_pool is not None:
        return _active_pool.map(fn, items)
    with SweepPool(jobs) as pool:
        return pool.map(fn, items)


def seed_sweep(
    run_comparison: Callable[..., R],
    seeds: Iterable[int],
    jobs: Optional[int] = None,
    **kwargs,
) -> list[R]:
    """``run_comparison(seed, jobs=1, **kwargs)`` per seed, in seed order.

    Seeds are independent (each builds its own worlds), so ``jobs > 1``
    fans them across a process pool; the merged list is identical to a
    sequential run's.  Nested parallelism is deliberately avoided:
    per-seed comparisons run their variants sequentially (``jobs=1``) so
    the pool is saturated by seeds, not oversubscribed.
    """
    return fanout(partial(run_comparison, jobs=1, **kwargs), seeds, jobs=jobs)
