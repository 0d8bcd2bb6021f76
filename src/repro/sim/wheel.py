"""Hierarchical timing-wheel scheduler backend.

The delivery stack's timers are overwhelmingly *short*: ack guards of
seconds to minutes, watchdog probes, channel transit delays.  A binary
heap pays O(log n) per schedule for all of them; the wheel pays O(1) by
hashing each timer's deadline into a slot of a circular bucket array,
with two coarser levels cascading behind it for the long tail (lease
expiries, nightly rejuvenation horizons) and a plain heap as the final
overflow for anything beyond the wheel's ~48-day window (and for
``inf``-delay sentinels).

Geometry
--------

Time is quantized into ticks of :data:`TICK` = 1 s.  The tick size is a
*bucketing* parameter only — pop order always comes from the exact
``(time, sequence)`` tuples, buckets are consumed in strictly increasing
time windows for any floor-based index, and sub-tick neighbours simply
share a bucket whose entries the ``_due`` heap orders precisely.  One
second matches the dominant timer population (second-scale ack guards,
probe timeouts, transit delays), so consecutive short timers land in
consecutive slots and the level-0 scan almost never walks empty slots.
Each of the three levels has 256 slots (8 bits of the absolute tick
index ``idx = int(time)``):

- level 0: 1 tick/slot    → covers the ~4.3 min page around the cursor;
- level 1: 256 ticks/slot → covers ~18 h;
- level 2: 64 Ki ticks/slot → covers ~194 days;
- overflow heap: everything beyond, plus non-finite deadlines.

A per-level occupancy bitmask (one int, bit k = slot k non-empty) turns
"find the next non-empty slot" into two arithmetic ops:
``(shifted & -shifted).bit_length() - 1`` isolates the lowest set bit.

Determinism
-----------

The wheel must reproduce the heap backend's merged ``(time, sequence)``
pop order bit-for-bit.  Slot buckets are unordered, so a slot is never
consumed directly: when ``_due`` — a small heap ordered by the exact
``(time, sequence)`` key — runs dry, :meth:`_refill_due` *stages* the
cursor's whole remaining level-0 page into it and retires the page (the
cursor jumps to the page end).  The invariant chain

    due entries < wheel entries <= overflow entries   (by (time, seq))

makes the pop decision a two-way comparison between the zero-delay FIFO
head and the due head, exactly like heap-vs-FIFO in the reference
backend.  Four rules keep the chain intact:

- *Page-wise staging*: staging takes every occupied slot of the current
  page at once, so wheel entries always live in pages strictly after
  the cursor — later in time than anything staged.  One heapify orders
  the page exactly; a page is at most 256 s of deadlines, so the heap
  stays small and pops are one C call.
- *Stragglers*: a schedule landing at ``idx < cur`` (its page was
  already staged) is heappushed straight into ``_due``, which orders it
  exactly among whatever is staged.  Because the cursor retires a full
  page at a time, this is the **dominant path** in steady short-timer
  churn — one exact-ordered C ``heappush``, the same cost as the
  reference heap — while far-future schedules still get O(1) slot
  placement and never touch the heap until their page is current.
- *Cascades*: when a level-0 page is staged, the level-1 slot owning
  the *next* page is scattered into level 0 (and level-2 slots into
  levels 1/0) before any of its entries can be staged, so coarse slots
  never bypass fine ordering.
- *Window migration*: when the whole wheel empties, the cursor jumps to
  the overflow head and every overflow entry inside the new level-2
  window is re-placed into the wheel.  Non-finite deadlines never
  migrate — they are popped directly from the overflow heap only when
  nothing finite remains anywhere.

``_due`` keeps a **stable list identity** (refills use ``due[:] = ...``)
because the dispatch loop holds a local alias across callbacks, and a
callback may cancel enough timers to trigger compaction mid-dispatch.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event, Timeout
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Environment

_INFINITY = float("inf")

#: Seconds per tick.  A deadline lands in slot ``int(time)``, whose
#: window is ``[k*TICK, (k+1)*TICK)``.  Granularity only — see the
#: module docstring; ordering never depends on the tick size.
TICK = 1.0
#: 1 / TICK.  With TICK = 1 the index is just ``int(time)``.
SCALE = 1.0
#: Slots per level (8 index bits each, 3 levels).
SLOTS = 256
LEVELS = 3
#: Ticks covered by the wheel before the overflow heap takes over.
WHEEL_SPAN_TICKS = SLOTS ** LEVELS


class WheelScheduler(Scheduler):
    """O(1)-schedule backend: 3-level, 256-slot hierarchical wheel."""

    name = "wheel"

    __slots__ = (
        "_lv0", "_lv1", "_lv2", "_occ0", "_occ1", "_occ2",
        "_due", "_overflow", "_cur", "_cur_time", "_wheel_count",
    )

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._lv0: list[list] = [[] for _ in range(SLOTS)]
        self._lv1: list[list] = [[] for _ in range(SLOTS)]
        self._lv2: list[list] = [[] for _ in range(SLOTS)]
        self._occ0 = 0
        self._occ1 = 0
        self._occ2 = 0
        #: Staged entries in exact (time, sequence) heap order.  The list
        #: identity is stable for the scheduler's lifetime.
        self._due: list[tuple[float, int, Event]] = []
        #: Beyond-window and non-finite deadlines, plain (time, seq, ev) heap.
        self._overflow: list[tuple[float, int, Event]] = []
        #: Next absolute tick index to examine (never decreases).
        self._cur = 0
        #: ``float(_cur)``, kept in lockstep: deadlines below it are
        #: stragglers, detected with one float compare instead of an
        #: ``int()`` call (``int(t) < cur  iff  t < float(cur)`` for the
        #: integer ``cur``).  Update both or neither.
        self._cur_time = 0.0
        #: Entries currently held in the three levels (not due/overflow).
        self._wheel_count = 0

    # -- placement ------------------------------------------------------

    def _insert(self, entry: tuple[float, int, Event], time: float) -> None:
        """Place ``entry`` by deadline: due (straggler), a level, or overflow."""
        if time == _INFINITY:
            heappush(self._overflow, entry)
            return
        idx = int(time)
        cur = self._cur
        if idx < cur:
            # Straggler: its page was already staged.  The _due heap
            # orders it exactly among whatever is already staged.
            heappush(self._due, entry)
        elif idx >> 8 == cur >> 8:
            slot = idx & 255
            self._lv0[slot].append(entry)
            self._occ0 |= 1 << slot
            self._wheel_count += 1
        elif idx >> 16 == cur >> 16:
            slot = (idx >> 8) & 255
            self._lv1[slot].append(entry)
            self._occ1 |= 1 << slot
            self._wheel_count += 1
        elif idx >> 24 == cur >> 24:
            slot = (idx >> 16) & 255
            self._lv2[slot].append(entry)
            self._occ2 |= 1 << slot
            self._wheel_count += 1
        else:
            heappush(self._overflow, entry)

    # -- scheduling -----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing at ``now + delay``."""
        if delay == 0.0:
            seq = self._sequence + 1
            self._sequence = seq
            self._immediate.append((self._now, seq, event))
        elif delay > 0.0:
            seq = self._sequence + 1
            self._sequence = seq
            time = self._now + delay
            self._insert((time, seq, event), time)
        elif delay < 0:
            raise ValueError(
                f"cannot schedule into the past (delay={delay!r})"
            )
        else:
            raise ValueError(
                f"cannot schedule at delay={delay!r}: NaN never compares, "
                "it would corrupt the queue order"
            )

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Pooled Timeout factory with level-0 placement inlined.

        Pooled timers are clean at release, so only the per-use fields
        (``callbacks``, ``_value``, ``delay``) are written here.
        """
        free = self._free_timeouts
        if free and delay >= 0.0:  # NaN and negatives fall through
            timer = free.pop()
            timer.callbacks = []
            timer._value = value
            timer.delay = delay
            seq = self._sequence + 1
            self._sequence = seq
            if delay == 0.0:
                self._immediate.append((self._now, seq, timer))
            else:
                time = self._now + delay
                if time < self._cur_time:
                    # Hot case: the deadline lands inside the page being
                    # consumed (staging retired it wholesale), so it
                    # joins the staged heap directly — one exact-ordered
                    # C heappush, the same cost as the reference
                    # backend's schedule.  One float compare stands in
                    # for the straggler index test (see _cur_time).
                    heappush(self._due, (time, seq, timer))
                else:
                    try:
                        # int(inf) raises instead of costing every
                        # finite deadline a comparison (the try is free
                        # on 3.11+).  NaN cannot reach here: it fails
                        # the delay >= 0.0 guard above and falls through
                        # to the constructor.
                        idx = int(time)
                    except OverflowError:
                        heappush(self._overflow, (time, seq, timer))
                    else:
                        cur = self._cur
                        if idx >> 8 == cur >> 8:
                            # A short timer in the next (unstaged) part
                            # of the current page: O(1) slot placement.
                            slot = idx & 255
                            self._lv0[slot].append((time, seq, timer))
                            self._occ0 |= 1 << slot
                            self._wheel_count += 1
                        else:
                            self._insert((time, seq, timer), time)
            self.pool.reused += 1
            return timer
        return Timeout(self.env, delay, value)

    # -- staging --------------------------------------------------------

    def _cross_boundary(self) -> None:
        """Level-0 staging just walked the cursor onto a page boundary.

        The coarse slots owning the new position must cascade *now*, not
        when the scan next looks for them: the level-1/2 scans start
        strictly after the cursor's own slot (entries behind it would
        break the merged order), and fresh placements for the new page
        go straight to level 0 — staging those ahead of coarser entries
        for the same page would run the clock backwards.
        """
        cur = self._cur
        if (cur >> 8) & 255 == 0:
            if (cur >> 16) & 255 == 0:
                # Walked into a new level-2 window (off the very end of
                # the wheel): the levels are empty, but overflow entries
                # inside the new window must come home before any new
                # placement can be staged past them.
                overflow = self._overflow
                window = cur >> 24
                insert = self._insert
                while overflow:
                    time = overflow[0][0]
                    if time == _INFINITY or int(time) >> 24 != window:
                        break
                    insert(heappop(overflow), time)
                return
            # New level-1 page: cascade its level-2 slot (first-page
            # entries skip level 1 entirely — its scan would miss them).
            pos2 = (cur >> 16) & 255
            bit2 = 1 << pos2
            if self._occ2 & bit2:
                self._occ2 &= ~bit2
                bucket = self._lv2[pos2]
                lv0, lv1 = self._lv0, self._lv1
                bits0 = bits1 = 0
                first_page = cur >> 8
                for entry in bucket:
                    idx = int(entry[0])
                    if idx >> 8 == first_page:
                        s = idx & 255
                        lv0[s].append(entry)
                        bits0 |= 1 << s
                    else:
                        s = (idx >> 8) & 255
                        lv1[s].append(entry)
                        bits1 |= 1 << s
                self._occ0 |= bits0
                self._occ1 |= bits1
                bucket.clear()
            return
        # New page within the current level-1 page: cascade its slot.
        pos1 = (cur >> 8) & 255
        bit1 = 1 << pos1
        if self._occ1 & bit1:
            self._occ1 &= ~bit1
            bucket = self._lv1[pos1]
            lv0 = self._lv0
            bits = 0
            for entry in bucket:
                s = int(entry[0]) & 255
                lv0[s].append(entry)
                bits |= 1 << s
            self._occ0 |= bits
            bucket.clear()

    def _refill_due(self) -> bool:
        """Stage the next occupied slot (or overflow window) into ``_due``.

        Returns True when ``_due`` is non-empty afterwards; False when
        the wheel is empty and the overflow holds nothing finite.
        """
        due = self._due
        while True:
            if due:
                # A migration below (or a current-tick direct insert it
                # triggered) already staged entries.
                return True
            cur = self._cur
            occ0 = self._occ0
            if occ0:
                # Page-wise staging: pull every occupied slot of the
                # current page into _due at once and retire the page.
                # Occupied slots are all at or after the cursor's
                # position (earlier placements became stragglers), and
                # after the boundary cascade below every wheel entry
                # lives in a strictly later page, so one heapify gives
                # the exact merged order.
                lv0 = self._lv0
                bits = occ0
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    bucket = lv0[bit.bit_length() - 1]
                    due.extend(bucket)
                    bucket.clear()
                if len(due) > 1:
                    heapify(due)
                self._wheel_count -= len(due)
                self._occ0 = 0
                cur = (cur & ~255) + 256
                self._cur = cur
                self._cur_time = float(cur)
                # The cursor is now on the next page boundary: cascade
                # the slots owning it before anything else runs.
                self._cross_boundary()
                return True
            occ1 = self._occ1
            if occ1:
                # Level-0 page exhausted: cascade the next occupied
                # level-1 slot.  All its entries share one level-0 page,
                # so they scatter directly into level 0.
                pos = ((cur >> 8) & 255) + 1
                shifted = occ1 >> pos if pos < 256 else 0
                if shifted:
                    slot = pos + ((shifted & -shifted).bit_length() - 1)
                    bucket = self._lv1[slot]
                    self._occ1 = occ1 & ~(1 << slot)
                    page = ((cur >> 16) << 8) + slot
                    cur = page << 8
                    self._cur = cur
                    self._cur_time = float(cur)
                    lv0 = self._lv0
                    bits = 0
                    for entry in bucket:
                        s = int(entry[0]) & 255
                        lv0[s].append(entry)
                        bits |= 1 << s
                    self._occ0 = bits
                    bucket.clear()
                    continue
            occ2 = self._occ2
            if occ2:
                # Level-1 page exhausted: cascade the next occupied
                # level-2 slot into levels 1/0 (entries in the window's
                # first level-0 page must skip level 1, or the level-1
                # scan — which starts *after* the cursor's slot — would
                # bypass them).
                pos = ((cur >> 16) & 255) + 1
                shifted = occ2 >> pos if pos < 256 else 0
                if shifted:
                    slot = pos + ((shifted & -shifted).bit_length() - 1)
                    bucket = self._lv2[slot]
                    self._occ2 = occ2 & ~(1 << slot)
                    sup = ((cur >> 24) << 8) + slot
                    cur = sup << 16
                    self._cur = cur
                    self._cur_time = float(cur)
                    lv0, lv1 = self._lv0, self._lv1
                    bits0 = bits1 = 0
                    first_page = cur >> 8
                    for entry in bucket:
                        idx = int(entry[0])
                        if idx >> 8 == first_page:
                            s = idx & 255
                            lv0[s].append(entry)
                            bits0 |= 1 << s
                        else:
                            s = (idx >> 8) & 255
                            lv1[s].append(entry)
                            bits1 |= 1 << s
                    self._occ0 = bits0
                    self._occ1 = bits1
                    bucket.clear()
                    continue
            # Wheel empty: migrate the overflow's next finite window.
            overflow = self._overflow
            while overflow and overflow[0][2]._cancelled:
                # Dead long timers must not force a pointless migration.
                heappop(overflow)
                self._dead -= 1
            if not overflow:
                return False
            head_time = overflow[0][0]
            if head_time == _INFINITY:
                # inf deadlines never enter the wheel; the dispatch loop
                # pops them straight off the overflow heap.
                return False
            cur = int(head_time)
            self._cur = cur
            self._cur_time = float(cur)
            window = cur >> 24
            insert = self._insert
            while overflow:
                time = overflow[0][0]
                if time == _INFINITY or int(time) >> 24 != window:
                    break
                entry = heappop(overflow)
                insert(entry, time)
            # Loop around: the head's slot is now occupied (or it was a
            # tombstone that _insert placed and the next scan will stage
            # and discard).

    # -- tombstones -----------------------------------------------------

    def note_cancelled(self) -> None:
        """A queued entry became a tombstone; compact when they dominate."""
        self._dead += 1
        total = (len(self._immediate) + len(self._due)
                 + self._wheel_count + len(self._overflow))
        if self._dead * 2 > total:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one occupancy-guided pass.

        ``_immediate`` and ``_due`` are mutated in place — the dispatch
        loop holds local aliases and compaction can run mid-callback.
        """
        immediate = self._immediate
        if immediate:
            live = [e for e in immediate if not e[2]._cancelled]
            immediate.clear()
            immediate.extend(live)
        due = self._due
        if due:
            due[:] = [e for e in due if not e[2]._cancelled]
            heapify(due)
        overflow = self._overflow
        if overflow:
            overflow[:] = [e for e in overflow if not e[2]._cancelled]
            heapify(overflow)
        count = 0
        for level in range(3):
            wheel = (self._lv0, self._lv1, self._lv2)[level]
            occ = (self._occ0, self._occ1, self._occ2)[level]
            new_occ = 0
            while occ:
                bit = occ & -occ
                occ ^= bit
                bucket = wheel[bit.bit_length() - 1]
                bucket[:] = [e for e in bucket if not e[2]._cancelled]
                if bucket:
                    new_occ |= bit
                    count += len(bucket)
            if level == 0:
                self._occ0 = new_occ
            elif level == 1:
                self._occ1 = new_occ
            else:
                self._occ2 = new_occ
        self._wheel_count = count
        self._dead = 0

    # -- inspection -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return (len(self._immediate) + len(self._due) + self._wheel_count
                + len(self._overflow) - self._dead)

    # -- dispatch -------------------------------------------------------

    def drain(self, stop_at: float) -> None:
        """Process live entries until the clock would pass ``stop_at``.

        Identical contract to the heap backend's drain; the only change
        is where the next delayed entry comes from (the staged ``_due``
        heap, refilled slot by slot).  Beyond-horizon entries are pushed
        back where they were popped from (``_due`` or the overflow), so
        a later ``run()`` sees the same (time, sequence) keys.
        """
        immediate = self._immediate
        due = self._due
        lv0 = self._lv0
        pool = self.pool
        free_timeouts = pool.timeouts
        free_events = pool.events
        max_pooled = pool.max_size
        refs = getrefcount
        pop_heap = heappop
        while True:
            if due:
                if immediate and immediate[0] < due[0]:
                    entry = immediate.popleft()
                else:
                    entry = pop_heap(due)
            else:
                occ0 = self._occ0
                if occ0:
                    # Inlined page-wise staging (the overwhelmingly
                    # common refill, see _refill_due): retire the whole
                    # current page into _due and advance the cursor to
                    # the next page boundary.
                    bits = occ0
                    while bits:
                        bit = bits & -bits
                        bits ^= bit
                        bucket = lv0[bit.bit_length() - 1]
                        due.extend(bucket)
                        bucket.clear()
                    count = len(due)
                    self._wheel_count -= count
                    self._occ0 = 0
                    cur = (self._cur & ~255) + 256
                    self._cur = cur
                    self._cur_time = float(cur)
                    if count == 1 and not immediate:
                        # Singleton fast path: the page's only entry is
                        # provably next (nothing staged, no zero-delay
                        # work pending) — consume it without a round
                        # trip through the _due heap.
                        entry = due[0]
                        due.clear()
                        self._cross_boundary()
                    else:
                        if count > 1:
                            heapify(due)
                        self._cross_boundary()
                        continue
                else:
                    if ((self._occ1 or self._occ2 or self._overflow)
                            and self._refill_due()):
                        continue
                    if immediate:
                        entry = immediate.popleft()
                    elif self._overflow:
                        # Only non-finite (or dead) deadlines remain.
                        # Tombstones and the horizon are handled right
                        # here, so the shared path below never needs to
                        # know an entry's origin.
                        entry = pop_heap(self._overflow)
                        event = entry[2]
                        if event._cancelled:
                            self._dead -= 1
                            if (event.__class__ is Timeout
                                    and refs(event) == 3
                                    and len(free_timeouts) < max_pooled):
                                event._cancelled = False
                                free_timeouts.append(event)
                            continue
                        if entry[0] > stop_at:
                            heappush(self._overflow, entry)
                            return
                    else:
                        return
            time, _seq, event = entry
            if event._cancelled:
                self._dead -= 1
                if (event.__class__ is Timeout and refs(event) == 3
                        and len(free_timeouts) < max_pooled):
                    event._cancelled = False  # clean at release
                    free_timeouts.append(event)
                continue
            if time > stop_at:
                # Popped from _due or the singleton fast path (which
                # left _due empty); push back with the original key —
                # the next drain pops it first again.  Immediates are
                # <= now <= stop_at and overflow pops checked the
                # horizon at their own branch; neither lands here.
                heappush(due, entry)
                return
            self._now = time
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event.value
            cls = event.__class__
            if cls is Timeout:
                # A processed, uncancelled Timeout is already clean: it
                # can never have failed (it triggers at construction).
                if refs(event) == 3 and len(free_timeouts) < max_pooled:
                    free_timeouts.append(event)
            elif cls is Event:
                if refs(event) == 3 and len(free_events) < max_pooled:
                    if not event._ok or event._defused:
                        event._ok = True  # clean at release
                        event._defused = False
                    free_events.append(event)
