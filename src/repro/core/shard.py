"""Sharded farm-of-farms: multi-process tenant sharding with a bridge.

:class:`~repro.core.farm.BuddyFarm` lifted SIMBA's one-MAB-per-user design
to thousands of tenants in a single kernel, and the timing-wheel scheduler
made per-kernel work cheap — but one Python process still tops out at one
core.  This module breaks that ceiling the way *Reliable Messaging to
Millions of Users with MigratoryData* (PAPERS.md) does: partition users
across long-lived cooperating shard processes, each a full ``BuddyFarm`` +
kernel of its own, and bridge the traffic that crosses shards.

Four pieces compose:

- :class:`ConsistentHashRing` — deterministic tenant placement.  Every
  shard owns ``vnodes`` points on a 64-bit ring hashed with BLAKE2b (never
  Python's salted ``hash``), so placement is identical in every process and
  every run.  Adding shards moves only the keys that land on the new
  shard's points (monotone remapping).
- :class:`ShardWorker` — one shard's half of the command/response pipe
  protocol: a long-lived ``SimbaWorld`` + ``BuddyFarm`` whose kernel is
  advanced epoch by epoch on command, materializing tenants lazily when
  their first traffic arrives.  Workers are plain objects, so tests drive
  them inline; production wraps them in worker processes.
- :class:`ShardedFarm` — the coordinator.  It spawns the workers, drives
  the **deterministic per-epoch drain**: every epoch it advances all shards
  in parallel to the epoch boundary, gathers each shard's outbound
  :class:`BridgeEnvelope` batch, sorts the union into one global order, and
  re-injects each envelope into its recipient's shard for the next epoch.
- :func:`placement_report` — reads the per-shard load counters the
  rollup carries and reports which shards, if any, run hot.

Why the result is bit-identical for any shard count (including 1):

1. **Placement and workload are keyed by tenant name**, never by creation
   order or local index: the ring hashes names, per-tenant randomness comes
   from name-keyed RNG streams (identical in every shard world built from
   the same seed), and alert ids are explicit, not global-counter-derived.
2. **Cross-shard sends are virtual-time-stamped and epoch-quantized**: an
   envelope sent at virtual time *t* is delivered at exactly
   ``t + bridge_latency`` with ``bridge_latency >= epoch``, so its delivery
   time is a pure function of *t* — independent of which shard the
   recipient lives on — and it always lands in a *later* epoch than the one
   that produced it (the conservative-lookahead rule of parallel
   discrete-event simulation).
3. **Injection order is globally sorted**: the coordinator orders every
   epoch's envelopes by ``(deliver_at, origin, seq)`` before partitioning,
   so two envelopes reaching the same shard arrive in the same relative
   order whether that shard hosts 1/N of the users or all of them.
4. **Shared channel substrates must not leak interleaving**: within one
   shard world the IM/email/SMS services are shared by all local tenants,
   so sharded runs use zero-variance latency models (``sigma=0`` draws no
   randomness) and zero loss — per-tenant behaviour then depends only on
   that tenant's own traffic and name-keyed streams.

Under those rules each tenant's journal is a pure function of the seed and
the tenant's name, so the merged journal fingerprint is identical for any
partition of the tenant set.  ``tests/test_sharded_farm.py`` pins exactly
that, and the E13 experiment re-checks it on every run.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.farm import FarmProfile, FarmTenant
    from repro.world import SimbaWorld, WorldConfig


def stable_hash64(text: str) -> int:
    """64-bit BLAKE2b of ``text`` — stable across processes and runs.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so it
    can never be used for placement: two shard processes would disagree
    about who owns a tenant.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


class ConsistentHashRing:
    """Deterministic consistent hashing of tenant names onto shards.

    Each shard contributes ``vnodes`` points (hashes of
    ``"ring-{shard}-{vnode}"``); a name belongs to the shard owning
    the first point clockwise of the name's hash.  Properties the tests
    pin:

    - **deterministic**: placement depends only on (name, shards, vnodes)
      — identical in every process.
    - **balanced**: with enough vnodes, shard populations are within a
      modest factor of uniform.
    - **monotone**: the same ring built for a larger count moves a key
      only if a *new* shard's point became its successor — ~1/N of keys
      move, all of them to the new shards.
    """

    def __init__(self, shards: int, vnodes: int = 64):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points = []
        for shard in range(shards):
            for vnode in range(vnodes):
                point = stable_hash64(f"ring-{shard}-{vnode}")
                points.append((point, shard, vnode))
        points.sort()
        self._points = points
        self._keys = [point for point, _, _ in points]

    def vnode_for(self, name: str) -> tuple[int, int]:
        """The ring point ``(shard, vnode)`` owning ``name``."""
        key = stable_hash64(name)
        index = bisect_left(self._keys, key)
        if index == len(self._keys):
            index = 0
        _, shard, vnode = self._points[index]
        return shard, vnode

    def owner(self, name: str) -> int:
        """The shard serving ``name``."""
        return self.vnode_for(name)[0]

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(shards={self.shards}, vnodes={self.vnodes})"
        )


# ----------------------------------------------------------------------
# Bridge envelopes
# ----------------------------------------------------------------------


class BridgeEnvelope(NamedTuple):
    """One cross-shard alert hop, stamped with virtual time.

    Field order doubles as the deterministic global sort key: the
    coordinator orders every epoch's union by ``(deliver_at, origin,
    seq)``, so injection order — and therefore same-instant kernel
    scheduling order — is identical for every shard layout.
    """

    deliver_at: float
    origin: str
    seq: int
    recipient: str
    category: str
    subject: str
    body: str
    alert_id: str


# ----------------------------------------------------------------------
# Load accounting and the hot-shard detector
# ----------------------------------------------------------------------


@dataclass
class ShardLoad:
    """One shard's load counters, shipped with every rollup."""

    shard: int
    tenants: int = 0
    receipts: int = 0
    journal_events: int = 0
    envelopes_out: int = 0
    envelopes_in: int = 0


@dataclass
class PlacementReport:
    """What :func:`placement_report` found in one rollup's loads."""

    mean_events: float
    per_shard_events: dict[int, int]
    hot_shards: list[int]

    @property
    def balanced(self) -> bool:
        return not self.hot_shards

    def summary(self) -> str:
        if self.balanced:
            return (
                f"placement balanced (mean {self.mean_events:.0f} "
                f"events/shard)"
            )
        return (
            f"hot shards {self.hot_shards} "
            f"(mean {self.mean_events:.0f} events/shard)"
        )


#: A shard is *hot* when its journal-event count exceeds this × the mean.
HOT_SHARD_THRESHOLD = 1.25


def placement_report(loads: Sequence[ShardLoad]) -> PlacementReport:
    """Name the shards whose load stands out in one rollup.

    The report is advisory and offline: it says where the journal events
    piled up, and nothing rebalances.
    """
    per_shard = {load.shard: load.journal_events for load in loads}
    if not per_shard:
        return PlacementReport(0.0, {}, [])
    mean = sum(per_shard.values()) / len(per_shard)
    limit = HOT_SHARD_THRESHOLD * mean
    return PlacementReport(
        mean_events=mean,
        per_shard_events=per_shard,
        hot_shards=sorted(
            shard for shard, events in per_shard.items() if events > limit
        ),
    )


# ----------------------------------------------------------------------
# Shard worker: one long-lived farm kernel behind a command loop
# ----------------------------------------------------------------------


@dataclass
class ShardSpec:
    """Everything a worker needs to build its shard (must pickle).

    ``workload`` names a builder as ``"module.path:attribute"``; the worker
    imports it and calls ``builder(runtime, **workload_kwargs)`` once at
    construction time.  The builder installs emitter processes on the
    shard's kernel and uses :meth:`ShardRuntime.send_envelope` for
    cross-shard fan-out.  A dotted name (not a callable) keeps the spec
    picklable under every multiprocessing start method.
    """

    shard: int
    shards: int
    seed: int
    population: int
    workload: str
    workload_kwargs: dict = field(default_factory=dict)
    prefix: str = "user"
    vnodes: int = 64
    epoch: float = 60.0
    bridge_latency: float = 60.0
    world_config: Optional["WorldConfig"] = None
    profile: Optional["FarmProfile"] = None

    def __post_init__(self):
        if not 0 <= self.shard < self.shards:
            raise ConfigurationError(
                f"shard {self.shard} outside [0, {self.shards})"
            )
        if self.epoch <= 0:
            raise ConfigurationError(f"epoch must be > 0, got {self.epoch}")
        if self.bridge_latency < self.epoch:
            # The conservative-lookahead rule: a cross-shard message must
            # never be due inside the epoch that produced it, or the
            # recipient's kernel has already run past its delivery time.
            raise ConfigurationError(
                f"bridge_latency {self.bridge_latency} < epoch {self.epoch}"
            )


class ShardRuntime:
    """The surface a workload builder programs against."""

    def __init__(self, worker: "ShardWorker"):
        self._worker = worker

    @property
    def world(self) -> "SimbaWorld":
        return self._worker.world

    @property
    def population(self) -> int:
        return self._worker.spec.population

    @property
    def local_names(self) -> list[str]:
        """This shard's slice of the logical population, in global order."""
        return self._worker.local_names

    def user_name(self, index: int) -> str:
        return f"{self._worker.spec.prefix}{index}"

    def send_envelope(
        self,
        recipient: str,
        category: str,
        subject: str,
        body: str,
        *,
        origin: str,
        seq: int,
        alert_id: str,
    ) -> BridgeEnvelope:
        """Queue one cross-shard alert hop for the next epoch drain.

        Delivery time is ``now + bridge_latency`` — a pure function of the
        send time, so it is identical whether the recipient turns out to
        be local or foreign (local recipients take the bridge too; a
        shortcut would make delivery timing depend on the layout).
        """
        return self._worker.queue_envelope(
            recipient, category, subject, body,
            origin=origin, seq=seq, alert_id=alert_id,
        )


def _resolve_workload(path: str) -> Callable:
    """Import ``"module:attr"`` (``:`` preferred; last ``.`` accepted)."""
    if ":" in path:
        module_name, attr = path.split(":", 1)
    else:
        module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise ConfigurationError(f"workload path {path!r} has no module")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise ConfigurationError(
            f"workload {attr!r} not found in {module_name!r}"
        ) from exc


class ShardWorker:
    """One shard: a long-lived ``BuddyFarm`` kernel driven by commands.

    Plain object — production wraps it in a process via
    :func:`shard_worker_main`, tests drive it inline.  The kernel only
    advances inside :meth:`run_epoch`, so between commands the shard is a
    quiescent, inspectable world.
    """

    def __init__(self, spec: ShardSpec):
        from repro.core.farm import FarmProfile
        from repro.world import SimbaWorld, WorldConfig

        self.spec = spec
        self.ring = ConsistentHashRing(spec.shards, vnodes=spec.vnodes)
        self.world = SimbaWorld(
            spec.world_config
            if spec.world_config is not None
            else WorldConfig(seed=spec.seed)
        )
        profile = spec.profile if spec.profile is not None else FarmProfile()
        self.farm = self.world.create_farm(profile=profile)
        self.source = self.world.create_source("portal")
        self.local_names = [
            f"{spec.prefix}{index}"
            for index in range(spec.population)
            if self.ring.owner(f"{spec.prefix}{index}") == spec.shard
        ]
        self._outbound: list[BridgeEnvelope] = []
        self.load = ShardLoad(shard=spec.shard)
        self.runtime = ShardRuntime(self)
        builder = _resolve_workload(spec.workload)
        builder(self.runtime, **spec.workload_kwargs)

    # -- tenancy -------------------------------------------------------

    def tenant(self, name: str) -> "FarmTenant":
        """Materialize-on-demand: idle logical users cost nothing.

        Lazy creation is deterministic because a tenant's first-traffic
        time (local arrival or envelope ``deliver_at``) is itself a pure
        function of seed and name — every layout materializes the same
        tenant at the same virtual instant.
        """
        existing = self.farm.tenants.get(name)
        if existing is not None:
            return existing
        tenant = self.farm.add_user(name)
        tenant.deployment.launch()
        self.load.tenants += 1
        return tenant

    # -- bridge --------------------------------------------------------

    def queue_envelope(
        self,
        recipient: str,
        category: str,
        subject: str,
        body: str,
        *,
        origin: str,
        seq: int,
        alert_id: str,
    ) -> BridgeEnvelope:
        envelope = BridgeEnvelope(
            deliver_at=self.world.env.now + self.spec.bridge_latency,
            origin=origin,
            seq=seq,
            recipient=recipient,
            category=category,
            subject=subject,
            body=body,
            alert_id=alert_id,
        )
        self._outbound.append(envelope)
        self.load.envelopes_out += 1
        return envelope

    def _arm_envelopes(self, kick) -> None:
        """Arm each inbound envelope's delivery timer, in bridge order (an
        envelope already due is delivered on the spot)."""
        env = self.world.env
        for envelope in kick.value:
            if envelope.deliver_at > env.now:
                env.timeout(
                    envelope.deliver_at - env.now, envelope
                ).callbacks.append(self._deliver_envelope)
            else:
                self._deliver(envelope)

    def _deliver_envelope(self, timer) -> None:
        self._deliver(timer.value)

    def _deliver(self, envelope: BridgeEnvelope) -> None:
        tenant = self.tenant(envelope.recipient)
        self.source.emit_to(
            tenant.book,
            envelope.category,
            envelope.subject,
            envelope.body,
            alert_id=envelope.alert_id,
        )

    # -- commands ------------------------------------------------------

    def run_epoch(
        self, until: float, inbound: Sequence[tuple]
    ) -> list[BridgeEnvelope]:
        """Inject ``inbound`` (already globally sorted), run to ``until``,
        return this epoch's outbound envelopes."""
        if inbound:
            envelopes = [BridgeEnvelope(*raw) for raw in inbound]
            # The recipients this epoch materializes, seeded as one batch.
            tenants = self.farm.tenants
            self.world.prime_tenants([
                envelope.recipient for envelope in envelopes
                if envelope.deliver_at <= until
                and envelope.recipient not in tenants
            ])
            # A delivery timer per envelope, armed from one zero-delay kick
            # (DESIGN §6b).
            kick = self.world.env.event()
            kick.callbacks.append(self._arm_envelopes)
            kick.succeed(envelopes)
            self.load.envelopes_in += len(inbound)
        self.world.run(until=until)
        outbound = self._outbound
        self._outbound = []
        # Epoch boundary: the kernel is quiescent and this epoch's burst of
        # materialized tenants is now long-lived.  Move the heap out of the
        # cyclic collector's working set so its full passes stop walking
        # every resident tenant; :meth:`close` gives it back.  Sound only
        # because finished processes reclaim themselves by refcount
        # (``sim/process.py``) — garbage frozen here is never collected.
        gc.freeze()
        return outbound

    def close(self) -> None:
        """Hand the frozen heap back to the collector (idempotent).

        The freeze is interpreter-wide, so an in-process host — pytest, a
        traced benchmark pass — must get its own objects back when the
        shard is done.
        """
        gc.unfreeze()

    def rollup(self) -> dict:
        """This shard's contribution to the merged aggregate rollup."""
        farm = self.farm
        counts = farm.aggregate_counts()
        latencies = [
            receipt.latency for receipt in farm.iter_receipts(unique=True)
        ]
        self.load.receipts = len(latencies)
        self.load.journal_events = sum(
            tenant.deployment.journal.total_events for tenant in farm
        )
        return {
            "shard": self.spec.shard,
            "tenants": len(farm),
            "counts": dict(counts),
            "latencies": latencies,
            "load": self.load,
        }

    def fingerprints(self) -> dict[str, str]:
        """Per-tenant journal digests (the unit of layout invariance)."""
        digests: dict[str, str] = {}
        for tenant in self.farm:
            hasher = hashlib.sha256()
            for event in tenant.deployment.journal.events:
                hasher.update(
                    f"{event.at!r}|{event.kind}|{event.detail}"
                    f"|{event.alert_id}\n".encode("utf-8")
                )
            digests[tenant.name] = hasher.hexdigest()
        return digests


def _serve(worker: ShardWorker, message: tuple) -> tuple:
    """Answer one command: ``("ok", payload)`` or ``("error", text)``.

    The whole command set, spelled once for the worker process and its
    inline stand-in, so the two cannot diverge on a command.  A failed or
    unknown command is answered with its traceback, never raised: the
    coordinator can still stop the worker cleanly.
    """
    command = message[0]
    try:
        if command == "epoch":
            _, until, inbound = message
            outbound = worker.run_epoch(until, inbound)
            return "ok", [tuple(e) for e in outbound]
        if command == "rollup":
            return "ok", worker.rollup()
        if command == "fingerprints":
            return "ok", worker.fingerprints()
        if command == "stop":
            worker.close()
            return "ok", None
        return "error", f"unknown command {command!r}"
    except Exception:
        import traceback

        return "error", traceback.format_exc()


def shard_worker_main(conn, spec: ShardSpec) -> None:
    """Child-process entry: serve the command/response protocol on ``conn``
    until told to stop.  Module-level so it pickles under the ``spawn``
    start method.
    """
    try:
        try:
            worker = ShardWorker(spec)
        except Exception:
            import traceback

            conn.send(("error", traceback.format_exc()))
            return
        conn.send(("ready", len(worker.local_names)))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            reply = _serve(worker, message)
            try:
                conn.send(reply)
            except Exception:  # noqa: BLE001 - whatever fails to pickle
                # ``send`` pickles before it writes, so nothing went out.
                # Answered, not raised: a worker that died here would
                # leave the coordinator only its exit code.
                import traceback

                conn.send((
                    "error",
                    f"shard {spec.shard} worker sent an unpicklable reply "
                    f"during {_during(message)}: {traceback.format_exc()}",
                ))
            if message[0] == "stop":
                return
    finally:
        conn.close()


def _worker_entry(conn, spec: ShardSpec, stderr_path: str) -> None:
    """Process target: send this worker's stderr to ``stderr_path``, where
    the coordinator reads it back, then serve."""
    sys.stderr = open(stderr_path, "a", buffering=1, encoding="utf-8")
    os.dup2(sys.stderr.fileno(), 2)
    shard_worker_main(conn, spec)


def _during(message: tuple) -> str:
    """The command a reply answers, as diagnostics name it."""
    command = message[0]
    if command == "epoch":
        return f"{command!r} until={message[1]!r}"
    return repr(command)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class ShardProtocolError(RuntimeError):
    """A worker replied with an error (its traceback is the message), or
    died, went silent or garbled its reply — then the message says which
    shard, during what, and how."""


#: Lines of a dead worker's stderr that its ``ShardProtocolError`` quotes.
STDERR_TAIL_LINES = 10
#: What a dead pipe looks like from the coordinator's end.
_PIPE_DEAD = (EOFError, BrokenPipeError, ConnectionResetError)
#: Seconds the coordinator waits for any one reply (the build handshake, an
#: epoch, a rollup) before it calls the worker wedged — far above any reply
#: a live worker gives at the sizes this repository runs.
REPLY_DEADLINE = 600.0


class _ProcessShard:
    """Coordinator-side handle for one worker process."""

    def __init__(self, context, spec: ShardSpec):
        import tempfile

        self.shard = spec.shard
        #: The last command sent, for the diagnosis if the worker fails.
        self._last: tuple = ("start",)
        self.conn, child_conn = context.Pipe(duplex=True)
        fd, self._stderr_path = tempfile.mkstemp(
            prefix=f"shard-{spec.shard}-", suffix=".stderr"
        )
        os.close(fd)
        self.process = context.Process(
            target=_worker_entry,
            args=(child_conn, spec, self._stderr_path),
            name=f"shard-{spec.shard}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, message: tuple) -> None:
        self._last = message
        try:
            self.conn.send(message)
        except _PIPE_DEAD as exc:
            raise self._died() from exc

    def recv(self) -> object:
        try:
            # A closed pipe polls ready, so only a silent worker times out.
            if not self.conn.poll(REPLY_DEADLINE):
                raise self._failed(
                    f"sent no reply within {REPLY_DEADLINE:g} s",
                    "still alive" if self.process.is_alive() else
                    self._exit_status(),
                )
            data = self.conn.recv_bytes()
        except _PIPE_DEAD as exc:
            raise self._died() from exc
        import pickle

        try:
            kind, payload = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - whatever the bytes hold
            raise self._failed("sent a garbled reply", repr(exc)) from exc
        if kind == "error":
            raise ShardProtocolError(payload)
        return payload

    def _died(self) -> ShardProtocolError:
        # The pipe closes a moment before the exit status can be reaped.
        self.process.join(timeout=1.0)
        fate = self._exit_status()
        tail = self._stderr().strip().splitlines()[-STDERR_TAIL_LINES:]
        if tail:
            fate += "; its stderr ends:\n" + "\n".join(tail)
        return self._failed("died", fate)

    def _stderr(self) -> str:
        with open(self._stderr_path, encoding="utf-8",
                  errors="replace") as captured:
            return captured.read()

    def _exit_status(self) -> str:
        code = self.process.exitcode
        if code is None:
            return "hung up but is still running"
        if code == -9:
            return "exit code -9 (killed — likely out of memory)"
        if code < 0:
            return f"exit code {code} (killed by signal {-code})"
        return f"exit code {code}"

    def _failed(self, what: str, fate: str) -> ShardProtocolError:
        """``shard N worker <what> during <command>: <fate>``."""
        return ShardProtocolError(
            f"shard {self.shard} worker {what} during {_during(self._last)}: "
            f"{fate}"
        )

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the worker to stop; a worker that does not answer within
        ``timeout`` (wedged, or SIGSTOPped) is terminated, then killed —
        a stopped process ignores SIGTERM.  Returns within ~3 × timeout."""
        try:
            self.conn.send(("stop",))
            if self.conn.poll(timeout):
                self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        # Hang up only once the worker is gone: a sibling stopped in
        # mid-epoch still has that epoch's reply and the stop's to write.
        self.process.join(timeout=timeout)
        for end in (self.process.terminate, self.process.kill):
            if not self.process.is_alive():
                break
            end()
            self.process.join(timeout=timeout)
        self.conn.close()
        # Whatever the worker wrote still reaches the coordinator's stderr.
        sys.stderr.write(self._stderr())
        os.unlink(self._stderr_path)


class _InlineShard:
    """In-process stand-in for tests and debugging: same protocol, no
    processes, no pickling of commands (results still round-trip the same
    tuple shapes the pipe protocol uses)."""

    def __init__(self, spec: ShardSpec):
        self._worker = ShardWorker(spec)
        self._pending: list[object] = [("ready", len(self._worker.local_names))]

    def send(self, message: tuple) -> None:
        self._pending.append(_serve(self._worker, message))

    def recv(self) -> object:
        kind, payload = self._pending.pop(0)
        if kind == "error":
            raise ShardProtocolError(payload)
        return payload

    def stop(self) -> None:
        self._pending.clear()
        self._worker.close()


@dataclass
class MergedRollup:
    """Deterministic aggregate of every shard's rollup.

    Merge rules keep the result layout-invariant: counters add (abelian),
    latencies merge as a *sorted* multiset, fingerprints combine over the
    name-sorted per-tenant digest list.
    """

    shards: int
    population: int
    tenants: int
    receipts: int
    counts: Counter
    latencies: list[float]
    loads: list[ShardLoad]
    undelivered_envelopes: int
    placement: PlacementReport

    @property
    def delivered(self) -> int:
        return self.counts.get("routed", 0)


class ShardedFarm:
    """Farm-of-farms coordinator: N shard processes, one virtual clock.

    Usage::

        farm = ShardedFarm(
            shards=4, seed=0, population=100_000,
            workload="repro.experiments.sharded:build_e13_workload",
            workload_kwargs={"duration": 600.0},
        )
        with farm:
            farm.run(until=840.0)
            rollup = farm.merged_rollup()
            digest = farm.merged_fingerprint()

    The context manager owns worker lifecycle; :meth:`run` drives the
    epoch barrier loop.  All workers advance concurrently inside an epoch
    (the coordinator broadcasts first, then collects), so wall-clock
    scales with cores while virtual time stays globally consistent.
    """

    def __init__(
        self,
        shards: int,
        seed: int,
        population: int,
        workload: str,
        workload_kwargs: Optional[dict] = None,
        *,
        vnodes: int = 64,
        epoch: float = 60.0,
        bridge_latency: Optional[float] = None,
        world_config: Optional["WorldConfig"] = None,
        profile: Optional["FarmProfile"] = None,
        inline: bool = False,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if population < 1:
            raise ConfigurationError(
                f"population must be >= 1, got {population}"
            )
        self.shards = shards
        self.seed = seed
        self.population = population
        self.epoch = float(epoch)
        self.bridge_latency = float(
            bridge_latency if bridge_latency is not None else epoch
        )
        self.ring = ConsistentHashRing(shards, vnodes=vnodes)
        self.inline = inline
        self._specs = [
            ShardSpec(
                shard=shard,
                shards=shards,
                seed=seed,
                population=population,
                workload=workload,
                workload_kwargs=dict(workload_kwargs or {}),
                vnodes=vnodes,
                epoch=self.epoch,
                bridge_latency=self.bridge_latency,
                world_config=world_config,
                profile=profile,
            )
            for shard in range(shards)
        ]
        self._workers: list = []
        self._inbound: list[list[tuple]] = [[] for _ in range(shards)]
        self._now = 0.0
        self.local_counts: list[int] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ShardedFarm":
        if self._workers:
            raise RuntimeError("sharded farm already started")
        if self.inline:
            self._workers = [_InlineShard(spec) for spec in self._specs]
        else:
            from multiprocessing import get_all_start_methods, get_context

            method = (
                "fork" if "fork" in get_all_start_methods() else "spawn"
            )
            context = get_context(method)
            self._workers = [
                _ProcessShard(context, spec) for spec in self._specs
            ]
        # Every worker builds concurrently; collect the ready handshakes.
        try:
            self.local_counts = [worker.recv() for worker in self._workers]
        except ShardProtocolError:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "ShardedFarm":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _require_started(self) -> None:
        if not self._workers:
            raise RuntimeError("sharded farm is not started")

    # -- the deterministic per-epoch drain ----------------------------

    def run_epoch(self) -> int:
        """Advance every shard one epoch; returns envelopes exchanged.

        Broadcast-then-collect: all shards run their kernels concurrently;
        the barrier is the collection loop.  The union of outbound
        envelopes is sorted into the one global order and partitioned for
        the next epoch — see the module docstring's determinism argument.
        """
        self._require_started()
        until = self._now + self.epoch
        outbound: list[tuple] = []
        try:
            for shard, worker in enumerate(self._workers):
                worker.send(("epoch", until, self._inbound[shard]))
            for worker in self._workers:
                outbound.extend(worker.recv())
        except ShardProtocolError:
            # Some shards ran the epoch and some did not: the farm cannot
            # go on, so no sibling is left running behind the error.
            self.stop()
            raise
        outbound.sort()
        self._inbound = [[] for _ in range(self.shards)]
        for raw in outbound:
            envelope = BridgeEnvelope(*raw)
            self._inbound[self.ring.owner(envelope.recipient)].append(raw)
        self._now = until
        return len(outbound)

    def run(self, until: float) -> None:
        """Epoch-drain until the virtual clock reaches ``until``.

        The epoch count is ``ceil(until / epoch)`` — a pure function of
        the arguments, never of runtime state, so every shard layout runs
        the identical epoch sequence.
        """
        self._require_started()
        while self._now < until:
            self.run_epoch()

    @property
    def now(self) -> float:
        return self._now

    # -- merged rollups ------------------------------------------------

    def merged_rollup(self) -> MergedRollup:
        self._require_started()
        for worker in self._workers:
            worker.send(("rollup",))
        rollups = [worker.recv() for worker in self._workers]
        counts: Counter = Counter()
        latencies: list[float] = []
        loads: list[ShardLoad] = []
        tenants = 0
        for rollup in rollups:
            counts.update(rollup["counts"])
            latencies.extend(rollup["latencies"])
            loads.append(rollup["load"])
            tenants += rollup["tenants"]
        latencies.sort()
        return MergedRollup(
            shards=self.shards,
            population=self.population,
            tenants=tenants,
            receipts=len(latencies),
            counts=counts,
            latencies=latencies,
            loads=loads,
            # Still queued for an epoch no run has reached: counted from
            # the queue itself, so a run split in two counts each once.
            undelivered_envelopes=sum(len(batch) for batch in self._inbound),
            placement=placement_report(loads),
        )

    def tenant_fingerprints(self) -> dict[str, str]:
        self._require_started()
        for worker in self._workers:
            worker.send(("fingerprints",))
        merged: dict[str, str] = {}
        for worker in self._workers:
            digests = worker.recv()
            overlap = merged.keys() & digests.keys()
            if overlap:
                raise ShardProtocolError(
                    f"tenants on multiple shards: {sorted(overlap)[:5]}"
                )
            merged.update(digests)
        return merged

    def merged_fingerprint(self) -> str:
        """One digest over the name-sorted per-tenant digests — identical
        for every partition of the same tenant set."""
        fingerprints = self.tenant_fingerprints()
        hasher = hashlib.sha256()
        for name in sorted(fingerprints):
            hasher.update(f"{name}:{fingerprints[name]}\n".encode("utf-8"))
        return hasher.hexdigest()
