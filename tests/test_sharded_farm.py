"""The sharded farm-of-farms: partitioning, bridge, invariance, rollups.

The headline property is **shard-count invariance**: for a fixed seed the
merged journal fingerprint, aggregate counts and receipt totals are
bit-identical however the tenant population is partitioned — including the
degenerate shards=1 layout (the knob table's ``shard_layout`` row).  Here:
the oracle that audits it, and what it rests on — disjoint partitions,
conservative bridge timestamps, deterministic drain ordering, load
accounting, worker death and the hot-shard detector's report.
"""

import multiprocessing
import os
import signal
import threading
import time
from functools import partialmethod

import pytest

from repro.core.shard import (
    BridgeEnvelope,
    ShardLoad,
    ShardProtocolError,
    ShardSpec,
    ShardWorker,
    ShardedFarm,
    _ProcessShard,
    placement_report,
    shard_worker_main,
)
from repro.errors import ConfigurationError
from repro.experiments.sharded import (
    E13_WORKLOAD,
    E13_PROFILE,
    e13_world_config,
    run_sharded_throughput,
)
from repro.testkit import check_shard_count_invariance

#: Small but non-trivial: ~30% senders over 48 users, fan-out 2 → every
#: epoch carries cross-shard traffic in both directions.
SMALL = dict(
    users=48,
    seed=7,
    duration=120.0,
    epoch=30.0,
    drain=120.0,
    workload_kwargs={
        "active_permille": 300,
        "alerts_per_sender": 2,
        "fanout_width": 2,
    },
)


def small_run(shards: int, inline: bool = True, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return run_sharded_throughput(shards=shards, inline=inline, **kwargs)


def small_farm(shards: int, inline: bool = True, **overrides) -> ShardedFarm:
    return ShardedFarm(
        shards=shards,
        seed=SMALL["seed"],
        population=SMALL["users"],
        workload=E13_WORKLOAD,
        workload_kwargs={"duration": SMALL["duration"],
                         **SMALL["workload_kwargs"]},
        epoch=SMALL["epoch"],
        world_config=e13_world_config(SMALL["seed"]),
        profile=E13_PROFILE,
        inline=inline,
        **overrides,
    )


# ---------------------------------------------------------------------------
# Shard-count invariance
# ---------------------------------------------------------------------------


def forge_mismatch(runs):
    """Make the second layout disagree with the first on two facts (shared
    with the teeth enumeration in ``tests/test_oracle_invariants.py``)."""
    runs[1].merged_fingerprint = "0" * 64
    runs[1].receipts += 1


class TestShardCountInvariance:
    def test_oracle_reports_a_forged_mismatch(self):
        runs = [small_run(1), small_run(2)]
        forge_mismatch(runs)
        report = check_shard_count_invariance(results=runs)
        assert not report.ok
        invariants = {v.invariant for v in report.violations}
        assert invariants == {"shard_count_invariance"}
        assert len(report.violations) == 2  # fingerprint + receipts


# ---------------------------------------------------------------------------
# Partitioning and lazy tenancy
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_local_names_are_a_complete_disjoint_partition(self):
        specs = [
            ShardSpec(
                shard=shard, shards=3, seed=7, population=60,
                workload=E13_WORKLOAD,
                workload_kwargs={"duration": 60.0},
                world_config=e13_world_config(7), profile=E13_PROFILE,
            )
            for shard in range(3)
        ]
        workers = [ShardWorker(spec) for spec in specs]
        slices = [set(w.local_names) for w in workers]
        assert set.union(*slices) == {f"user{i}" for i in range(60)}
        assert sum(len(s) for s in slices) == 60  # pairwise disjoint

    def test_tenants_materialize_lazily(self):
        result = small_run(2)
        # Senders are never materialized; only recipients cost a MAB.
        assert 0 < result.tenants < result.population
        assert result.delivered > 0

    def test_merged_latencies_arrive_sorted(self):
        farm = small_farm(2)
        with farm:
            farm.run(until=SMALL["duration"] + SMALL["drain"])
            rollup = farm.merged_rollup()
        assert rollup.latencies == sorted(rollup.latencies)
        assert rollup.receipts == len(rollup.latencies)
        assert rollup.shards == 2


# ---------------------------------------------------------------------------
# Bridge protocol
# ---------------------------------------------------------------------------


class TestBridge:
    def test_bridge_latency_below_epoch_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(
                shard=0, shards=1, seed=0, population=1,
                workload=E13_WORKLOAD, epoch=60.0, bridge_latency=30.0,
            )

    def test_envelope_sort_key_is_deliver_at_then_origin_then_seq(self):
        envelopes = [
            BridgeEnvelope(90.0, "user2", 0, "r", "News", "s", "b", "a3"),
            BridgeEnvelope(60.0, "user9", 1, "r", "News", "s", "b", "a2"),
            BridgeEnvelope(60.0, "user9", 0, "r", "News", "s", "b", "a1"),
            BridgeEnvelope(60.0, "user1", 5, "r", "News", "s", "b", "a0"),
        ]
        assert [e.alert_id for e in sorted(envelopes)] == [
            "a0", "a1", "a2", "a3",
        ]

    def test_unknown_command_raises_protocol_error(self):
        farm = small_farm(1)
        with farm:
            farm._workers[0].send(("frobnicate",))
            with pytest.raises(ShardProtocolError, match="unknown command"):
                farm._workers[0].recv()
            # The worker survives a bad command; the loop keeps serving.
            farm.run_epoch()

    def test_undelivered_envelopes_are_accounted(self):
        # Horizon ends exactly at the traffic window: the last epoch's
        # outbound envelopes are still in the coordinator's hands.
        result = small_run(2, drain=0.0)
        settled = small_run(2)
        assert result.undelivered_envelopes > 0
        assert settled.undelivered_envelopes == 0
        assert result.receipts < settled.receipts

    def test_a_split_run_counts_undelivered_envelopes_once(self):
        # run(T/2) then run(T) must report what one run(T) reports: the
        # envelopes queued at T/2 are delivered by the second run.
        def rollup(*horizons):
            with small_farm(2) as farm:
                for until in horizons:
                    farm.run(until=until)
                return farm.merged_rollup()

        horizon = SMALL["duration"]
        single = rollup(horizon)
        split = rollup(horizon / 2, horizon)
        assert single.undelivered_envelopes > 0
        assert split.undelivered_envelopes == single.undelivered_envelopes
        assert split.receipts == single.receipts

    def test_run_covers_partial_final_epoch(self):
        farm = small_farm(1)
        with farm:
            farm.run(until=SMALL["epoch"] * 1.5)
            assert farm.now == SMALL["epoch"] * 2


# ---------------------------------------------------------------------------
# A dead worker is a diagnosis
# ---------------------------------------------------------------------------


#: Ways a worker's reply can be garbled, by the error the coordinator
#: reports: bytes that do not unpickle, and a reply that is not a
#: ``(kind, payload)`` pair.
GARBLED = {
    "UnpicklingError": lambda conn: conn.send_bytes(b"\x80\x04garbled"),
    "ValueError": lambda conn: conn.send(("ok",)),
}


class GarblingConn:
    """A worker's end of the pipe that garbles its reply to the second
    epoch and passes everything else through."""

    def __init__(self, conn, garble):
        self.conn = conn
        self.garble = garble
        self.epochs = 0

    def recv(self):
        message = self.conn.recv()
        if message[0] == "epoch":
            self.epochs += 1
        return message

    def send(self, reply):
        if self.epochs == 2:
            self.epochs += 1  # once
            self.garble(self.conn)
        else:
            self.conn.send(reply)

    def close(self):
        self.conn.close()


class TestWorkerDeath:
    def test_killed_worker_is_named_and_siblings_are_stopped(self):
        farm = small_farm(2, inline=False)
        farm.start()
        try:
            farm.run_epoch()
            victim = farm._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            started = time.monotonic()
            with pytest.raises(ShardProtocolError) as caught:
                farm.run_epoch()
            assert time.monotonic() - started < 5.0
        finally:
            farm.stop()
        message = str(caught.value)
        assert "shard 1" in message
        assert "'epoch' until=60.0" in message
        assert "exit code -9" in message and "out of memory" in message
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="not started"):
            farm.run_epoch()

    def test_a_stopped_worker_cannot_hang_stop(self, monkeypatch):
        """A worker that never answers (here SIGSTOPped, which also makes
        it ignore SIGTERM) is terminated, then killed, within about three
        ``stop`` timeouts — it used to hang ``stop()`` for good."""
        timeout = 0.3
        monkeypatch.setattr(
            _ProcessShard, "stop",
            partialmethod(_ProcessShard.stop, timeout=timeout),
        )
        farm = small_farm(2, inline=False)
        farm.start()
        farm.run_epoch()
        victim = farm._workers[1].process
        os.kill(victim.pid, signal.SIGSTOP)
        stopper = threading.Thread(target=farm.stop)
        stopper.start()
        stopper.join(timeout=3 * timeout + 2.0)
        hung = stopper.is_alive()
        if hung:  # free the coordinator before failing
            os.kill(victim.pid, signal.SIGKILL)
            stopper.join()
        assert not hung, "stop() is still waiting on the stopped worker"
        assert multiprocessing.active_children() == []

    def test_a_worker_stopped_mid_epoch_fails_in_bounded_time(
        self, monkeypatch
    ):
        """A worker SIGSTOPped with its epoch outstanding never answers:
        the coordinator's reply deadline names it, and the farm stops every
        worker, the stopped one included."""
        deadline, timeout = 0.5, 0.3
        monkeypatch.setattr("repro.core.shard.REPLY_DEADLINE", deadline)
        monkeypatch.setattr(
            _ProcessShard, "stop",
            partialmethod(_ProcessShard.stop, timeout=timeout),
        )
        farm = small_farm(2, inline=False)
        farm.start()
        try:
            farm.run_epoch()
            victim = farm._workers[1]
            send = victim.send

            def stop_then_send(message):
                # Stopped first, so the epoch cannot slip out before it.
                os.kill(victim.process.pid, signal.SIGSTOP)
                send(message)

            victim.send = stop_then_send
            started = time.monotonic()
            with pytest.raises(ShardProtocolError) as caught:
                farm.run_epoch()
            elapsed = time.monotonic() - started
        finally:
            farm.stop()
        assert str(caught.value) == (
            "shard 1 worker sent no reply within 0.5 s during 'epoch' "
            "until=60.0: still alive"
        )
        assert elapsed < deadline + 3 * timeout + 2.0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", sorted(GARBLED))
    def test_a_garbled_reply_fails_loudly_and_stops_the_others(
        self, monkeypatch, error
    ):
        """Shard 1 garbles its reply to the second epoch (a patch its
        forked worker inherits): the coordinator names the shard, the
        command and the fault, and no worker is left running."""

        def garbling_main(conn, spec):
            if spec.shard == 1:
                conn = GarblingConn(conn, GARBLED[error])
            shard_worker_main(conn, spec)

        monkeypatch.setattr(
            "repro.core.shard.shard_worker_main", garbling_main
        )
        farm = small_farm(2, inline=False)
        farm.start()
        try:
            farm.run_epoch()
            started = time.monotonic()
            with pytest.raises(ShardProtocolError) as caught:
                farm.run_epoch()
            elapsed = time.monotonic() - started
        finally:
            farm.stop()
        assert str(caught.value).startswith(
            f"shard 1 worker sent a garbled reply during 'epoch' "
            f"until=60.0: {error}("
        )
        assert elapsed < 5.0
        assert multiprocessing.active_children() == []

    def test_worker_that_fails_to_build_stops_the_others(self):
        farm = small_farm(2, inline=False)
        farm._specs[1].workload = "repro.experiments.sharded:no_such_workload"
        with pytest.raises(ShardProtocolError, match="no_such_workload"):
            farm.start()
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Hot-shard detector
# ---------------------------------------------------------------------------


def _load(shard, events):
    return ShardLoad(shard=shard, journal_events=events)


class TestHotShardDetector:
    def test_balanced_loads_report_balanced(self):
        report = placement_report([_load(0, 100), _load(1, 110)])
        assert report.balanced
        assert report.hot_shards == []
        assert "balanced" in report.summary()

    def test_hot_shard_is_named_in_the_report(self):
        report = placement_report([_load(0, 300), _load(1, 60), _load(2, 60)])
        assert report.hot_shards == [0]
        assert not report.balanced
        assert report.mean_events == 140.0
        assert "hot shards [0]" in report.summary()

    def test_e13_rollup_carries_per_shard_load(self):
        farm = small_farm(2)
        with farm:
            farm.run(until=SMALL["duration"] + SMALL["drain"])
            rollup = farm.merged_rollup()
        assert rollup.placement.per_shard_events == {
            load.shard: load.journal_events for load in rollup.loads
        }
        assert rollup.placement.per_shard_events.keys() == {0, 1}
