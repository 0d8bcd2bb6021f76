"""Unit + property tests for the pessimistic log."""

import json
import logging

import pytest
from hypothesis import given, strategies as st

from repro.core import PessimisticLog
from repro.sim import Environment


def run_append(env, log, alert_id, payload="p"):
    proc = env.process(log.append(alert_id, payload))
    env.run(until=proc)
    return proc.value


class TestPessimisticLog:
    def test_append_takes_write_latency(self):
        env = Environment()
        log = PessimisticLog(env, write_latency=0.5)
        entry = run_append(env, log, "a1")
        assert env.now == 0.5
        assert entry.received_at == 0.5
        assert not entry.processed

    def test_zero_latency_append(self):
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0)
        run_append(env, log, "a1")
        assert env.now == 0.0

    def test_negative_latency_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            PessimisticLog(env, write_latency=-1.0)

    def test_unprocessed_scan_ordering(self):
        env = Environment()
        log = PessimisticLog(env, write_latency=0.1)
        e1 = run_append(env, log, "a1")
        e2 = run_append(env, log, "a2")
        e3 = run_append(env, log, "a3")
        log.mark_processed(e2.entry_id)
        assert [e.alert_id for e in log.unprocessed()] == ["a1", "a3"]
        log.mark_processed(e1.entry_id)
        log.mark_processed(e3.entry_id)
        assert log.unprocessed() == []

    def test_mark_processed_idempotent(self):
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0)
        entry = run_append(env, log, "a1")
        log.mark_processed(entry.entry_id)
        first = entry.processed_at
        log.mark_processed(entry.entry_id)
        assert entry.processed_at == first

    def test_has_seen_and_lookup(self):
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0)
        run_append(env, log, "a1")
        assert log.has_seen("a1")
        assert not log.has_seen("a2")
        assert log.entry_for_alert("a1").alert_id == "a1"
        assert log.entry_for_alert("a2") is None
        assert len(log) == 1

    def test_file_backing_roundtrip(self, tmp_path):
        path = tmp_path / "mab.log"
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0, path=path)
        e1 = run_append(env, log, "a1", "payload-1")
        run_append(env, log, "a2", "payload-2")
        log.mark_processed(e1.entry_id)

        # Simulated reboot: fresh environment, reload from disk.
        env2 = Environment()
        restored = PessimisticLog.load(env2, path)
        assert len(restored) == 2
        assert [e.alert_id for e in restored.unprocessed()] == ["a2"]
        assert restored.entry_for_alert("a2").payload == "payload-2"
        # Entry ids keep counting past the highest on disk.
        e3 = run_append(env2, restored, "a3")
        assert e3.entry_id == 3

    def test_load_missing_file_gives_empty_log(self, tmp_path):
        env = Environment()
        log = PessimisticLog.load(env, tmp_path / "nope.log")
        assert len(log) == 0

    def test_processed_at_survives_reload(self, tmp_path):
        path = tmp_path / "mab.log"
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0, path=path)
        entry = run_append(env, log, "a1")

        def later(env):
            yield env.timeout(42.0)
            log.mark_processed(entry.entry_id)

        proc = env.process(later(env))
        env.run(until=proc)

        restored = PessimisticLog.load(Environment(), path)
        assert restored.entry_for_alert("a1").processed
        assert restored.entry_for_alert("a1").processed_at == 42.0

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=49), st.booleans()),
            min_size=1,
            max_size=50,
        )
    )
    def test_no_ack_no_loss_property(self, operations):
        """Everything appended and not marked processed is recoverable."""
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0)
        entries = {}
        processed = set()
        for index, (key, mark) in enumerate(operations):
            alert_id = f"alert-{key}-{index}"
            entry = run_append(env, log, alert_id)
            entries[alert_id] = entry
            if mark:
                log.mark_processed(entry.entry_id)
                processed.add(alert_id)
        recovered = {e.alert_id for e in log.unprocessed()}
        assert recovered == set(entries) - processed
        # Recovery order is append order.
        ids = [e.entry_id for e in log.unprocessed()]
        assert ids == sorted(ids)


class TestCrashedFileRecovery:
    """Tolerant load: the file a crashed machine leaves behind."""

    def _write_lines(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines))

    def test_torn_tail_line_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "mab.log"
        good = json.dumps({
            "op": "append", "entry_id": 1, "alert_id": "a1",
            "received_at": 1.0, "payload": "p",
        })
        torn = '{"op": "append", "entry_id": 2, "alert_id": "a2", "rec'
        self._write_lines(path, [good, torn])
        with caplog.at_level(
            logging.WARNING, logger="repro.core.pessimistic_log"
        ):
            log = PessimisticLog.load(Environment(), path)
        assert len(log) == 1
        assert log.has_seen("a1") and not log.has_seen("a2")
        assert any("torn tail" in r.message for r in caplog.records)
        # The torn entry never became durable, so ids continue from 1.
        entry = run_append(log.env, log, "a3")
        assert entry.entry_id == 2

    def test_mid_file_corruption_is_a_real_error(self, tmp_path):
        path = tmp_path / "mab.log"
        good = json.dumps({
            "op": "append", "entry_id": 2, "alert_id": "a2",
            "received_at": 2.0, "payload": "p",
        })
        self._write_lines(path, ['{"op": "appen', good])
        with pytest.raises(json.JSONDecodeError):
            PessimisticLog.load(Environment(), path)

    def test_orphan_processed_record_warns_and_errs_to_replay(
        self, tmp_path, caplog
    ):
        path = tmp_path / "mab.log"
        good = json.dumps({
            "op": "append", "entry_id": 1, "alert_id": "a1",
            "received_at": 1.0, "payload": "p",
        })
        orphan = json.dumps(
            {"op": "processed", "entry_id": 7, "processed_at": 9.0}
        )
        self._write_lines(path, [good, orphan])
        with caplog.at_level(
            logging.WARNING, logger="repro.core.pessimistic_log"
        ):
            log = PessimisticLog.load(Environment(), path)
        assert any("never appended" in r.message for r in caplog.records)
        # The survivor is intact and still unprocessed — recovery replays.
        assert [e.alert_id for e in log.unprocessed()] == ["a1"]


class TestReplicaMirror:
    def test_snapshot_records_rebuild_state(self):
        env = Environment()
        log = PessimisticLog(env, write_latency=0.0)
        e1 = run_append(env, log, "a1", "p1")
        run_append(env, log, "a2", "p2")
        log.mark_processed(e1.entry_id)

        mirror = PessimisticLog(Environment(), write_latency=0.0)
        for record in log.snapshot_records():
            mirror.apply_replica_record(record)
        assert len(mirror) == 2
        assert mirror.entry_for_alert("a1").processed
        assert mirror.entry_for_alert("a1").processed_at is not None
        assert [e.alert_id for e in mirror.unprocessed()] == ["a2"]
        # Local appends after the re-seed do not collide with mirrored ids.
        e3 = run_append(mirror.env, mirror, "a3")
        assert e3.entry_id == 3

    def test_out_of_order_appends_keep_the_running_maximum(self):
        """A promoted standby numbers past the highest id it mirrored,
        not past the last one to arrive."""
        mirror = PessimisticLog(Environment(), write_latency=0.0)
        for entry_id in (5, 3):
            mirror.apply_replica_record({
                "op": "append", "entry_id": entry_id,
                "alert_id": f"a{entry_id}", "received_at": 1.0, "payload": "p",
            })
        # Promotion: the standby's next append is its first local one.
        entry = run_append(mirror.env, mirror, "local")
        assert entry.entry_id == 6
        assert [e.entry_id for e in mirror.entries()] == [3, 5, 6]

    def test_apply_replica_append_idempotent(self):
        mirror = PessimisticLog(Environment(), write_latency=0.0)
        record = {
            "op": "append", "entry_id": 1, "alert_id": "a1",
            "received_at": 1.0, "payload": "p",
        }
        mirror.apply_replica_record(record)
        mirror.apply_replica_record(record)
        assert len(mirror) == 1

    def test_orphan_processed_mark_skipped_with_warning(self, caplog):
        mirror = PessimisticLog(Environment(), write_latency=0.0)
        with caplog.at_level(
            logging.WARNING, logger="repro.core.pessimistic_log"
        ):
            mirror.apply_replica_record(
                {"op": "processed", "entry_id": 3, "processed_at": 5.0}
            )
        assert len(mirror) == 0
        assert any("unknown entry" in r.message for r in caplog.records)


class _Tap:
    """A shipper that keeps every record the log ships."""

    def __init__(self):
        self.records = []

    def on_append(self, record):
        self.records.append(record)
        return
        yield  # a generator, as the hook contract says

    def on_mark(self, record):
        self.records.append(record)


def test_snapshot_reload_and_shipped_mirror_agree(tmp_path):
    """One record format: the log rebuilt from its snapshot, reloaded from
    its JSONL file and mirrored from its shipped records hold equal
    entries and number the next append alike."""
    env = Environment()
    path = tmp_path / "mab.log"
    log = PessimisticLog(env, write_latency=0.25, path=path)
    tap = log.shipper = _Tap()
    entries = [run_append(env, log, f"a{i}", f"p{i}") for i in range(4)]
    log.mark_processed(entries[1].entry_id)
    log.mark_processed(entries[3].entry_id)
    log.mark_processed(entries[3].entry_id)  # a repeat mark ships nothing

    rebuilt = PessimisticLog(Environment(), write_latency=0.0)
    for record in log.snapshot_records():
        rebuilt.apply_replica_record(record)
    reloaded = PessimisticLog.load(Environment(), path, write_latency=0.0)
    mirror = PessimisticLog(Environment(), write_latency=0.0)
    for record in tap.records:
        mirror.apply_replica_record(record)

    for other in (rebuilt, reloaded, mirror):
        assert other.entries() == log.entries()
    log.shipper = None
    nexts = {
        run_append(other.env, other, "next").entry_id
        for other in (log, rebuilt, reloaded, mirror)
    }
    assert nexts == {5}
