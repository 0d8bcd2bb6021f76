"""Pessimistic logging for incoming IM alerts (§4.2.1).

"Upon receiving an IM, MyAlertBuddy instructs the SIMBA library to save a
copy to a log file before sending the acknowledgement.  After processing the
IM, MyAlertBuddy marks the saved copy as 'Processed'.  Every time
MyAlertBuddy is restarted, it first checks the log file for unprocessed IMs
before accepting new alerts."

The log is the *persistent* part of MAB: it survives process crashes and
restarts (and, with a ``path``, even simulated reboots via the JSONL file).
The write happens *before* the ack — that ordering is what guarantees
no-ack ⇒ sender falls back, ack ⇒ alert is durable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: Synchronous append + flush on period hardware; the dominant extra cost in
#: the paper's 1.5 s logged-ack round trip over the <1 s one-way time.
DEFAULT_WRITE_LATENCY = 0.5


def _warn(message: str, *args) -> None:
    """Log a recoverable oddity of the log's records (rare: torn tails,
    stray marks), so ``logging`` loads only when one is found."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


@dataclass(slots=True)
class LogEntry:
    """One logged incoming alert."""

    entry_id: int
    alert_id: str
    received_at: float
    payload: str
    processed: bool = False
    processed_at: Optional[float] = None


#: The outcomes that settle an alert's fate on the record.
TERMINAL_KINDS = frozenset({"routed", "delivery_abandoned", "dead_lettered"})


@dataclass(slots=True)
class DeliveryStatus:
    """What has happened to one accepted alert: the one record the
    pipeline's duplicate check and the retry budget read."""

    #: ``"retrying"``, ``"partial"`` (retrying, and some subscriber already
    #: has it) or a :data:`TERMINAL_KINDS` kind, which sticks.
    state: str = "retrying"
    #: Retry tokens the admission budget has granted so far.
    retries: int = 0

    @property
    def routed(self) -> bool:
        """Whether some subscriber may already hold the alert."""
        return self.state != "retrying"


def _append_record(
    entry_id: int, alert_id: str, received_at: float, payload: str
) -> dict:
    return {
        "op": "append",
        "entry_id": entry_id,
        "alert_id": alert_id,
        "received_at": received_at,
        "payload": payload,
    }


def _processed_record(entry_id: int, processed_at: Optional[float]) -> dict:
    return {"op": "processed", "entry_id": entry_id, "processed_at": processed_at}


class LogShipperHook(Protocol):
    """What a replication shipper must provide to tap the log's records.

    ``on_append`` is a simulation generator: the append (and therefore the
    ack that follows it) waits for the ship to complete or be queued.
    ``on_mark`` is synchronous enqueue-only; the pipeline flushes marks
    before it records a terminal outcome (see
    :mod:`repro.core.replication`).
    """

    def on_append(self, record: dict): ...  # generator
    def on_mark(self, record: dict) -> None: ...


class PessimisticLog:
    """Write-ahead log of received-but-not-yet-processed alerts."""

    def __init__(
        self,
        env: "Environment",
        write_latency: float = DEFAULT_WRITE_LATENCY,
        path: Optional[Path] = None,
    ):
        if write_latency < 0:
            raise ValueError(f"write latency must be >= 0, got {write_latency!r}")
        self.env = env
        self.write_latency = write_latency
        self.path = Path(path) if path is not None else None
        self._entries: dict[int, LogEntry] = {}
        self._by_alert: dict[str, int] = {}
        #: One past the highest entry id ever held, local or mirrored.
        self._next_id = 1
        #: Warm-standby replication tap (a :class:`LogShipperHook`).  When
        #: set, every appended record ships before the append returns —
        #: preserving the log-before-ack ordering across the pair.
        self.shipper: Optional[LogShipperHook] = None
        #: Alert id → :class:`DeliveryStatus`, written only by the retry
        #: stage.  Not a log record yet, so a log rebuilt from records
        #: must be handed the old log's map (see replication's reconcile).
        self.status: dict[str, DeliveryStatus] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, alert_id: str, payload: str):
        """Durably record an incoming alert (generator: takes write time).

        Usage from a process: ``entry = yield from log.append(...)``.
        """
        if self.write_latency:
            yield self.env.timeout(self.write_latency)
        entry_id = self._next_id
        record = _append_record(entry_id, alert_id, self.env.now, payload)
        self._apply(record)
        entry = self._entries[entry_id]
        self._write_line(record)
        if self.shipper is not None:
            yield from self.shipper.on_append(record)
        return entry

    def mark_processed(self, entry_id: int) -> None:
        """Mark an entry 'Processed' after routing completed."""
        if self._entries[entry_id].processed:
            return
        record = _processed_record(entry_id, self.env.now)
        self._apply(record)
        self._write_line(record)
        if self.shipper is not None:
            self.shipper.on_mark(record)

    def _apply(self, record: dict) -> bool:
        """Fold one record into the log; True when it changed the log.

        The one reader of the record format: local writes, shipped records
        and JSONL lines all come through here.  A 'processed' mark for an
        entry that never arrived (records raced a link flap, or the file
        lost its append) is skipped with a warning — recovery replay then
        errs toward re-delivery, never loss.
        """
        if record["op"] == "append":
            entry = LogEntry(
                entry_id=record["entry_id"],
                alert_id=record["alert_id"],
                received_at=record["received_at"],
                payload=record["payload"],
            )
            self._entries[entry.entry_id] = entry
            self._by_alert[entry.alert_id] = entry.entry_id
            # Local appends (after a promotion) must not collide with
            # anything mirrored, whatever order the records arrived in.
            self._next_id = max(self._next_id, entry.entry_id + 1)
            return True
        entry = self._entries.get(record["entry_id"])
        if entry is None:
            _warn(
                "pessimistic log %s: 'processed' mark for unknown entry %r "
                "that was never appended",
                self.path or "(in memory)", record["entry_id"],
            )
            return False
        if entry.processed:
            return False
        entry.processed = True
        entry.processed_at = record.get("processed_at")
        return True

    # ------------------------------------------------------------------
    # Reading / recovery
    # ------------------------------------------------------------------

    def unprocessed(self) -> list[LogEntry]:
        """Entries a restarted MAB must replay, oldest first."""
        return sorted(
            (e for e in self._entries.values() if not e.processed),
            key=lambda e: e.entry_id,
        )

    def entries(self) -> list[LogEntry]:
        """Every entry ever logged, oldest first (oracle/forensics view)."""
        return sorted(self._entries.values(), key=lambda e: e.entry_id)

    def has_seen(self, alert_id: str) -> bool:
        """Whether this alert id was ever logged (incoming-dedup probe)."""
        return alert_id in self._by_alert

    def entry_for_alert(self, alert_id: str) -> Optional[LogEntry]:
        entry_id = self._by_alert.get(alert_id)
        return self._entries.get(entry_id) if entry_id is not None else None

    def entry(self, entry_id: int) -> Optional[LogEntry]:
        return self._entries.get(entry_id)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Replication (standby mirror)
    # ------------------------------------------------------------------

    def apply_replica_record(self, record: dict) -> None:
        """Apply one shipped record to this (standby) log, instantly.

        The ship latency was already paid on the link; application is the
        local bookkeeping a real standby does on receipt.  Idempotent, so
        catch-up after a partition may safely overlap a snapshot re-seed.
        """
        if self._apply(record):
            self._write_line(record)

    def snapshot_records(self) -> list[dict]:
        """The record stream that rebuilds this log's current state —
        what reconciliation ships to re-seed a rejoining standby."""
        records: list[dict] = []
        for entry in self.entries():
            records.append(_append_record(
                entry.entry_id, entry.alert_id, entry.received_at,
                entry.payload,
            ))
            if entry.processed:
                records.append(
                    _processed_record(entry.entry_id, entry.processed_at)
                )
        return records

    # ------------------------------------------------------------------
    # File backing
    # ------------------------------------------------------------------

    def _write_line(self, record: dict) -> None:
        if self.path is None:
            return
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    @classmethod
    def load(
        cls,
        env: "Environment",
        path: Path,
        write_latency: float = DEFAULT_WRITE_LATENCY,
    ) -> "PessimisticLog":
        """Rebuild a log from its JSONL file (surviving a machine reboot)."""
        log = cls(env, write_latency=write_latency, path=path)
        if not Path(path).exists():
            return log
        lines = [
            stripped
            for stripped in (
                raw.strip()
                for raw in Path(path).read_text(encoding="utf-8").splitlines()
            )
            if stripped
        ]
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    # A torn tail line is the expected signature of a crash
                    # mid-append: the entry was never durable, so the ack
                    # never went out and the sender's fallback covers it.
                    _warn(
                        "pessimistic log %s: skipping torn tail record %r",
                        path, line[:80],
                    )
                    continue
                raise  # corruption in the middle of the file is a real error
            log._apply(record)
        return log
