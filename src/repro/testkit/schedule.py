"""Serialize fault schedules and shrunk reproducers as JSON.

A failing chaos trial is only useful if it can be *pinned*: the shrunk
schedule plus the harness seed and parameters are written to a small JSON
file, committed under ``tests/data/chaos/``, and replayed forever after as
a regression test.  The format is deliberately plain — kind values (the
enum's string), floats, and the params dict — so pinned files stay
readable in review diffs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.sim.failures import FaultKind, ScheduledFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.testkit.harness import ChaosReport

FORMAT_VERSION = 1


def fault_to_dict(fault: ScheduledFault) -> dict[str, Any]:
    """Plain-JSON form of one fault."""
    row: dict[str, Any] = {
        "at": fault.at,
        "kind": fault.kind.value,
        "target": fault.target,
    }
    if fault.duration:
        row["duration"] = fault.duration
    if fault.params:
        row["params"] = dict(fault.params)
    return row


def fault_from_dict(row: dict[str, Any]) -> ScheduledFault:
    """Inverse of :func:`fault_to_dict` (raises on unknown kinds)."""
    try:
        kind = FaultKind(row["kind"])
    except ValueError as exc:
        raise ConfigurationError(f"unknown fault kind {row['kind']!r}") from exc
    return ScheduledFault(
        at=float(row["at"]),
        kind=kind,
        target=str(row["target"]),
        duration=float(row.get("duration", 0.0)),
        params=dict(row.get("params", {})),
    )


@dataclass
class Reproducer:
    """A pinned failing (or formerly failing) chaos scenario.

    ``violations`` records what the oracle reported when the reproducer
    was captured; a regression replay against the *fixed* pipeline must
    report none.
    """

    seed: int
    schedule: list[ScheduledFault]
    config: dict[str, Any] = field(default_factory=dict)
    note: str = ""
    violations: list[str] = field(default_factory=list)
    version: int = FORMAT_VERSION

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "seed": self.seed,
            "note": self.note,
            "config": self.config,
            "violations": list(self.violations),
            "schedule": [fault_to_dict(f) for f in self.schedule],
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Reproducer":
        payload = json.loads(text)
        return cls(
            seed=int(payload["seed"]),
            schedule=[fault_from_dict(r) for r in payload["schedule"]],
            config=dict(payload.get("config", {})),
            note=str(payload.get("note", "")),
            violations=list(payload.get("violations", [])),
            version=int(payload.get("version", FORMAT_VERSION)),
        )


def dump_reproducer(reproducer: Reproducer, path: str | Path) -> Path:
    """Write a reproducer JSON file (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(reproducer.to_json() + "\n")
    return path


def load_reproducer(path: str | Path) -> Reproducer:
    """Read a pin.  A missing field, a format version this code does not
    speak, or a config key :class:`ChaosRunConfig` does not know (dropping
    it would replay a *different* run and still print PASS) is a
    :class:`ConfigurationError` naming the file."""
    from repro.testkit.harness import ChaosRunConfig

    try:
        reproducer = Reproducer.from_json(Path(path).read_text())
    except KeyError as exc:
        raise ConfigurationError(
            f"{path}: reproducer is missing required field {exc}"
        ) from exc
    if reproducer.version != FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: reproducer format version {reproducer.version}, "
            f"this code reads version {FORMAT_VERSION}"
        )
    unknown = set(reproducer.config) - set(ChaosRunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(
            f"{path}: config keys ChaosRunConfig does not know: "
            + ", ".join(sorted(unknown))
        )
    return reproducer


def make_reproducer(
    report: "ChaosReport",
    schedule: list[ScheduledFault],
    note: str = "",
) -> Reproducer:
    """Capture a run's seed/config plus ``schedule`` (usually the shrunk one)."""
    config = asdict(report.config)
    return Reproducer(
        seed=report.config.seed,
        schedule=list(schedule),
        config=config,
        note=note,
        violations=[v.invariant for v in report.oracle.violations],
    )


def replay_reproducer(
    path: str | Path,
    stage_factory=None,
    trace: bool = False,
    overrides: dict[str, Any] | None = None,
) -> "ChaosReport":
    """Re-run a pinned scenario against the current pipeline.

    ``stage_factory`` re-injects a deliberately broken pipeline (to prove a
    pinned schedule still has teeth); None replays against the real stages,
    which is the regression direction CI runs.  ``trace`` replays with a
    :class:`repro.obs.TraceSink` installed (``report.trace``) — same run,
    same fingerprint, plus the causal span record.  ``overrides`` patches
    individual :class:`ChaosRunConfig` fields over the pinned ones — the
    adversarial teeth test replays its pin with ``{"transport": "naive"}``
    to prove the schedule still breaks the unprotected transport.
    """
    from repro.core.admission import AdmissionConfig
    from repro.net.adversary import AdversaryModel
    from repro.testkit.generator import StormConfig
    from repro.testkit.harness import ChaosRunConfig, run_chaos

    reproducer = load_reproducer(path)
    kwargs = dict(reproducer.config)
    # Nested configs land as plain dicts in the JSON pin.  A key the class
    # does not know is a typo, and dropping it would replay a different
    # run that still prints PASS.
    for key, cls in (
        ("admission", AdmissionConfig),
        ("storm", StormConfig),
        ("adversary", AdversaryModel),
    ):
        nested = kwargs.get(key)
        if not isinstance(nested, dict):
            continue
        unknown = set(nested) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"{path}: config.{key} keys {cls.__name__} does not know: "
                + ", ".join(sorted(unknown))
            )
        # JSON has no tuples (``shed_severities``).
        kwargs[key] = cls(**{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in nested.items()
        })
    if overrides:
        kwargs.update(overrides)
    config = ChaosRunConfig(**kwargs)
    return run_chaos(
        reproducer.schedule,
        config,
        stage_factory=stage_factory,
        trace=trace,
    )
