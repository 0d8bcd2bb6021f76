"""The Soft-State Store (SSS) server (§5).

"The Soft-State Store (SSS) server is a daemon process that maintains a
store of soft-state variables, each of which is associated with a required
refresh frequency and the maximum number of allowed missing refreshes before
the variable is timed out.  Clients of SSS can define data types, create
variables, read/write variables, and subscribe to events relating to changes
in the types or variables."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ConfigurationError, SimbaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class UnknownVariable(SimbaError):
    """Read/write/refresh of a variable that was never created."""


class UnknownType(SimbaError):
    """Variable creation with an undefined data type."""


class SSSEventKind(enum.Enum):
    CREATED = "created"
    CHANGED = "changed"
    REFRESHED = "refreshed"
    TIMED_OUT = "timed_out"
    REVIVED = "revived"


@dataclass
class SSSEvent:
    """One event delivered to subscribers."""

    at: float
    kind: SSSEventKind
    variable: str
    type_name: str
    value: Any
    #: Which store instance originated the mutation (for replication-loop
    #: suppression and provenance).
    origin: str = ""


@dataclass
class SoftStateVariable:
    """One soft-state variable with its refresh contract."""

    name: str
    type_name: str
    value: Any
    refresh_period: float
    max_missed: int
    last_refresh: float
    timed_out: bool = False

    @property
    def deadline(self) -> float:
        """Time past which the variable is considered timed out."""
        return self.last_refresh + self.refresh_period * (self.max_missed + 1)


@dataclass
class _Subscription:
    callback: Callable[[SSSEvent], None]
    type_name: Optional[str]
    variable: Optional[str]

    def matches(self, event: SSSEvent) -> bool:
        if self.variable is not None and event.variable != self.variable:
            return False
        if self.type_name is not None and event.type_name != self.type_name:
            return False
        return True


class SoftStateStore:
    """One SSS daemon instance (one per participating PC)."""

    #: How often the timeout scanner wakes up.
    SCAN_INTERVAL = 1.0

    def __init__(self, env: "Environment", name: str):
        self.env = env
        self.name = name
        self._types: set[str] = set()
        self._variables: dict[str, SoftStateVariable] = {}
        self._subscriptions: list[_Subscription] = []
        self.events: list[SSSEvent] = []
        self._scanner_started = False

    # ------------------------------------------------------------------
    # Types and variables
    # ------------------------------------------------------------------

    def define_type(self, type_name: str) -> None:
        """Declare a data type (idempotent)."""
        if not type_name:
            raise ConfigurationError("type name must be non-empty")
        self._types.add(type_name)

    def create(
        self,
        name: str,
        type_name: str,
        value: Any,
        refresh_period: float,
        max_missed: int,
    ) -> SoftStateVariable:
        """Create a variable with its refresh contract."""
        if type_name not in self._types:
            raise UnknownType(f"type {type_name!r} not defined on {self.name!r}")
        if name in self._variables:
            raise ConfigurationError(f"variable {name!r} already exists")
        if refresh_period <= 0 or max_missed < 0:
            raise ConfigurationError(
                f"invalid refresh contract: period={refresh_period} "
                f"max_missed={max_missed}"
            )
        variable = SoftStateVariable(
            name=name,
            type_name=type_name,
            value=value,
            refresh_period=refresh_period,
            max_missed=max_missed,
            last_refresh=self.env.now,
        )
        self._variables[name] = variable
        self._fire(SSSEventKind.CREATED, variable)
        self._ensure_scanner()
        return variable

    def read(self, name: str) -> Any:
        return self._get(name).value

    def variable(self, name: str) -> SoftStateVariable:
        return self._get(name)

    def write(self, name: str, value: Any, origin: str = "") -> None:
        """Update a variable's value; counts as a refresh.

        Fires CHANGED when the value differs (REVIVED first if it had timed
        out), REFRESHED when equal.
        """
        variable = self._get(name)
        variable.last_refresh = self.env.now
        revived = variable.timed_out
        variable.timed_out = False
        if revived:
            self._fire(SSSEventKind.REVIVED, variable, origin)
        if variable.value != value:
            variable.value = value
            self._fire(SSSEventKind.CHANGED, variable, origin)
        else:
            self._fire(SSSEventKind.REFRESHED, variable, origin)

    def refresh(self, name: str, origin: str = "") -> None:
        """Keep-alive without a value change."""
        self.write(name, self._get(name).value, origin)

    def variables(self) -> list[SoftStateVariable]:
        return list(self._variables.values())

    def _get(self, name: str) -> SoftStateVariable:
        try:
            return self._variables[name]
        except KeyError:
            raise UnknownVariable(
                f"no variable {name!r} on store {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[SSSEvent], None],
        type_name: Optional[str] = None,
        variable: Optional[str] = None,
    ) -> None:
        """Subscribe to events by type and/or variable (None = wildcard)."""
        self._subscriptions.append(_Subscription(callback, type_name, variable))

    def _fire(
        self, kind: SSSEventKind, variable: SoftStateVariable, origin: str = ""
    ) -> None:
        event = SSSEvent(
            at=self.env.now,
            kind=kind,
            variable=variable.name,
            type_name=variable.type_name,
            value=variable.value,
            origin=origin or self.name,
        )
        self.events.append(event)
        for subscription in list(self._subscriptions):
            if subscription.matches(event):
                subscription.callback(event)

    # ------------------------------------------------------------------
    # Timeout scanning
    # ------------------------------------------------------------------

    def _ensure_scanner(self) -> None:
        if self._scanner_started:
            return
        self._scanner_started = True
        self.env.process(self._scan_loop(), name=f"sss-{self.name}-scanner")

    def _scan_loop(self):
        while True:
            yield self.env.timeout(self.SCAN_INTERVAL)
            for variable in self._variables.values():
                if not variable.timed_out and self.env.now > variable.deadline:
                    variable.timed_out = True
                    self._fire(SSSEventKind.TIMED_OUT, variable)
