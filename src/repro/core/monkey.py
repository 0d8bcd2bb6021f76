"""The monkey thread: dialog-box handling automation (§4.1.1).

"Each Communication Manager maintains a 'monkey thread', whose only job is
to look for dialog boxes with matching captions and 'click' on the
appropriate buttons ...  some of the caption-button pairs are
system-generic, while the rest are specific to the associated client
software.  To handle dialog boxes that are specific to each operating
environment, each Manager provides an API for specifying additional
caption-button pairs."

Dialogs whose captions are not registered are left on screen — that is the
paper's residual failure mode ("two [failures] were caused by previously
unknown dialog boxes"), fixed operationally by registering new pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.clients.dialogs import DialogBox
from repro.clients.screen import Screen

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: "Unprocessed dialog boxes are checked every 20 seconds" (§4.2.1).
DEFAULT_SCAN_INTERVAL = 20.0

#: Caption → button pairs any Windows machine of the era would need.
SYSTEM_GENERIC_RULES: dict[str, str] = {
    "Low disk space": "OK",
    "Windows update": "Later",
    "Unexpected error": "OK",
}


@dataclass
class ClickRecord:
    """Audit entry for one monkey click."""

    caption: str
    button: str
    at: float
    owner: Optional[str]


class MonkeyThread:
    """Periodic screen scanner that clicks registered caption/button pairs."""

    def __init__(
        self,
        env: "Environment",
        screen: Screen,
        client_rules: Optional[dict[str, str]] = None,
        interval: float = DEFAULT_SCAN_INTERVAL,
    ):
        if interval <= 0:
            raise ValueError(f"scan interval must be positive, got {interval!r}")
        self.env = env
        self.screen = screen
        self.interval = interval
        self._rules: dict[str, str] = dict(SYSTEM_GENERIC_RULES)
        if client_rules:
            self._rules.update(client_rules)
        self.clicks: list[ClickRecord] = []
        #: Captions seen on screen with no matching rule (forensics: these
        #: are the "previously unknown dialog boxes").
        self.unknown_captions: set[str] = set()
        self._running = False

    def register_rule(self, caption: str, button: str) -> None:
        """The §4.1.1 API "for specifying additional caption-button pairs"."""
        if not caption or not button:
            raise ValueError("caption and button must be non-empty")
        self._rules[caption] = button

    def rules(self) -> dict[str, str]:
        return dict(self._rules)

    def scan_once(self) -> int:
        """One pass over the screen; returns how many dialogs were clicked."""
        clicked = 0
        for dialog in self.screen.open_dialogs():
            if self._click_if_known(dialog):
                clicked += 1
        return clicked

    def _click_if_known(self, dialog: DialogBox) -> bool:
        button = self._rules.get(dialog.caption)
        if button is None:
            self.unknown_captions.add(dialog.caption)
            return False
        if button not in dialog.buttons:
            # A registered pair that no longer matches the dialog's buttons
            # is as useless as no pair at all.
            self.unknown_captions.add(dialog.caption)
            return False
        self.screen.click(dialog, button)
        self.clicks.append(
            ClickRecord(
                caption=dialog.caption,
                button=button,
                at=self.env.now,
                owner=dialog.owner,
            )
        )
        return True

    def start(self) -> None:
        """Begin periodic scanning (idempotent): join the scan cohort of
        this interval and instant."""
        if self._running:
            return
        self._running = True
        self.env.every(self.interval, self._tick)

    def stop(self) -> None:
        """The membership leaves at its next tick (DESIGN §11: a start()
        before that tick joins anew and keeps the old one)."""
        self._running = False

    def _tick(self, _now: float):
        if not self._running:
            return False
        self.scan_once()
