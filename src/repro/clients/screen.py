"""The machine's screen: where modal dialog boxes live.

The monkey thread (§4.1.1) periodically scans this screen "for dialog boxes
with matching captions" and clicks the appropriate buttons by synthesizing
mouse events.  Dialogs whose captions nobody registered stay up forever —
exactly the failure mode behind two of the paper's three unrecovered
incidents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.clients.dialogs import DialogBox

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class Screen:
    """All open dialogs on one machine."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._open: list[DialogBox] = []
        #: Every dialog ever shown, for post-run forensics.
        self.history: list[DialogBox] = []

    def pop_dialog(
        self,
        caption: str,
        buttons: tuple[str, ...] = ("OK",),
        owner: Optional[str] = None,
    ) -> DialogBox:
        """Show a new modal dialog."""
        dialog = DialogBox(
            caption=caption, buttons=buttons, created_at=self.env.now, owner=owner
        )
        self._open.append(dialog)
        self.history.append(dialog)
        return dialog

    def open_dialogs(self, owner: Optional[str] = None) -> list[DialogBox]:
        """Dialogs currently up; with ``owner``, those blocking that client
        (its own dialogs plus ownerless system dialogs)."""
        if owner is None:
            return list(self._open)
        return [d for d in self._open if d.owner in (owner, None)]

    def blocking(self, owner: str) -> Optional[DialogBox]:
        """The oldest dialog blocking ``owner``, if any."""
        for dialog in self._open:
            if dialog.owner == owner or dialog.owner is None:
                return dialog
        return None

    def click(self, dialog: DialogBox, button: str) -> None:
        """Click a button on an open dialog, removing it from the screen."""
        dialog.click(button, self.env.now)
        self._open.remove(dialog)

    def dismiss_owned_by(self, owner: str) -> int:
        """Close every dialog owned by ``owner`` (client was terminated).

        System dialogs survive their instigator.  Returns how many closed.
        """
        owned = [d for d in self._open if d.owner == owner]
        for dialog in owned:
            dialog.click(dialog.buttons[0], self.env.now)
            self._open.remove(dialog)
        return len(owned)
