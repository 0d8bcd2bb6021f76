"""Simulated third-party communication client software.

The paper drives real GUI email/IM clients through COM automation
interfaces, and observes that those interfaces "do not model and simulate
human operations in case of exceptions" (§4.1.1): clients hang, get logged
out, invalidate every automation pointer when restarted, and pop modal
dialog boxes that block all progress.

This package reproduces that failure surface faithfully so the
exception-handling-automation machinery in :mod:`repro.core.managers` has
something real to recover from:

- :mod:`~repro.clients.automation` — client lifecycle + pointer semantics.
- :mod:`~repro.clients.dialogs` / :mod:`~repro.clients.screen` — modal
  dialog boxes on a per-machine screen.
- :mod:`~repro.clients.im_client` / :mod:`~repro.clients.email_client` —
  the concrete GUI clients wrapping the network substrates.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".automation": ("AutomationHandle", "ClientSoftware"),
    ".dialogs": ("DialogBox",),
    ".email_client": ("EmailClient",),
    ".im_client": ("IMClient",),
    ".screen": ("Screen",),
})
