"""Baseline delivery strategies SIMBA is compared against.

- :class:`~repro.baselines.email_only.EmailOnlyDelivery` — the pre-SIMBA
  default: every alert is one email to the user (§3.1).
- :class:`~repro.baselines.redundant.BlanketRedundantDelivery` — Aladdin's
  original policy: "by default sends all alerts as two emails and two cell
  phone SMS messages.  However, such heavy use of redundancy has not worked
  well" (§2.3).

Both implement the same ``deliver(alert, user)`` interface as
:class:`~repro.baselines.simba_strategy.SimbaStrategy`, which routes through
a real MyAlertBuddy — so bench E8 can compare them head-to-head on
timeliness, delivery ratio and messages-per-alert (the irritation factor).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".email_only": ("EmailOnlyDelivery",),
    ".redundant": ("BlanketRedundantDelivery",),
    ".simba_strategy": ("SimbaStrategy",),
})
