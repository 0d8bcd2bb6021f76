"""Alert sources: the five service types of Figure 1.

- :mod:`~repro.sources.base` — common machinery: every source links the
  SIMBA library and delivers with "IM-with-acknowledgement followed by
  email" (§4.2).
- :mod:`~repro.sources.webserver` — simulated web sites for proxies to poll.
- :mod:`~repro.sources.proxy` — the information/web-store alert proxy (§2.1).
- :mod:`~repro.sources.portal` — portal-style alert services (§1, §2.1).
- :mod:`~repro.sources.webstore` — community content stores (§2.2).
- :mod:`~repro.sources.desktop` — the SIMBA Desktop Assistant (§2.5).

The Aladdin home-networking source lives in :mod:`repro.aladdin` and the
WISH location source in :mod:`repro.wish` — each is a full substrate, not
just an emitter.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("AlertSource",),
    ".desktop": ("DesktopAssistant",),
    ".portal": ("PortalAlertService",),
    ".proxy": ("AlertProxy", "ProxyRule"),
    ".webserver": ("SimulatedWebSite",),
    ".webstore": ("CommunityStore",),
})
