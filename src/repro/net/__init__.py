"""Communication substrates: IM, email and SMS channels.

The paper's dependability argument rests on the *shape* of three channels:

- **IM** — sub-second, synchronous, presence-aware, supports application-level
  acknowledgements, but requires the recipient to be logged in and suffers
  extended service outages.
- **Email** — store-and-forward, always accepts a submission, but delivery
  time is unpredictable ("seconds to days") and unacknowledged.
- **SMS** — carrier-queued, similar unpredictability to email, and the
  address (phone number) is privacy-sensitive.

Each channel draws its per-message latency from a seeded long-tailed
distribution and exposes outage/loss injection hooks used by the
fault-tolerance experiments.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adversary": ("AdversaryModel", "AdversaryStats"),
    ".channel": ("ChannelStats", "LatencyModel"),
    ".email": ("EmailMessage", "EmailService"),
    ".im": ("IMMessage", "IMService", "IMSession"),
    ".message": ("ChannelType", "Message"),
    ".presence": ("PresenceService",),
    ".sms": ("SMSGateway", "SMSMessage"),
})
