"""The WISH wireless user-location system (§2.4).

"The WISH client software, running on the user's handheld device, extracts
from its RF wireless network card the identity of the Access Point the
device is connected to and the strength of the signals received from the AP.
It then sends that information along with the user's name and activity
status to a WISH server.  The WISH server maintains an RF signal propagation
model and a table that maps each AP to a physical location ...  the WISH
system is able to determine the user's real-time location to within a few
meters.  A confidence percentage is associated with each estimate."

The implementation follows the RADAR lineage [11]: a log-distance path-loss
radio model (:mod:`~repro.wish.radio`), a building floor plan with APs
(:mod:`~repro.wish.floorplan`), reporting clients (:mod:`~repro.wish.client`),
a nearest-neighbour-in-signal-space server (:mod:`~repro.wish.server`), and
the privacy-guarded location alert service (:mod:`~repro.wish.alerts`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".alerts": ("LocationTrigger", "WISHAlertService"),
    ".client": ("WISHClient",),
    ".floorplan": ("AccessPoint", "FloorPlan", "Region"),
    ".radio": ("PathLossModel",),
    ".server": ("LocationEstimate", "WISHServer"),
})
