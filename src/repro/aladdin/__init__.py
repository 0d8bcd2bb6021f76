"""The Aladdin home networking system (§2.3, [9]).

Aladdin "integrates diverse devices and sensors attached to heterogeneous
in-home networks including powerline, phoneline, RF and IR, and connects
them to the Internet through a home gateway machine".  Its state backbone is
the Soft-State Store (SSS, §5): replicated soft-state variables with refresh
frequencies and missing-refresh timeouts.

This package reproduces the §5 end-to-end scenario hop by hop: remote
control (RF) → powerline transceiver → powerline monitor on a PC → local SSS
→ phoneline multicast replication → gateway SSS event → Aladdin home server
→ SIMBA alert.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".devices": ("RemoteControl", "SecuritySystem", "Sensor", "SensorState"),
    ".gateway": ("AladdinGateway",),
    ".networks": ("HomeNetwork", "Transceiver"),
    ".replication": ("ReplicationGroup",),
    ".scenario": ("AladdinHome",),
    ".sss": ("SoftStateStore", "SoftStateVariable", "SSSEvent"),
})
