"""Workload and faultload generators.

- :mod:`~repro.workloads.arrivals` — Poisson and diurnal arrival processes.
- :mod:`~repro.workloads.portal_log` — synthesizes the commercial-portal
  usage log of §1 (~225 k users, ~778 k alerts/day).
- :mod:`~repro.workloads.faultload` — a one-month fault schedule matching
  the category mix of the paper's §5 recovery log.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrivals": (
        "BurstWindow",
        "DiurnalProfile",
        "poisson_arrival_times",
        "storm_arrival_times",
    ),
    ".faultload": (
        "FaultloadSpec",
        "generate_month_faultload",
        "paper_faultload_spec",
    ),
    ".portal_log": ("LogRecord", "PortalLogGenerator"),
})
