"""SIMBA: a dependable user alert service architecture — reproduction.

This package reproduces Wang, Bahl & Russell, *The SIMBA User Alert Service
Architecture for Dependable Alert Delivery* (DSN 2001), as a complete,
simulation-backed Python library:

- :mod:`repro.sim` — deterministic discrete-event kernel.
- :mod:`repro.net` — IM / email / SMS channel substrates.
- :mod:`repro.clients` — GUI client software with automation interfaces.
- :mod:`repro.core` — the SIMBA library and MyAlertBuddy (delivery modes,
  classification/aggregation/filtering/routing, exception-handling
  automation, pessimistic logging, watchdog, self-stabilization,
  rejuvenation).
- :mod:`repro.sources` — information/web-store proxies, portals, the
  desktop assistant; :mod:`repro.aladdin` — the home-networking system;
  :mod:`repro.wish` — the wireless location system.
- :mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.metrics`,
  :mod:`repro.experiments` — evaluation machinery for every table/figure.
- :mod:`repro.world` — one-stop assembly of a complete deployment.

Quickstart::

    from repro import SimbaWorld

    world = SimbaWorld(seed=7)
    alice = world.create_user("alice")
    buddy = world.create_buddy(alice)
    buddy.register_user_endpoint(alice)
    buddy.subscribe("Investment", alice, "normal", keywords=["Stocks"])
    buddy.launch()

    portal = world.create_source("portal")
    portal.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("portal")

    portal.emit("Stocks", "MSFT up 3%", "details...")
    world.run(until=60)
    print(alice.receipts)
"""

import importlib
import sys
import types


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """A package's ``__all__``, ``__getattr__`` and ``__dir__``, exporting
    ``table`` lazily (PEP 562).

    ``table`` maps a module (relative to ``package``, or absolute) to the
    names the package re-exports from it; ``__all__`` is those names in
    table order.  The first access to a name imports its module and
    caches the value in the package's namespace, so a process loads only
    the modules it touches and a later access is a plain lookup.
    """
    owners = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    # Importing a submodule binds it on its package under its own name.
    # Where an export has its module's name (``.shrink`` exports
    # ``shrink``), the export is bound instead, as an eager
    # ``from .shrink import shrink`` would have left it.
    shadowed = {name for name, module in owners.items() if module == f".{name}"}
    if shadowed:

        class Package(types.ModuleType):
            def __setattr__(self, name, value):
                if name in shadowed and isinstance(value, types.ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package
    return list(owners), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "Action",
        "AddressBook",
        "Alert",
        "AlertClassifier",
        "AlertSeverity",
        "CommunicationBlock",
        "DeliveryMode",
        "DeliveryOutcome",
        "FilterPolicy",
        "MasterDaemonController",
        "MyAlertBuddy",
        "PessimisticLog",
        "SimbaEndpoint",
        "SubscriptionLayer",
        "TimeWindow",
        "UserAddress",
        "UserEndpoint",
    ),
    ".core.delivery_modes": ("im_ack_then_email",),
    ".net": ("ChannelType", "EmailService", "IMService", "LatencyModel", "SMSGateway"),
    ".sim": ("Environment", "RngRegistry"),
    ".world": (
        "BuddyDeployment",
        "SimbaWorld",
        "WorldConfig",
        "standard_modes",
        "standard_user_book",
    ),
})
__all__.append("__version__")
