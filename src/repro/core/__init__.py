"""The SIMBA library and MyAlertBuddy — the paper's primary contribution.

Layering follows Figure 3 of the paper:

- **Subscription layer** (:mod:`~repro.core.subscription`): user addresses
  (:mod:`~repro.core.addresses`), personal alert categories, personalized
  delivery modes (:mod:`~repro.core.delivery_modes`), all expressed in XML
  (:mod:`~repro.core.xml_codec`).
- **Communication layer** (:mod:`~repro.core.managers`): IM/Email/SMS
  Communication Managers that drive client software through automation
  interfaces and implement *exception-handling automation* — the sanity
  checking API, the shutdown/restart API, and the dialog-box handling API
  with its monkey thread (:mod:`~repro.core.monkey`).
- **Delivery engine** (:mod:`~repro.core.router`) executes delivery modes:
  ordered communication blocks with acknowledgement-or-fallback semantics.
- **MyAlertBuddy** (:mod:`~repro.core.buddy`): classification, aggregation,
  filtering and routing, kept highly available by pessimistic logging
  (:mod:`~repro.core.pessimistic_log`), the MDC watchdog
  (:mod:`~repro.core.watchdog`), self-stabilization
  (:mod:`~repro.core.stabilizer`) and software rejuvenation
  (:mod:`~repro.core.rejuvenation`), all running on a failable
  :mod:`~repro.core.host`.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".addresses": ("AddressBook", "UserAddress"),
    ".admission": (
        "AdmissionConfig",
        "AdmissionController",
        "BackoffPolicy",
        "DeadLetter",
        "DeadLetterQueue",
        "LoadShedder",
        "TokenBucket",
    ),
    ".alert": ("Alert", "AlertSeverity"),
    ".buddy": ("MyAlertBuddy",),
    ".classifier": ("AlertClassifier", "ExtractionRule"),
    ".delivery_modes": ("Action", "CommunicationBlock", "DeliveryMode"),
    ".endpoint": ("SimbaEndpoint",),
    ".farm": ("BuddyFarm", "FarmProfile", "FarmTenant"),
    ".filters": ("FilterDecision", "FilterPolicy", "TimeWindow"),
    ".host": ("Host",),
    ".managers": ("EmailManager", "IMManager", "SMSManager"),
    ".monkey": ("MonkeyThread",),
    ".pessimistic_log": ("LogEntry", "PessimisticLog"),
    ".pipeline": (
        "AdmissionStage",
        "AggregateStage",
        "AlertPipeline",
        "ClassifyStage",
        "FilterStage",
        "PipelineContext",
        "PipelineStage",
        "RetryStage",
        "RouteStage",
        "ThrottleStage",
    ),
    ".rejuvenation": ("RejuvenationPolicy",),
    ".replication": (
        "EpochAudit",
        "FailoverController",
        "FencingService",
        "PairSide",
        "ReplicaRole",
        "ReplicatedPair",
        "build_pair",
    ),
    ".router": ("BlockOutcome", "DeliveryEngine", "DeliveryOutcome"),
    ".stabilizer": ("SelfStabilizer",),
    ".subscription": ("Subscription", "SubscriptionLayer"),
    ".user_endpoint": ("UserEndpoint",),
    ".watchdog": ("MasterDaemonController",),
})
