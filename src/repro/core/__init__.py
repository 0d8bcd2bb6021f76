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

from repro.core.addresses import AddressBook, UserAddress
from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    BackoffPolicy,
    DeadLetter,
    DeadLetterQueue,
    LoadShedder,
    TokenBucket,
)
from repro.core.alert import Alert, AlertSeverity
from repro.core.buddy import MyAlertBuddy
from repro.core.classifier import AlertClassifier, ExtractionRule
from repro.core.delivery_modes import Action, CommunicationBlock, DeliveryMode
from repro.core.endpoint import SimbaEndpoint
from repro.core.farm import BuddyFarm, FarmProfile, FarmTenant
from repro.core.filters import FilterDecision, FilterPolicy, TimeWindow
from repro.core.host import Host
from repro.core.managers import EmailManager, IMManager, SMSManager
from repro.core.monkey import MonkeyThread
from repro.core.pessimistic_log import LogEntry, PessimisticLog
from repro.core.pipeline import (
    AdmissionStage,
    AggregateStage,
    AlertPipeline,
    ClassifyStage,
    FilterStage,
    PipelineContext,
    PipelineStage,
    RetryStage,
    RouteStage,
    ThrottleStage,
)
from repro.core.rejuvenation import RejuvenationPolicy
from repro.core.replication import (
    EpochAudit,
    FailoverController,
    FencingService,
    PairSide,
    ReplicaRole,
    ReplicatedPair,
    build_pair,
)
from repro.core.router import BlockOutcome, DeliveryEngine, DeliveryOutcome
from repro.core.stabilizer import SelfStabilizer
from repro.core.subscription import Subscription, SubscriptionLayer
from repro.core.user_endpoint import UserEndpoint
from repro.core.watchdog import MasterDaemonController

__all__ = [
    "Action",
    "AddressBook",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStage",
    "AggregateStage",
    "Alert",
    "AlertClassifier",
    "AlertPipeline",
    "AlertSeverity",
    "BackoffPolicy",
    "BlockOutcome",
    "BuddyFarm",
    "ClassifyStage",
    "CommunicationBlock",
    "DeadLetter",
    "DeadLetterQueue",
    "DeliveryEngine",
    "DeliveryMode",
    "DeliveryOutcome",
    "EmailManager",
    "EpochAudit",
    "ExtractionRule",
    "FailoverController",
    "FarmProfile",
    "FarmTenant",
    "FencingService",
    "FilterDecision",
    "FilterPolicy",
    "FilterStage",
    "Host",
    "IMManager",
    "LoadShedder",
    "LogEntry",
    "MasterDaemonController",
    "MonkeyThread",
    "MyAlertBuddy",
    "PairSide",
    "PessimisticLog",
    "PipelineContext",
    "PipelineStage",
    "RejuvenationPolicy",
    "ReplicaRole",
    "ReplicatedPair",
    "RetryStage",
    "RouteStage",
    "SMSManager",
    "SelfStabilizer",
    "SimbaEndpoint",
    "Subscription",
    "SubscriptionLayer",
    "ThrottleStage",
    "TimeWindow",
    "TokenBucket",
    "UserAddress",
    "UserEndpoint",
    "build_pair",
]
