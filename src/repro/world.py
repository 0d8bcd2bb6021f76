"""World assembly: wire a complete SIMBA deployment in a few lines.

A :class:`SimbaWorld` owns the simulation environment, the three channel
substrates, and the host machine, and hands out pre-wired users, buddies and
watchdogs.  It is the recommended entry point::

    world = SimbaWorld(seed=7)
    alice = world.create_user("alice")
    buddy = world.create_buddy(alice)
    buddy.register_user_endpoint(alice)
    buddy.subscribe("Investment", alice, "normal", keywords=["Stocks"])
    mdc = world.start_mdc(buddy)
    world.run(until=3600)

Everything remains overridable: each piece is a plain object from
:mod:`repro.core` / :mod:`repro.net` that can also be assembled by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Optional

from repro.core.addresses import AddressBook, UserAddress
from repro.core.aggregator import CategoryAggregator
from repro.core.buddy import BuddyConfig, BuddyJournal, MyAlertBuddy
from repro.core.classifier import AlertClassifier
from repro.core.delivery_modes import (
    Action,
    CommunicationBlock,
    DeliveryMode,
)
from repro.core.endpoint import SimbaEndpoint
from repro.core.farm import BuddyFarm
from repro.core.filters import FilterPolicy
from repro.core.host import Host
from repro.core.pessimistic_log import PessimisticLog
from repro.core.subscription import SubscriptionLayer
from repro.core.user_endpoint import UserEndpoint
from repro.core.watchdog import MasterDaemonController
from repro.net.channel import LatencyModel
from repro.net.email import DEFAULT_EMAIL_LATENCY, DEFAULT_EMAIL_LOSS, EmailService
from repro.net.im import DEFAULT_IM_LATENCY, IMService
from repro.net.message import ChannelType
from repro.net.sms import DEFAULT_SMS_LATENCY, DEFAULT_SMS_LOSS, SMSGateway
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.sources.base import AlertSource

#: Patience for the user's own acknowledgement (humans are slower than MAB).
USER_ACK_TIMEOUT = 30.0


def user_stream(name: str) -> str:
    """The RNG stream of user ``name``'s endpoint."""
    return f"user-{name}"


def buddy_stream(name: str) -> str:
    """The RNG stream of user ``name``'s MAB deployment."""
    return f"buddy-{name}"


@dataclass
class WorldConfig:
    """Tunable channel and logging parameters for a world."""

    seed: int = 0
    im_latency: LatencyModel = DEFAULT_IM_LATENCY
    im_loss: float = 0.0
    email_latency: LatencyModel = DEFAULT_EMAIL_LATENCY
    email_loss: float = DEFAULT_EMAIL_LOSS
    sms_latency: LatencyModel = DEFAULT_SMS_LATENCY
    sms_loss: float = DEFAULT_SMS_LOSS
    log_write_latency: float = 0.5
    host_has_ups: bool = False


class BuddyDeployment:
    """Everything persistent about one user's MyAlertBuddy.

    Incarnations (actual MAB processes) come and go — launched by the MDC or
    by :meth:`launch` directly; the deployment is what survives.
    """

    def __init__(
        self,
        world: "SimbaWorld",
        user_name: str,
        log_path=None,
        journal_max_events: Optional[int] = None,
        host: Optional[Host] = None,
        config: Optional[BuddyConfig] = None,
        rng_label: Optional[str] = None,
    ):
        self.world = world
        self.user_name = user_name
        #: The machine this deployment runs on.  Defaults to the world's
        #: desktop; a warm standby (repro.core.replication) passes its own
        #: second host so the pair fails independently.
        self.host = host if host is not None else world.host
        self.im_address = f"mab-{user_name}@im"
        self.email_address = f"mab-{user_name}@mail"
        self.endpoint = SimbaEndpoint(
            world.env,
            name=f"mab-{user_name}",
            screen=self.host.screen,
            im_service=world.im,
            email_service=world.email,
            sms_gateway=world.sms,
            im_address=self.im_address,
            email_address=self.email_address,
        )
        if log_path is not None:
            # File-backed: the log survives even simulated machine reboots
            # (PessimisticLog.load can rebuild it in a fresh world).
            self.log = PessimisticLog.load(
                world.env, log_path,
                write_latency=world.config.log_write_latency,
            )
        else:
            self.log = PessimisticLog(
                world.env, write_latency=world.config.log_write_latency
            )
        self.journal = BuddyJournal(max_events=journal_max_events)
        # A replicated standby shares the primary's config object, so both
        # sides see one subscription set, one classifier, one set of
        # testkit hooks — the pair is one logical MAB.
        self.config = config if config is not None else BuddyConfig(
            user=user_name,
            classifier=AlertClassifier(),
            aggregator=CategoryAggregator(),
            filters=FilterPolicy(),
            subscriptions=SubscriptionLayer(),
        )
        self.rng = world.rngs.stream(rng_label or buddy_stream(user_name))
        self.incarnations: list[MyAlertBuddy] = []
        # Power loss / reboot kills the client software with everything else.
        self.host.on_shutdown(self._host_down)

    def _host_down(self) -> None:
        self.endpoint.stop(shutdown_clients=True)

    # ------------------------------------------------------------------
    # Address book the alert *sources* use to reach this MAB
    # ------------------------------------------------------------------

    def source_facing_book(self) -> AddressBook:
        """The only addresses ever revealed to alert services (§3.3)."""
        book = AddressBook(owner=f"mab-{self.user_name}")
        book.add(UserAddress("IM", ChannelType.IM, self.im_address))
        book.add(UserAddress("Email", ChannelType.EMAIL, self.email_address))
        return book

    # ------------------------------------------------------------------
    # Incarnation management
    # ------------------------------------------------------------------

    def make_incarnation(self) -> MyAlertBuddy:
        """MDC factory: build (but do not start) a fresh incarnation."""
        buddy = MyAlertBuddy(
            self.world.env,
            config=self.config,
            endpoint=self.endpoint,
            log=self.log,
            journal=self.journal,
            rng=self.rng,
        )
        self.incarnations.append(buddy)
        return buddy

    def launch(self) -> MyAlertBuddy:
        """Start an incarnation directly (no watchdog).

        Use either :meth:`launch` (simple scenarios) or
        :meth:`SimbaWorld.start_mdc` (which launches its own incarnation) —
        not both, or two incarnations will race for the same endpoint.
        """
        buddy = self.make_incarnation()
        buddy.start()
        return buddy

    @property
    def current(self) -> Optional[MyAlertBuddy]:
        """The most recent incarnation (alive or not)."""
        return self.incarnations[-1] if self.incarnations else None

    # ------------------------------------------------------------------
    # Convenience configuration
    # ------------------------------------------------------------------

    def register_user_endpoint(
        self, user: UserEndpoint, modes: Optional[list[DeliveryMode]] = None
    ) -> AddressBook:
        """Register ``user`` with standard addresses and delivery modes."""
        book = standard_user_book(user)
        self.config.subscriptions.register_user(user.name, book)
        for mode in modes if modes is not None else standard_modes():
            self.config.subscriptions.register_mode(user.name, mode)
        return book

    def subscribe(
        self,
        category: str,
        user: UserEndpoint,
        mode_name: str,
        keywords: Optional[list[str]] = None,
    ) -> None:
        """Declare a personal category, map keywords into it, subscribe."""
        self.config.subscriptions.register_category(category)
        for keyword in keywords or [category]:
            self.config.aggregator.map_keyword(keyword, category)
        self.config.subscriptions.subscribe(category, user.name, mode_name)


def standard_user_book(user: UserEndpoint) -> AddressBook:
    """IM + SMS + Email addresses under their conventional friendly names."""
    book = AddressBook(owner=user.name)
    book.add(UserAddress("IM", ChannelType.IM, user.im_address))
    book.add(UserAddress("SMS", ChannelType.SMS, user.phone_number))
    book.add(UserAddress("Email", ChannelType.EMAIL, user.email_address))
    return book


@cache
def standard_modes() -> tuple[DeliveryMode, ...]:
    """Three dependability levels a typical user would define (§3.2).

    Built once and shared by every user: the modes are frozen values.
    """
    return (
        # Critical: confirmable IM first; if unconfirmed, blast SMS + email.
        DeliveryMode(
            "critical",
            [
                CommunicationBlock(
                    [Action("IM")], require_ack=True, ack_timeout=USER_ACK_TIMEOUT
                ),
                CommunicationBlock([Action("SMS"), Action("Email")]),
            ],
        ),
        # Normal: try IM (fire-and-forget needs presence; use ack to detect
        # absence), fall back to email only.
        DeliveryMode(
            "normal",
            [
                CommunicationBlock(
                    [Action("IM")], require_ack=True, ack_timeout=USER_ACK_TIMEOUT
                ),
                CommunicationBlock([Action("Email")]),
            ],
        ),
        # Digest: email, nothing else — for alerts that can wait.
        DeliveryMode("digest", [CommunicationBlock([Action("Email")])]),
    )


class SimbaWorld:
    """One simulated universe: channels, host, users, buddies."""

    def __init__(self, config: Optional[WorldConfig] = None, seed: Optional[int] = None):
        if config is None:
            config = WorldConfig()
        if seed is not None:
            config = WorldConfig(**{**config.__dict__, "seed": seed})
        self.config = config
        self.env = Environment()
        self.rngs = RngRegistry(seed=config.seed)
        self.im = IMService(
            self.env,
            self.rngs.stream("im"),
            latency=config.im_latency,
            loss_probability=config.im_loss,
        )
        self.email = EmailService(
            self.env,
            self.rngs.stream("email"),
            latency=config.email_latency,
            loss_probability=config.email_loss,
        )
        self.sms = SMSGateway(
            self.env,
            self.rngs.stream("sms"),
            latency=config.sms_latency,
            loss_probability=config.sms_loss,
        )
        self.host = Host(self.env, has_ups=config.host_has_ups)
        self.users: dict[str, UserEndpoint] = {}
        self.buddies: dict[str, BuddyDeployment] = {}
        self.source_hosts: dict[str, Host] = {}

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def create_user(
        self,
        name: str,
        present: bool = True,
        ack_enabled: bool = True,
    ) -> UserEndpoint:
        if name in self.users:
            raise ValueError(f"user {name!r} already exists in this world")
        user = UserEndpoint(
            self.env,
            name=name,
            im_service=self.im,
            email_service=self.email,
            sms_gateway=self.sms,
            im_address=f"{name}@im",
            email_address=f"{name}@mail",
            phone_number=f"+1425555{len(self.users):04d}",
            rng=self.rngs.stream(user_stream(name)),
            present=present,
            ack_enabled=ack_enabled,
        )
        user.start()
        self.users[name] = user
        return user

    def prime_tenants(self, names: Iterable[str]) -> None:
        """Build the RNG streams of the tenants about to be created under
        ``names`` in one batch (:meth:`RngRegistry.prime`): only names a
        :meth:`create_user` + :meth:`create_buddy` pair will follow."""
        self.rngs.prime([
            stream(name)
            for name in names
            for stream in (user_stream, buddy_stream)
        ])

    def create_buddy(
        self,
        user: UserEndpoint,
        log_path=None,
        journal_max_events: Optional[int] = None,
        config: Optional[BuddyConfig] = None,
    ) -> BuddyDeployment:
        """Create the user's MAB deployment.

        ``log_path`` makes the pessimistic log file-backed (JSONL); an
        existing file is loaded, so a deployment can resume a previous
        world's unprocessed alerts — the disk-survives-reboot story.
        ``journal_max_events`` bounds the journal's retained event window
        (counts stay exact) for long high-volume runs.  ``config`` replaces
        the fresh, empty configuration (a farm builds its tenants' from the
        profile's shared tables).
        """
        if user.name in self.buddies:
            raise ValueError(f"{user.name!r} already has a MyAlertBuddy")
        deployment = BuddyDeployment(
            self, user.name, log_path=log_path,
            journal_max_events=journal_max_events, config=config,
        )
        self.buddies[user.name] = deployment
        return deployment

    def create_farm(self, shards: int = 16, profile=None) -> "BuddyFarm":
        """A multi-tenant :class:`~repro.core.farm.BuddyFarm` on this world.

        The farm shares this world's IM/email/SMS substrates and host; use
        :meth:`BuddyFarm.add_users` to populate it and
        :meth:`BuddyFarm.launch_all` to start every MAB.
        """
        return BuddyFarm(self, shards=shards, profile=profile)

    def create_source_endpoint(self, name: str) -> "SimbaEndpoint":
        """A started SIMBA-library endpoint for an alert source.

        Sources do not acknowledge incoming IMs (they only send), hence
        ``auto_ack=False``.
        """
        from repro.core.endpoint import SimbaEndpoint

        # Sources run on their own machines, not on the user's desktop —
        # each gets its own host (screen) so the user's host failures do not
        # take alert sources down with them.
        host = Host(self.env, name=f"{name}-host")
        self.source_hosts[name] = host
        endpoint = SimbaEndpoint(
            self.env,
            name=name,
            screen=host.screen,
            im_service=self.im,
            email_service=self.email,
            sms_gateway=self.sms,
            im_address=f"{name}@im",
            email_address=f"{name}@mail",
            auto_ack=False,
            maintenance_interval=60.0,
        )
        endpoint.start()
        return endpoint

    def create_source(self, name: str):
        """A generic :class:`~repro.sources.base.AlertSource` named ``name``."""
        return AlertSource(self.env, name, self.create_source_endpoint(name))

    def start_mdc(
        self, deployment: BuddyDeployment, **mdc_kwargs
    ) -> MasterDaemonController:
        mdc = MasterDaemonController(
            self.env,
            deployment.host,
            buddy_factory=deployment.make_incarnation,
            **mdc_kwargs,
        )
        mdc.start()
        return mdc

    def run(self, until=None):
        return self.env.run(until=until)
