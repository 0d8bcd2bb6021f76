"""SIMBA library runtime: one communicating endpoint.

Both MyAlertBuddy and the alert sources link the SIMBA library (§4.2 "we
modified the ... alert sources ... to use the 'IM-with-acknowledgement
followed by email' delivery mode of the SIMBA library").  An endpoint owns:

- an IM identity + GUI IM client + IM Manager,
- an email identity + GUI email client + Email Manager,
- an SMS manager (gateway-facing),
- a :class:`~repro.core.router.DeliveryEngine` for outgoing alerts,
- receive readers that separate application-level acknowledgements
  (``SIMBA-ACK <seq>``) from alert payloads and plain messages.

Incoming alerts are optionally acknowledged (``auto_ack``) after an optional
``pre_ack_hook`` runs — MyAlertBuddy hooks its pessimistic log there, which
is exactly the paper's log-before-ack ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.clients.email_client import EmailClient
from repro.clients.im_client import IMClient
from repro.clients.screen import Screen
from repro.core.addresses import AddressBook
from repro.core.alert import Alert
from repro.core.delivery_modes import DeliveryMode
from repro.core.managers import EmailManager, IMManager, SMSManager
from repro.core.router import DeliveryEngine, DeliveryRun
from repro.errors import AutomationError, ChannelError
from repro.net.email import EmailService, Mailbox
from repro.net.im import IMService
from repro.net.message import ChannelType, Message
from repro.net.sms import SMSGateway
from repro.sim.process import Stepper
from repro.sim.stores import Reader, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

ACK_PREFIX = "SIMBA-ACK"

#: How long the email reader waits after an automation error before retrying
#: (the sanity checks / monkey threads repair the client in the meantime).
RECEIVE_RETRY_DELAY = 2.0


@dataclass
class IncomingAlert:
    """An alert as it arrived at this endpoint."""

    alert: Alert
    via: ChannelType
    sender: str
    received_at: float
    #: IM sequence number when it arrived by IM (for ack bookkeeping).
    seq: Optional[int] = None
    #: Delivery-retry bookkeeping (set by MyAlertBuddy when a routing pass
    #: failed for every block and the alert is re-queued).
    attempts: int = 0
    #: When retrying, only these subscribers still need delivery.
    retry_users: Optional[frozenset[str]] = None
    #: Tracing only: span id the next pipeline trip should parent under
    #: (the receive span, a retry's trip, a failover handoff...).
    trace_parent: Optional[int] = None


def make_ack_body(seq: int, epoch: Optional[int] = None) -> str:
    """``SIMBA-ACK <seq>``, optionally stamped with the acking side's
    fencing epoch (``SIMBA-ACK <seq> epoch=<n>``) so a replicated pair's
    acks are attributable in forensics."""
    if epoch is None:
        return f"{ACK_PREFIX} {seq}"
    return f"{ACK_PREFIX} {seq} epoch={epoch}"


def parse_ack_body(body: str) -> Optional[int]:
    """Return the acknowledged seq, or None if ``body`` is not an ack."""
    if not body.startswith(ACK_PREFIX):
        return None
    fields = body[len(ACK_PREFIX):].split()
    if not fields:
        return None
    try:
        return int(fields[0])
    except ValueError:
        return None


class SimbaEndpoint:
    """One SIMBA-library node with IM + email + SMS capability."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        screen: Screen,
        im_service: IMService,
        email_service: EmailService,
        sms_gateway: SMSGateway,
        im_address: str,
        email_address: str,
        auto_ack: bool = True,
        maintenance_interval: Optional[float] = None,
    ):
        self.env = env
        self.name = name
        self.im_address = im_address
        self.email_address = email_address
        self.auto_ack = auto_ack
        #: Set by the owning MyAlertBuddy: its pessimistic log write, run
        #: before the ack goes out, and its handler for non-alert messages.
        self.pre_ack_hook: Optional[
            Callable[[IncomingAlert], Generator]
        ] = None
        self.command_handler: Optional[Callable[[Message], None]] = None
        #: Replication fencing hook: called with the IncomingAlert after the
        #: pre-ack log write; returning False suppresses both the ack and
        #: the enqueue (a fenced side must go silent, not double-route).
        self.ack_guard: Optional[Callable[[IncomingAlert], bool]] = None
        #: When set, outgoing acks are stamped with this fencing epoch.
        self.epoch_provider: Optional[Callable[[], int]] = None

        im_service.register_account(im_address)
        self.im_client = IMClient(
            env, screen, im_service, im_address, name=f"{name}-im-client"
        )
        self.email_client = EmailClient(
            env, screen, email_service, email_address, name=f"{name}-email-client"
        )
        self.im_manager = IMManager(env, self.im_client)
        self.email_manager = EmailManager(env, self.email_client)
        self.sms_manager = SMSManager(env, sms_gateway)
        self.engine = DeliveryEngine(
            env,
            {
                ChannelType.IM: self.im_manager,
                ChannelType.EMAIL: self.email_manager,
                ChannelType.SMS: self.sms_manager,
            },
        )
        #: Decoded alerts awaiting the application (MAB's routing loop).
        self.alert_inbox: Store = Store(env)
        #: Messages dropped at receive because the channel flagged them
        #: corrupt (failed checksum).  Never acked, never parsed: a corrupt
        #: alert behaves like a lost one, so the sender's fallback fires.
        self.corrupt_discarded = 0
        self.running = False
        self._generation = 0
        #: Ablation switch: whether start() launches the monkey threads.
        self.monkey_enabled = True
        #: When set, start() runs the managers' sanity checks on this period.
        #: MyAlertBuddy leaves it None (its self-stabilizer owns the checks);
        #: standalone sources set it so they too recover from logouts/hangs.
        self.maintenance_interval = maintenance_interval

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start clients, monkey threads and receive readers (idempotent)."""
        if self.running:
            return
        self.running = True
        self._generation += 1
        self.im_manager.ensure_started()
        self.email_manager.ensure_started()
        if self.monkey_enabled:
            self.im_manager.monkey.start()
            self.email_manager.monkey.start()
        generation = self._generation
        mailbox = self.email_client.service.mailbox(self.email_address)
        # Each reader arms from a zero-delay kick, where a loop process's
        # first step ran.
        for reader in (
            _IMReceiver(self, self.im_client.incoming),
            _EmailReceiver(self, mailbox),
        ):
            kick = self.env.event()
            kick.callbacks.append(reader.start)
            kick.succeed()
        if self.maintenance_interval is not None:
            # This generation's member of a cohort (DESIGN §6b).
            self.env.every(
                self.maintenance_interval, partial(self._maintain, generation)
            )

    def _maintain(self, generation: int, _now: float):
        """Library-side self-maintenance for endpoints without a stabilizer."""
        if not self.running or self._generation != generation:
            return False
        self.im_manager.sanity_check()
        self.email_manager.sanity_check()

    def stop(self, shutdown_clients: bool = False) -> None:
        """Stop the readers; optionally also shut the client software down.

        A reader finds out when it next takes a message or re-arms."""
        self.running = False
        self.im_manager.stop_monkey()
        self.email_manager.stop_monkey()
        if shutdown_clients:
            self.im_manager.shutdown()
            self.email_manager.shutdown()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def deliver_alert(
        self,
        alert: Alert,
        mode: DeliveryMode,
        book: AddressBook,
        trace_parent: Optional[int] = None,
    ) -> DeliveryRun:
        """Start delivering ``alert`` per ``mode``; the run ends with its
        :class:`~repro.core.router.DeliveryOutcome`."""
        return self.engine.execute(
            mode,
            book,
            subject=alert.subject,
            body=alert.encode(),
            correlation=alert.alert_id,
            trace_parent=trace_parent,
        )


class _Receiver(Reader):
    """One endpoint generation's reader of one channel: the callback form of
    a receive loop (DESIGN §6d).

    It routes what it takes (acks to the engine, alerts to the inbox, the
    rest to the command hook) and re-arms.  An alert keeps it busy while the
    ``pre_ack_hook`` generator runs on its :class:`Stepper` — MAB's log
    write and replication ship — so later messages queue and are read in
    order once it re-arms.  A reader whose generation has ended hands what
    it takes back to the head of the queue for whoever reads next, and
    stops.
    """

    __slots__ = ("endpoint", "generation", "stepper", "incoming", "rspan")

    def __init__(self, endpoint: "SimbaEndpoint", store: Store):
        super().__init__(store)
        self.endpoint = endpoint
        self.generation = endpoint._generation
        self.stepper: Optional[Stepper] = None
        # The alert in hand while the pre-ack hook runs (None when idle:
        # a parked reader pins nothing of the message it last handled).
        self.incoming: Optional[IncomingAlert] = None
        self.rspan = None

    def start(self, _kick) -> None:
        self.next()

    def next(self) -> None:
        """Re-arm while this generation runs."""
        endpoint = self.endpoint
        if endpoint.running and endpoint._generation == self.generation:
            self.read()
        else:
            self.end()

    def end(self) -> None:
        """This generation is over: the reader takes nothing more."""
        stepper, self.stepper = self.stepper, None
        if stepper is not None:
            stepper.close()

    def hand_back(self, message: Message) -> None:
        """A stale reader's take: the message belongs to the queue, not to
        us — it goes back to the head for whoever reads next."""
        self.store.put_front(message)
        self.end()

    def receive(
        self, message: Message, via: ChannelType, seq: Optional[int]
    ) -> None:
        """Route a taken message; re-arm unless an alert's hook waits."""
        endpoint = self.endpoint
        if message.corrupt:
            endpoint.corrupt_discarded += 1
        elif via is ChannelType.IM and (
            ack := parse_ack_body(message.body)
        ) is not None:
            endpoint.engine.acks.resolve(message.sender, ack)
        elif Alert.is_alert_payload(message.body):
            self._alert(message, via, seq)
            return
        elif endpoint.command_handler is not None:
            endpoint.command_handler(message)
        self.next()

    def _alert(
        self, message: Message, via: ChannelType, seq: Optional[int]
    ) -> None:
        endpoint = self.endpoint
        try:
            alert = Alert.decode(message.body)
        except ValueError:
            # A payload that does not parse is as unusable as one that
            # fails its checksum: counted, never acked or routed.
            endpoint.corrupt_discarded += 1
            self.next()
            return
        env = endpoint.env
        incoming = IncomingAlert(
            alert=alert,
            via=via,
            sender=message.sender,
            received_at=env.now,
            seq=seq,
        )
        tracer = env.tracer
        if tracer is not None:
            rspan = self.rspan = tracer.begin(
                alert.alert_id,
                "receive",
                parent=message.trace_parent,
                via=via.value,
                endpoint=endpoint.name,
            )
            if seq is not None:
                rspan.annotations["seq"] = seq
            incoming.trace_parent = rspan.span_id
        self.incoming = incoming
        hook = endpoint.pre_ack_hook
        if hook is None:
            self._acknowledge(None)
            return
        stepper = self.stepper
        if stepper is None:
            stepper = self.stepper = Stepper(env, self._acknowledge)
        stepper.run(hook(incoming))

    def _acknowledge(self, _logged) -> None:
        """After the pre-ack hook: ack the alert, hand it to the inbox."""
        endpoint = self.endpoint
        incoming, rspan = self.incoming, self.rspan
        self.incoming = self.rspan = None
        tracer = endpoint.env.tracer
        if endpoint.ack_guard is not None and not endpoint.ack_guard(incoming):
            # Fenced: no ack (the sender falls back and the active side
            # receives the copy) and no enqueue.  The pre-ack log write
            # stays local and is handed over by reconciliation.
            if rspan is not None:
                tracer.end(rspan, "fenced")
            self.next()
            return
        seq = incoming.seq
        if endpoint.auto_ack and seq is not None:
            epoch = (
                endpoint.epoch_provider()
                if endpoint.epoch_provider is not None
                else None
            )
            try:
                ack_message = endpoint.im_manager.submit(
                    incoming.sender,
                    "",
                    make_ack_body(seq, epoch),
                    correlation=incoming.alert.alert_id,
                )
                if rspan is not None:
                    # The ack's transit span parents under the receive.
                    ack_message.trace_parent = rspan.span_id
            except (AutomationError, ChannelError):
                # Could not ack: the sender will fall back to email and the
                # alert may arrive twice; incoming dedup handles that.
                if rspan is not None:
                    rspan.annotations["ack_failed"] = True
        endpoint.alert_inbox.put(incoming)
        if rspan is not None:
            tracer.end(rspan, "enqueued")
        self.next()


class _IMReceiver(_Receiver):
    """Reads the IM client's surfaced queue."""

    __slots__ = ()

    def take(self, message: Message) -> None:
        endpoint = self.endpoint
        if not (endpoint.running and endpoint._generation == self.generation):
            self.hand_back(message)
            return
        self.receive(message, ChannelType.IM, message.seq)


class _EmailReceiver(_Receiver):
    """Reads the mailbox through the email client, which may refuse (hung,
    stale, blocked): then it tries again after ``RECEIVE_RETRY_DELAY``."""

    __slots__ = ("mailbox",)

    def __init__(self, endpoint: "SimbaEndpoint", mailbox: Mailbox):
        super().__init__(endpoint, mailbox.unread)
        self.mailbox = mailbox

    def next(self) -> None:
        endpoint = self.endpoint
        if not (endpoint.running and endpoint._generation == self.generation):
            self.end()
            return
        try:
            endpoint.email_client.read_next(
                endpoint.email_manager.handle, self
            )
        except (AutomationError, ChannelError):
            endpoint.env.timeout(RECEIVE_RETRY_DELAY).callbacks.append(
                self.start
            )

    def take(self, message: Message) -> None:
        self.mailbox.mark_read(message)
        endpoint = self.endpoint
        if not (endpoint.running and endpoint._generation == self.generation):
            self.hand_back(message)
            return
        self.receive(message, ChannelType.EMAIL, None)

    def hand_back(self, message: Message) -> None:
        self.mailbox.put_back(message)  # unmarks it read, too
        self.end()
