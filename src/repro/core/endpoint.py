"""SIMBA library runtime: one communicating endpoint.

Both MyAlertBuddy and the alert sources link the SIMBA library (§4.2 "we
modified the ... alert sources ... to use the 'IM-with-acknowledgement
followed by email' delivery mode of the SIMBA library").  An endpoint owns:

- an IM identity + GUI IM client + IM Manager,
- an email identity + GUI email client + Email Manager,
- an SMS manager (gateway-facing),
- a :class:`~repro.core.router.DeliveryEngine` for outgoing alerts,
- receive loops that separate application-level acknowledgements
  (``SIMBA-ACK <seq>``) from alert payloads and plain messages.

Incoming alerts are optionally acknowledged (``auto_ack``) after an optional
``pre_ack_hook`` runs — MyAlertBuddy hooks its pessimistic log there, which
is exactly the paper's log-before-ack ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.clients.email_client import EmailClient
from repro.clients.im_client import IMClient
from repro.clients.screen import Screen
from repro.core.addresses import AddressBook
from repro.core.alert import Alert
from repro.core.delivery_modes import DeliveryMode
from repro.core.managers import EmailManager, IMManager, SMSManager
from repro.core.router import DeliveryEngine
from repro.errors import AutomationError, ChannelError
from repro.net.email import EmailService
from repro.net.im import IMService
from repro.net.message import ChannelType, Message
from repro.net.sms import SMSGateway
from repro.sim.stores import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

ACK_PREFIX = "SIMBA-ACK"

#: How long a receive loop sleeps after an automation error before retrying
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
        """Start clients, monkey threads and receive loops (idempotent)."""
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
        self.env.process(self._im_loop(generation), name=f"{self.name}-im-loop")
        self.env.process(
            self._email_loop(generation), name=f"{self.name}-email-loop"
        )
        if self.maintenance_interval is not None:
            # A timer chain of this generation, armed from a zero-delay
            # kick (DESIGN §6b).
            kick = self.env.event()
            kick.callbacks.append(self._arm_maintenance)
            kick.succeed(generation)

    def _arm_maintenance(self, event) -> None:
        generation = event.value
        if self.running and self._generation == generation:
            self.env.timeout(
                self.maintenance_interval, generation
            ).callbacks.append(self._maintain)

    def _maintain(self, timer) -> None:
        """Library-side self-maintenance for endpoints without a stabilizer."""
        if self.running and self._generation == timer.value:
            self.im_manager.sanity_check()
            self.email_manager.sanity_check()
            self._arm_maintenance(timer)

    def stop(self, shutdown_clients: bool = False) -> None:
        """Stop loops; optionally also shut the client software down."""
        self.running = False
        self.im_manager.monkey.stop()
        self.email_manager.monkey.stop()
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
    ):
        """Deliver ``alert`` per ``mode`` (generator returning the outcome)."""
        outcome = yield from self.engine.execute(
            mode,
            book,
            subject=alert.subject,
            body=alert.encode(),
            correlation=alert.alert_id,
            trace_parent=trace_parent,
        )
        return outcome

    # ------------------------------------------------------------------
    # Receive loops
    # ------------------------------------------------------------------

    def _im_loop(self, generation: int):
        """Pump IMs: route acks to the engine, alerts to the inbox."""
        while self.running and self._generation == generation:
            message = yield self.im_client.incoming.get()
            if not self.running or self._generation != generation:
                # This loop is stale (endpoint stopped or restarted): the
                # message belongs to the client's queue, not to us — put it
                # back for whoever runs next.
                self.im_client.incoming.put_front(message)
                return
            if message.corrupt:
                self.corrupt_discarded += 1
                continue
            seq = parse_ack_body(message.body)
            if seq is not None:
                self.engine.acks.resolve(message.sender, seq)
                continue
            if Alert.is_alert_payload(message.body):
                yield from self._handle_alert(
                    message.body,
                    via=ChannelType.IM,
                    sender=message.sender,
                    seq=message.seq,
                    trace_parent=message.trace_parent,
                )
                continue
            if self.command_handler is not None:
                self.command_handler(message)

    def _email_loop(self, generation: int):
        """Pump emails; alerts to the inbox, the rest to the command hook."""
        while self.running and self._generation == generation:
            try:
                message = yield self.email_client.fetch_next(
                    self.email_manager.handle
                )
            except (AutomationError, ChannelError):
                yield self.env.timeout(RECEIVE_RETRY_DELAY)
                continue
            if not self.running or self._generation != generation:
                self.email_client.service.mailbox(
                    self.email_address
                ).put_back(message)
                return
            if message.corrupt:
                self.corrupt_discarded += 1
                continue
            if Alert.is_alert_payload(message.body):
                yield from self._handle_alert(
                    message.body,
                    via=ChannelType.EMAIL,
                    sender=message.sender,
                    trace_parent=message.trace_parent,
                )
                continue
            if self.command_handler is not None:
                self.command_handler(message)

    def _handle_alert(
        self,
        payload: str,
        via: ChannelType,
        sender: str,
        seq: Optional[int] = None,
        trace_parent: Optional[int] = None,
    ):
        try:
            alert = Alert.decode(payload)
        except ValueError:
            return
        incoming = IncomingAlert(
            alert=alert, via=via, sender=sender, received_at=self.env.now, seq=seq
        )
        tracer = self.env.tracer
        rspan = None
        if tracer is not None:
            rspan = tracer.begin(
                alert.alert_id,
                "receive",
                parent=trace_parent,
                via=via.value,
                endpoint=self.name,
            )
            if seq is not None:
                rspan.annotations["seq"] = seq
            incoming.trace_parent = rspan.span_id
        if self.pre_ack_hook is not None:
            yield from self.pre_ack_hook(incoming)
        if self.ack_guard is not None and not self.ack_guard(incoming):
            # Fenced: no ack (the sender falls back and the active side
            # receives the copy) and no enqueue.  The pre-ack log write
            # above stays local and is handed over by reconciliation.
            if rspan is not None:
                tracer.end(rspan, "fenced")
            return
        if self.auto_ack and via is ChannelType.IM and seq is not None:
            epoch = (
                self.epoch_provider()
                if self.epoch_provider is not None
                else None
            )
            try:
                ack_message = self.im_manager.submit(
                    sender,
                    "",
                    make_ack_body(seq, epoch),
                    correlation=alert.alert_id,
                )
                if rspan is not None:
                    # The ack's transit span parents under the receive.
                    ack_message.trace_parent = rspan.span_id
            except (AutomationError, ChannelError):
                # Could not ack: the sender will fall back to email and the
                # alert may arrive twice; incoming dedup handles that.
                if rspan is not None:
                    rspan.annotations["ack_failed"] = True
        self.alert_inbox.put(incoming)
        if rspan is not None:
            tracer.end(rspan, "enqueued")
