"""The endpoints' receive loops as generator processes: a test-side copy
of the design the mailbox readers replaced (DESIGN §6d).

``with receive_loops():`` patches ``SimbaEndpoint.start`` and
``UserEndpoint._login`` so that every endpoint started inside it parks
its loops as processes again: one per channel per ``SimbaEndpoint``
generation, one per user IM session.  Each loop suspends on its mailbox
with ``yield store.get()``, runs the pre-ack hook inline with
``yield from``, and waits out the user's reaction with a timeout; a stale
loop hands its message back.  ``tests/test_reader_equivalence.py`` holds
the readers to these loops, and the idle budget in
``tests/test_hop_budget.py`` uses them as its teeth.
"""

from contextlib import contextmanager
from functools import partial

import pytest

from repro.core.alert import Alert
from repro.core.endpoint import (
    RECEIVE_RETRY_DELAY,
    IncomingAlert,
    SimbaEndpoint,
    make_ack_body,
    parse_ack_body,
)
from repro.core.user_endpoint import REACTION, UserEndpoint
from repro.errors import AutomationError, ChannelError
from repro.net.message import ChannelType


def start_with_loops(self):
    """``SimbaEndpoint.start`` with its receive loops as processes."""
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
    self.env.process(im_loop(self, generation), name=f"{self.name}-im-loop")
    self.env.process(
        email_loop(self, generation), name=f"{self.name}-email-loop"
    )
    if self.maintenance_interval is not None:
        self.env.every(
            self.maintenance_interval, partial(self._maintain, generation)
        )


def im_loop(self, generation):
    """Pump IMs: route acks to the engine, alerts to the inbox."""
    while self.running and self._generation == generation:
        message = None
        message = yield self.im_client.incoming.get()
        if not self.running or self._generation != generation:
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
            yield from handle_alert(
                self,
                message.body,
                via=ChannelType.IM,
                sender=message.sender,
                seq=message.seq,
                trace_parent=message.trace_parent,
            )
            continue
        if self.command_handler is not None:
            self.command_handler(message)


def email_loop(self, generation):
    """Pump emails; alerts to the inbox, the rest to the command hook."""
    while self.running and self._generation == generation:
        message = None
        try:
            message = yield self.email_client.fetch_next(
                self.email_manager.handle
            )
        except (AutomationError, ChannelError):
            yield self.env.timeout(RECEIVE_RETRY_DELAY)
            continue
        if not self.running or self._generation != generation:
            self.email_client.service.mailbox(self.email_address).put_back(
                message
            )
            return
        if message.corrupt:
            self.corrupt_discarded += 1
            continue
        if Alert.is_alert_payload(message.body):
            yield from handle_alert(
                self,
                message.body,
                via=ChannelType.EMAIL,
                sender=message.sender,
                trace_parent=message.trace_parent,
            )
            continue
        if self.command_handler is not None:
            self.command_handler(message)


def handle_alert(self, payload, via, sender, seq=None, trace_parent=None):
    try:
        alert = Alert.decode(payload)
    except ValueError:
        self.corrupt_discarded += 1
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
        if rspan is not None:
            tracer.end(rspan, "fenced")
        return
    if self.auto_ack and via is ChannelType.IM and seq is not None:
        epoch = (
            self.epoch_provider() if self.epoch_provider is not None else None
        )
        try:
            ack_message = self.im_manager.submit(
                sender,
                "",
                make_ack_body(seq, epoch),
                correlation=alert.alert_id,
            )
            if rspan is not None:
                ack_message.trace_parent = rspan.span_id
        except (AutomationError, ChannelError):
            if rspan is not None:
                rspan.annotations["ack_failed"] = True
    self.alert_inbox.put(incoming)
    if rspan is not None:
        tracer.end(rspan, "enqueued")


def login_with_loop(self):
    """``UserEndpoint._login`` with the IM window as a process."""
    try:
        self._session = self.im_service.login(self.im_address)
    except ChannelError:
        self._session = None
        return
    self._session.on_end = self._sync_poll
    self.env.process(user_im_loop(self, self._session), name=f"{self.name}-im")


def user_im_loop(self, session):
    while session.active and self._present:
        message = alert = None
        message = yield session.receive()
        if message.corrupt:
            self.corrupt_discarded += 1
            continue
        if not Alert.is_alert_payload(message.body):
            continue
        alert = Alert.decode(message.body)
        self._record(alert, ChannelType.IM)
        if self.ack_enabled:
            yield self.env.timeout(REACTION.draw(self.rng))
            if session.active:
                try:
                    session.send(
                        message.sender,
                        make_ack_body(message.seq),
                        correlation=alert.alert_id,
                    )
                except ChannelError:
                    pass


@contextmanager
def receive_loops(simba=True, user=True):
    """Endpoints started inside run their receive loops as processes."""
    with pytest.MonkeyPatch.context() as patch:
        if simba:
            patch.setattr(SimbaEndpoint, "start", start_with_loops)
        if user:
            patch.setattr(UserEndpoint, "_login", login_with_loop)
        yield
