"""Exception hierarchy for the SIMBA reproduction.

All library-specific errors derive from :class:`SimbaError` so callers can
catch everything from this package with a single ``except`` clause.  Errors
raised by the simulation kernel derive from :class:`SimulationError`; errors
raised by the modelled system components derive from more specific classes.
"""

from __future__ import annotations


class SimbaError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(SimbaError):
    """Base class for errors raised by the discrete-event kernel."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class StopSimulation(Exception):
    """Internal control-flow signal used by ``Environment.run(until=event)``.

    Deliberately not a :class:`SimbaError`: user code should never catch it.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value



class Interrupt(SimulationError):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, available as ``exc.cause``.
    """

    @property
    def cause(self):
        return self.args[0] if self.args else None


class ConfigurationError(SimbaError):
    """A component was configured with invalid or inconsistent parameters."""


class ChannelError(SimbaError):
    """Base class for communication-substrate failures."""


class ChannelUnavailable(ChannelError):
    """The channel (IM server, SMTP relay, SMS gateway) is down or offline."""


class DeliveryFailure(ChannelError):
    """A message could not be submitted to or delivered by a channel."""


class AutomationError(SimbaError):
    """Base class for failures of client-software automation interfaces."""


class StalePointerError(AutomationError):
    """An automation pointer refers to a client instance that no longer exists.

    Mirrors the paper's observation that restarting client software
    invalidates every automation pointer held by the driving application.
    """


class ClientHungError(AutomationError):
    """The client software did not respond to an automation call in time."""


class NotLoggedInError(AutomationError):
    """The client software is not logged on to its server."""


class DialogBlockedError(AutomationError):
    """A modal dialog box is blocking the client from making progress."""


class AddressUnknownError(SimbaError):
    """A delivery-mode action references a friendly name with no address."""


class SubscriptionError(SimbaError):
    """Invalid subscription-layer operation (unknown user, category, mode)."""


class AlertRejected(SimbaError):
    """An incoming alert was rejected (e.g. unaccepted source) by MAB."""
