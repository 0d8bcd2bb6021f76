"""Communication Managers: exception-handling automation (§4.1.1).

Each Manager wraps one piece of communication client software and provides
the paper's three APIs:

- **Sanity Checking API** — "checks if the process of the client software is
  still running and if the pointers ... are still valid.  Then it performs a
  series of application-specific checks", re-logging-in after spurious
  logouts and escalating unfixable anomalies.
- **Shutdown/Restart API** — "terminates the currently running instance of
  the client software, restarts another instance, and refreshes all its
  pointers to point to the new instance."
- **Dialog-box Handling API** — delegates to the Manager's monkey thread.

The SMS "manager" has no GUI client to babysit (the gateway is a network
service), so it implements only the availability probe — included so the
delivery engine can treat all three channels uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.clients.automation import AutomationHandle
from repro.clients.email_client import EmailClient
from repro.clients.im_client import IMClient
from repro.core.monkey import MonkeyThread
from repro.errors import (
    AutomationError,
    ChannelError,
    ChannelUnavailable,
    ClientHungError,
    DialogBlockedError,
    StalePointerError,
)
from repro.net.email import EmailMessage
from repro.net.im import IMMessage
from repro.net.sms import SMSGateway, SMSMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


@dataclass
class SanityReport:
    """Outcome of one sanity-check pass."""

    healthy: bool
    #: Repairs performed during the check ("re-logon", "restart", ...).
    repairs: list[str] = field(default_factory=list)
    #: Problems observed (possibly already repaired).
    issues: list[str] = field(default_factory=list)
    #: The backing network service is down — nothing local to fix.
    service_down: bool = False
    #: A modal dialog is blocking; the monkey thread owns that repair.
    dialog_blocked: bool = False


@dataclass
class ManagerStats:
    """Recovery-action counters (the E6 bench reports these)."""

    sanity_checks: int = 0
    relogons: int = 0
    restarts: int = 0
    submissions: int = 0
    submission_failures: int = 0


class _Counted:
    """A manager's recovery counters.  Each reads as the class's zero until
    its first count, so a manager that never counts stores none."""

    sanity_checks = relogons = restarts = 0
    submissions = submission_failures = 0

    @property
    def stats(self) -> ManagerStats:
        """The counters as they stand now."""
        return ManagerStats(
            sanity_checks=self.sanity_checks,
            relogons=self.relogons,
            restarts=self.restarts,
            submissions=self.submissions,
            submission_failures=self.submission_failures,
        )


class _DialogHandling:
    """The Dialog-box Handling API: the manager's monkey thread, built on
    first use — a tenant whose monkeys are off never builds one."""

    CLIENT_DIALOG_RULES: dict[str, str]
    env: "Environment"
    client: "IMClient | EmailClient"
    _monkey: Optional[MonkeyThread] = None

    @property
    def monkey(self) -> MonkeyThread:
        if self._monkey is None:
            self._monkey = MonkeyThread(
                self.env, self.client.screen,
                client_rules=self.CLIENT_DIALOG_RULES,
            )
        return self._monkey

    def stop_monkey(self) -> None:
        """Stop the monkey thread, if one was ever built."""
        if self._monkey is not None:
            self._monkey.stop()

    def register_dialog_rule(self, caption: str, button: str) -> None:
        self.monkey.register_rule(caption, button)


class IMManager(_DialogHandling, _Counted):
    """Manager for the GUI IM client."""

    #: Captions this client software is known to pop (client-specific pairs).
    CLIENT_DIALOG_RULES = {
        "Connection lost": "OK",
        "Signed in at another location": "OK",
        "IM service unavailable": "Retry",
    }

    def __init__(
        self,
        env: "Environment",
        client: IMClient,
    ):
        self.env = env
        self.client = client
        self._handle: Optional[AutomationHandle] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def handle(self) -> AutomationHandle:
        if self._handle is None:
            raise StalePointerError("IM manager holds no automation pointer")
        return self._handle

    def ensure_started(self) -> None:
        """Start the client (and log on) if it is not already running.

        Never raises for client-side trouble: a hung/blocked/offline client
        is left for the minutely sanity checks and the monkey thread to
        repair — startup must not crash-loop on a stuck dialog box.
        """
        if not self.client.running:
            self._handle = self.client.start()
        elif self._handle is None or not self._handle.valid():
            # Client runs but we hold no/stale pointer (fresh MAB incarnation
            # attaching to an already-running client): restart to get clean
            # pointers, exactly what a real automation driver must do.
            self.restart()
            return
        try:
            if not self.client.is_logged_on(self.handle):
                self.client.logon(self.handle)
        except (AutomationError, ChannelError):
            pass  # sanity checks / monkey thread will repair

    def restart(self) -> None:
        """The Shutdown/Restart API."""
        self.restarts += 1
        self.client.terminate()
        self._handle = self.client.start()
        try:
            self.client.logon(self._handle)
        except (AutomationError, ChannelError):
            # Service outage or a blocking system dialog: the sanity checks
            # re-log-on once the obstacle is gone.
            pass

    def shutdown(self) -> None:
        """Orderly shutdown (nightly rejuvenation, §4.2.1 item 2)."""
        if self.client.running and self._handle is not None and self._handle.valid():
            try:
                self.client.logoff(self._handle)
            except AutomationError:
                pass
        self.client.terminate()
        self._handle = None

    # ------------------------------------------------------------------
    # Sanity Checking API
    # ------------------------------------------------------------------

    def sanity_check(self) -> SanityReport:
        """Check, repair what is repairable, report the rest."""
        self.sanity_checks += 1
        report = SanityReport(healthy=True)

        if not self.client.running or self._handle is None or not self._handle.valid():
            report.issues.append("client process dead or pointer stale")
            self.restart()
            report.repairs.append("restart")
        try:
            logged_on = self.client.is_logged_on(self.handle)
        except ClientHungError:
            report.issues.append("client hung")
            self.restart()
            report.repairs.append("restart")
            logged_on = self._probe_logged_on(report)
        except DialogBlockedError as exc:
            report.issues.append(str(exc))
            report.dialog_blocked = True
            report.healthy = False
            return report
        except StalePointerError:
            report.issues.append("pointer went stale mid-check")
            self.restart()
            report.repairs.append("restart")
            logged_on = self._probe_logged_on(report)

        if logged_on is None:
            report.healthy = False
            return report
        if not logged_on:
            # "If it has been logged out due to, for example, server recovery
            # or network disconnection, it will be re-logged in."
            report.issues.append("client logged out")
            try:
                self.client.logon(self.handle)
                self.relogons += 1
                report.repairs.append("re-logon")
            except ChannelUnavailable:
                report.service_down = True
                report.healthy = False
                return report
            except AutomationError as exc:
                report.issues.append(f"re-logon failed: {exc}")
                report.healthy = False
                return report

        if not self.client.service.available:
            report.service_down = True
            report.healthy = False
        return report

    def _probe_logged_on(self, report: SanityReport) -> Optional[bool]:
        """Second attempt at the logged-on probe after a restart."""
        try:
            return self.client.is_logged_on(self.handle)
        except AutomationError as exc:
            report.issues.append(f"still failing after restart: {exc}")
            return None

    # ------------------------------------------------------------------
    # Sending (used by the delivery engine)
    # ------------------------------------------------------------------

    def submit(
        self,
        address: str,
        subject: str,
        body: str,
        correlation: Optional[str] = None,
    ) -> IMMessage:
        """Send one IM through the client; raises on any failure."""
        self.submissions += 1
        try:
            return self.client.send_instant_message(
                self.handle, address, body, subject=subject, correlation=correlation
            )
        except (AutomationError, ChannelError):
            self.submission_failures += 1
            raise


class EmailManager(_DialogHandling, _Counted):
    """Manager for the GUI email client."""

    CLIENT_DIALOG_RULES = {
        "Mail delivery problem": "OK",
        "Server not responding": "Cancel",
    }

    def __init__(
        self,
        env: "Environment",
        client: EmailClient,
    ):
        self.env = env
        self.client = client
        self._handle: Optional[AutomationHandle] = None

    @property
    def handle(self) -> AutomationHandle:
        if self._handle is None:
            raise StalePointerError("email manager holds no automation pointer")
        return self._handle

    def ensure_started(self) -> None:
        if not self.client.running:
            self._handle = self.client.start()
        elif self._handle is None or not self._handle.valid():
            self.restart()

    def restart(self) -> None:
        self.restarts += 1
        self.client.terminate()
        self._handle = self.client.start()

    def shutdown(self) -> None:
        self.client.terminate()
        self._handle = None

    def sanity_check(self) -> SanityReport:
        self.sanity_checks += 1
        report = SanityReport(healthy=True)
        if not self.client.running or self._handle is None or not self._handle.valid():
            report.issues.append("client process dead or pointer stale")
            self.restart()
            report.repairs.append("restart")
        try:
            reachable = self.client.server_reachable(self.handle)
        except ClientHungError:
            report.issues.append("client hung")
            self.restart()
            report.repairs.append("restart")
            try:
                reachable = self.client.server_reachable(self.handle)
            except AutomationError as exc:
                report.issues.append(f"still failing after restart: {exc}")
                report.healthy = False
                return report
        except DialogBlockedError as exc:
            report.issues.append(str(exc))
            report.dialog_blocked = True
            report.healthy = False
            return report
        if not reachable:
            report.service_down = True
            report.healthy = False
        return report

    def submit(
        self,
        address: str,
        subject: str,
        body: str,
        correlation: Optional[str] = None,
        importance: str = "normal",
    ) -> EmailMessage:
        self.submissions += 1
        try:
            return self.client.send_mail(
                self.handle,
                address,
                subject,
                body,
                importance=importance,
                correlation=correlation,
            )
        except (AutomationError, ChannelError):
            self.submission_failures += 1
            raise


class SMSManager(_Counted):
    """Gateway-facing SMS sender (no client software to manage)."""

    def __init__(self, env: "Environment", gateway: SMSGateway):
        self.env = env
        self.gateway = gateway

    def ensure_started(self) -> None:
        """Nothing to start; present for interface uniformity."""

    def shutdown(self) -> None:
        """Nothing to shut down."""

    def sanity_check(self) -> SanityReport:
        self.sanity_checks += 1
        if self.gateway.available:
            return SanityReport(healthy=True)
        return SanityReport(
            healthy=False, service_down=True, issues=["SMS gateway down"]
        )

    def submit(
        self,
        address: str,
        subject: str,
        body: str,
        correlation: Optional[str] = None,
    ) -> SMSMessage:
        """SMS has no subject line; it is folded into the 160-char body."""
        self.submissions += 1
        text = f"{subject}: {body}" if subject else body
        try:
            return self.gateway.send("simba", address, text, correlation=correlation)
        except ChannelError:
            self.submission_failures += 1
            raise
