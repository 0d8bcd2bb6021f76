"""SIMBA as a delivery strategy, for head-to-head baseline comparison.

Wraps a real source endpoint + MyAlertBuddy deployment behind the same
``deliver(alert, user)`` interface as the baselines: the alert travels
source → MAB (IM-ack-then-email) → delivery-mode routing → user.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.alert import Alert
from repro.core.endpoint import SimbaEndpoint
from repro.core.user_endpoint import UserEndpoint
from repro.sources.base import AlertSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment
    from repro.world import BuddyDeployment


class SimbaStrategy:
    """Deliver through the full SIMBA pipeline.

    The source side is an :class:`~repro.sources.base.AlertSource` (the
    same object every alert source is); the MAB side is the deployment's
    own :class:`~repro.core.pipeline.AlertPipeline` running inside its
    buddy.

    The deployment must already have the user registered and categories
    subscribed (critical alerts ride the "critical" delivery mode, routine
    ones "normal").
    """

    name = "simba"

    def __init__(
        self,
        env: "Environment",
        source_endpoint: SimbaEndpoint,
        deployment: "BuddyDeployment",
        source_name: str = "bench-source",
    ):
        self.env = env
        self.deployment = deployment
        self.source = AlertSource(env, source_name, source_endpoint)

    def deliver(self, alert: Alert, user: UserEndpoint) -> None:
        self.source.deliver(alert, self.deployment.source_facing_book())
