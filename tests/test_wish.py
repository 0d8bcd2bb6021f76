"""Unit + integration tests for the WISH location substrate."""

import pytest

from repro.aladdin.sss import SoftStateStore
from repro.clients import Screen
from repro.core import SimbaEndpoint
from repro.errors import ConfigurationError
from repro.net import EmailService, IMService, SMSGateway
from repro.sim import Environment, RngRegistry
from repro.wish import (
    FloorPlan,
    LocationTrigger,
    PathLossModel,
    Region,
    WISHAlertService,
    WISHClient,
    WISHServer,
)
from repro.wish.alerts import NotAuthorized
from repro.wish.radio import signal_distance
from repro.wish.server import ClientReport
from tests.recorders import record_alerts


def office_plan():
    plan = FloorPlan("msr-building")
    plan.add_region(Region("west-wing", 0, 0, 20, 20))
    plan.add_region(Region("east-wing", 20, 0, 40, 20))
    plan.add_ap("ap-west", (10, 10))
    plan.add_ap("ap-east", (30, 10))
    plan.add_ap("ap-mid", (20, 5))
    return plan


class TestRadio:
    def test_power_decreases_with_distance(self):
        model = PathLossModel()
        assert model.mean_power(1.0) > model.mean_power(10.0) > model.mean_power(50.0)

    def test_reference_distance_floor(self):
        model = PathLossModel(p0_dbm=-30.0)
        assert model.mean_power(0.01) == -30.0

    def test_sensitivity_cutoff(self):
        model = PathLossModel(sensitivity_dbm=-60.0, shadowing_sigma_db=0.0)
        assert model.measure(1.0) is not None
        assert model.measure(1000.0) is None

    def test_shadowing_noise_reproducible(self):
        rngs = RngRegistry(seed=4)
        model = PathLossModel()
        a = model.measure(10.0, RngRegistry(seed=4).stream("r"))
        b = model.measure(10.0, RngRegistry(seed=4).stream("r"))
        assert a == b
        c = model.measure(10.0, rngs.stream("other"))
        assert c != a

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PathLossModel(d0=0.0)
        with pytest.raises(ConfigurationError):
            PathLossModel(exponent=-1.0)

    def test_signal_distance_symmetric_and_zero_on_equal(self):
        a = {"x": -40.0, "y": -60.0}
        b = {"x": -45.0, "z": -70.0}
        assert signal_distance(a, a) == 0.0
        assert signal_distance(a, b) == signal_distance(b, a)
        assert signal_distance({}, {}) == 0.0

    def test_missing_ap_counts_as_floor(self):
        a = {"x": -40.0}
        b = {}
        assert signal_distance(a, b) == pytest.approx(50.0)  # floor -90


class TestFloorPlan:
    def test_region_lookup(self):
        plan = office_plan()
        assert plan.region_at((5, 5)) == "west-wing"
        assert plan.region_at((25, 5)) == "east-wing"
        assert plan.region_at((100, 100)) == FloorPlan.OUTSIDE
        assert plan.region_at(None) == FloorPlan.OUTSIDE

    def test_duplicates_rejected(self):
        plan = office_plan()
        with pytest.raises(ConfigurationError):
            plan.add_region(Region("west-wing", 0, 0, 1, 1))
        with pytest.raises(ConfigurationError):
            plan.add_ap("ap-west", (0, 0))

    def test_degenerate_region_rejected(self):
        with pytest.raises(ConfigurationError):
            Region("r", 0, 0, 0, 10)

    def test_grid_covers_building(self):
        plan = office_plan()
        points = plan.grid_points(5.0)
        assert len(points) > 10
        assert all(plan.region_at(p) != FloorPlan.OUTSIDE for p in points)
        with pytest.raises(ConfigurationError):
            plan.grid_points(0.0)


class Rig:
    def __init__(self, seed=7, shadowing=2.0):
        self.env = Environment()
        self.rngs = RngRegistry(seed=seed)
        self.plan = office_plan()
        self.radio = PathLossModel(shadowing_sigma_db=shadowing)
        self.store = SoftStateStore(self.env, "wish-sss")
        self.server = WISHServer(
            self.env, self.plan, self.radio, self.store,
            rng=self.rngs.stream("wish-server"),
        )
        self.client = WISHClient(
            self.env, "victor", self.plan, self.radio, self.server,
            rng=self.rngs.stream("wish-client"), position=(5, 5),
        )


class TestServerAccuracy:
    def test_location_error_within_few_meters(self):
        # The paper claims accuracy "to within a few meters".
        rig = Rig(shadowing=2.0)
        errors = []
        for x, y in [(5, 5), (15, 10), (25, 5), (35, 15), (12, 3)]:
            rig.client.set_position((x, y))
            report = ClientReport(
                user="victor", activity="available",
                connected_ap=None, strengths=rig.client.measure(), sent_at=0.0,
            )
            estimate = rig.server.locate(report)
            assert estimate.position is not None
            error = ((estimate.position[0] - x) ** 2 +
                     (estimate.position[1] - y) ** 2) ** 0.5
            errors.append(error)
        assert sum(errors) / len(errors) < 6.0

    def test_region_identified(self):
        rig = Rig(shadowing=0.0)
        rig.client.set_position((5, 5))
        estimate = rig.server.locate(
            ClientReport("victor", "available", None,
                         rig.client.measure(), 0.0)
        )
        assert estimate.region == "west-wing"
        assert estimate.confidence > 50.0

    def test_empty_report_means_outside(self):
        rig = Rig()
        estimate = rig.server.locate(
            ClientReport("victor", "available", None, {}, 0.0)
        )
        assert estimate.region == FloorPlan.OUTSIDE
        assert estimate.position is None

    def test_confidence_decreases_with_noise(self):
        quiet = Rig(seed=7, shadowing=0.0)
        noisy = Rig(seed=7, shadowing=8.0)
        results = []
        for rig in (quiet, noisy):
            rig.client.set_position((5, 5))
            estimate = rig.server.locate(
                ClientReport("victor", "available", None,
                             rig.client.measure(), 0.0)
            )
            results.append(estimate.confidence)
        assert results[0] > results[1]

    def test_reports_update_soft_state(self):
        rig = Rig()
        rig.client.send_report_now()
        rig.env.run(until=10.0)
        value = rig.store.read("wish.user.victor")
        assert value["region"] == "west-wing"
        assert 0.0 <= value["confidence"] <= 100.0
        assert rig.server.last_estimate("victor") is not None

    def test_periodic_reporting(self):
        rig = Rig()
        rig.client.start()
        rig.env.run(until=31.0)
        assert rig.client.reports_sent == 10
        rig.client.stop()
        rig.env.run(until=61.0)
        assert rig.client.reports_sent == 10


class TestAlertService:
    def _service(self, rig):
        im = IMService(rig.env, rig.rngs.stream("im"))
        email = EmailService(rig.env, rig.rngs.stream("email"))
        sms = SMSGateway(rig.env, rig.rngs.stream("sms"))
        screen = Screen(rig.env)
        endpoint = SimbaEndpoint(
            rig.env, "wish-ep", screen, im, email, sms,
            "wish@im", "wish@mail", auto_ack=False,
        )
        endpoint.start()
        return WISHAlertService(rig.env, "wish", endpoint, rig.server)

    def _book(self):
        from repro.core import AddressBook, UserAddress
        from repro.net import ChannelType

        book = AddressBook(owner="mab-boss")
        book.add(UserAddress("Email", ChannelType.EMAIL, "mab-boss@mail"))
        return book

    def test_tracking_requires_authorization(self):
        rig = Rig()
        service = self._service(rig)
        with pytest.raises(NotAuthorized):
            service.request_tracking(
                "boss", "victor", {LocationTrigger.ENTER_BUILDING}, self._book()
            )

    def test_revoke_blocks_new_requests(self):
        rig = Rig()
        service = self._service(rig)
        service.authorize("victor", "boss")
        service.revoke("victor", "boss")
        with pytest.raises(NotAuthorized):
            service.request_tracking(
                "boss", "victor", {LocationTrigger.MOVE_REGION}, self._book()
            )

    def test_move_region_alert(self):
        rig = Rig(shadowing=0.0)
        service = self._service(rig)
        service.authorize("victor", "boss")
        request = service.request_tracking(
            "boss", "victor", {LocationTrigger.MOVE_REGION}, self._book()
        )
        emitted = record_alerts(service)
        rig.client.start()
        rig.client.walk([(20.0, (30, 10))])  # west-wing -> east-wing at t=20
        rig.env.run(until=60.0)
        assert request.alerts_sent == 1
        assert any("west-wing -> east-wing" in a.body for a in emitted)

    def test_leave_and_enter_building(self):
        rig = Rig(shadowing=0.0)
        service = self._service(rig)
        service.authorize("victor", "boss")
        request = service.request_tracking(
            "boss",
            "victor",
            {LocationTrigger.LEAVE_BUILDING, LocationTrigger.ENTER_BUILDING},
            self._book(),
        )
        emitted = record_alerts(service)
        rig.client.start()
        rig.client.walk([(20.0, None), (40.0, (5, 5))])
        rig.env.run(until=80.0)
        assert request.alerts_sent == 2
        keywords = [a.keyword for a in emitted]
        assert "Location leave_building" in keywords
        assert "Location enter_building" in keywords

    def test_untriggered_transitions_ignored(self):
        rig = Rig(shadowing=0.0)
        service = self._service(rig)
        service.authorize("victor", "boss")
        request = service.request_tracking(
            "boss", "victor", {LocationTrigger.LEAVE_BUILDING}, self._book()
        )
        rig.client.start()
        rig.client.walk([(20.0, (30, 10))])  # move region, not leave
        rig.env.run(until=60.0)
        assert request.alerts_sent == 0


class TestServerParameters:
    def test_k_parameter_controls_averaging(self):
        rig1 = Rig(shadowing=0.0)
        from repro.wish import WISHServer as WS
        from repro.aladdin.sss import SoftStateStore

        # k=1 snaps to the single nearest lattice point (on-grid position).
        store = SoftStateStore(rig1.env, "sss-k1")
        server_k1 = WISHServer(
            rig1.env, rig1.plan, rig1.radio, store,
            rng=rig1.rngs.stream("k1"), k=1, grid_spacing=2.0,
        )
        rig1.client.set_position((5, 5))
        report = ClientReport("victor", "available", None,
                              rig1.client.measure(), 0.0)
        estimate = server_k1.locate(report)
        # Lattice points sit at odd coordinates (spacing/2 offset): k=1
        # lands exactly on one of them.
        assert estimate.position[0] % 1.0 == 0.0
        assert estimate.position[1] % 1.0 == 0.0

    def test_activity_status_propagates_to_store(self):
        rig = Rig()
        rig.client.activity = "in a meeting"
        rig.client.send_report_now()
        rig.env.run(until=10.0)
        value = rig.store.read("wish.user.victor")
        assert value["activity"] == "in a meeting"

    def test_user_variable_times_out_when_reports_stop(self):
        rig = Rig()
        rig.client.start()
        rig.env.run(until=20.0)
        rig.client.stop()
        # user_refresh_period=10, max_missed=3 -> deadline 40 s after the
        # last report.
        rig.env.run(until=120.0)
        variable = rig.store.variable("wish.user.victor")
        assert variable.timed_out

    def test_wish_stale_user_revives_on_next_report(self):
        rig = Rig()
        rig.client.send_report_now()
        rig.env.run(until=120.0)
        assert rig.store.variable("wish.user.victor").timed_out
        rig.client.send_report_now()
        rig.env.run(until=125.0)
        assert not rig.store.variable("wish.user.victor").timed_out
