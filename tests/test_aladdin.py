"""Unit + integration tests for the Aladdin home-networking substrate."""

import pytest

from repro.aladdin import (
    AladdinHome,
    HomeNetwork,
    ReplicationGroup,
    SensorState,
    SoftStateStore,
    Transceiver,
)
from repro.aladdin.sss import (
    SSSEventKind,
    UnknownType,
    UnknownVariable,
)
from repro.errors import ConfigurationError
from repro.net import LatencyModel
from repro.sim import Environment, MINUTE, RngRegistry
from tests.recorders import record_alerts

FAST_NET = LatencyModel(median=0.1, sigma=0.0, low=0.0, high=1.0)


class TestSoftStateStore:
    def _store(self):
        env = Environment()
        store = SoftStateStore(env, "pc1")
        store.define_type("sensor")
        return env, store

    def test_create_requires_type(self):
        env, store = self._store()
        with pytest.raises(UnknownType):
            store.create("x", "undefined", 0, 10.0, 2)

    def test_create_read_write(self):
        env, store = self._store()
        store.create("water", "sensor", "OFF", 10.0, 2)
        assert store.read("water") == "OFF"
        store.write("water", "ON")
        assert store.read("water") == "ON"

    def test_duplicate_create_rejected(self):
        env, store = self._store()
        store.create("water", "sensor", "OFF", 10.0, 2)
        with pytest.raises(ConfigurationError):
            store.create("water", "sensor", "OFF", 10.0, 2)

    def test_invalid_contract_rejected(self):
        env, store = self._store()
        with pytest.raises(ConfigurationError):
            store.create("x", "sensor", 0, 0.0, 2)
        with pytest.raises(ConfigurationError):
            store.create("x", "sensor", 0, 10.0, -1)

    def test_unknown_variable(self):
        env, store = self._store()
        with pytest.raises(UnknownVariable):
            store.read("ghost")

    def test_change_event_fired_only_on_value_change(self):
        env, store = self._store()
        events = []
        store.subscribe(events.append, type_name="sensor")
        store.create("water", "sensor", "OFF", 10.0, 2)
        store.write("water", "ON")
        store.write("water", "ON")  # refresh, same value
        kinds = [e.kind for e in events]
        assert kinds == [
            SSSEventKind.CREATED,
            SSSEventKind.CHANGED,
            SSSEventKind.REFRESHED,
        ]

    def test_subscription_filters(self):
        env, store = self._store()
        store.define_type("security")
        by_type, by_var = [], []
        store.subscribe(by_type.append, type_name="security")
        store.subscribe(by_var.append, variable="water")
        store.create("water", "sensor", "OFF", 10.0, 2)
        store.create("armed", "security", True, 10.0, 2)
        assert [e.variable for e in by_type] == ["armed"]
        assert [e.variable for e in by_var] == ["water"]

    def test_timeout_after_missed_refreshes(self):
        env, store = self._store()
        events = []
        store.subscribe(events.append)
        store.create("water", "sensor", "OFF", 10.0, 2)

        def refresher(env):
            for _ in range(3):
                yield env.timeout(10.0)
                store.refresh("water")
            # Then stop refreshing: deadline is last_refresh + 10*(2+1)=+30.

        env.process(refresher(env))
        env.run(until=70.0)
        timeout_events = [e for e in events if e.kind is SSSEventKind.TIMED_OUT]
        assert len(timeout_events) == 1
        assert 60.0 <= timeout_events[0].at <= 62.0
        assert store.variable("water").timed_out

    def test_write_revives_timed_out_variable(self):
        env, store = self._store()
        events = []
        store.subscribe(events.append)
        store.create("water", "sensor", "OFF", 1.0, 0)
        env.run(until=5.0)  # deadline passed, no refresh
        assert store.variable("water").timed_out
        store.write("water", "ON")
        assert not store.variable("water").timed_out
        kinds = [e.kind for e in events]
        assert SSSEventKind.REVIVED in kinds


class TestNetworks:
    def test_broadcast_reaches_all_listeners(self):
        env = Environment()
        rngs = RngRegistry(seed=1)
        net = HomeNetwork(env, "pl", FAST_NET, rngs.stream("pl"))
        got_a, got_b = [], []
        net.attach(got_a.append)
        net.attach(got_b.append)
        net.send("signal")
        env.run()
        assert got_a == ["signal"] and got_b == ["signal"]
        assert net.log[0].delivered

    def test_loss(self):
        env = Environment()
        rngs = RngRegistry(seed=1)
        net = HomeNetwork(
            env, "pl", FAST_NET, rngs.stream("pl"), loss_probability=1.0
        )
        got = []
        net.attach(got.append)
        net.send("signal")
        env.run()
        assert got == []
        assert not net.log[0].delivered

    def test_transceiver_bridges_segments(self):
        env = Environment()
        rngs = RngRegistry(seed=1)
        rf = HomeNetwork(env, "rf", FAST_NET, rngs.stream("rf"))
        pl = HomeNetwork(env, "pl", FAST_NET, rngs.stream("pl"))
        Transceiver("x", rf, pl, convert=lambda p: f"pl:{p}")
        got = []
        pl.attach(got.append)
        rf.send("button")
        env.run()
        assert got == ["pl:button"]

    def test_detach(self):
        env = Environment()
        rngs = RngRegistry(seed=1)
        net = HomeNetwork(env, "pl", FAST_NET, rngs.stream("pl"))
        got = []
        net.attach(got.append)
        net.detach(got.append)  # different bound object — harmless
        listener = got.append
        net.attach(listener)
        net.detach(listener)
        net.send("x")
        env.run()
        assert got == []


class TestReplication:
    def _group(self):
        env = Environment()
        rngs = RngRegistry(seed=2)
        net = HomeNetwork(env, "phoneline", FAST_NET, rngs.stream("ph"))
        group = ReplicationGroup(env, net)
        a = SoftStateStore(env, "a")
        b = SoftStateStore(env, "b")
        for store in (a, b):
            store.define_type("sensor")
            group.join(store)
        return env, a, b, group

    def test_create_replicates(self):
        env, a, b, group = self._group()
        a.create("water", "sensor", "OFF", 10.0, 2)
        env.run(until=5.0)
        assert b.read("water") == "OFF"

    def test_write_replicates_and_fires_remote_event(self):
        env, a, b, group = self._group()
        a.create("water", "sensor", "OFF", 10.0, 2)
        env.run(until=1.0)
        remote_events = []
        b.subscribe(remote_events.append, variable="water")
        a.write("water", "ON")
        env.run(until=2.0)
        assert b.read("water") == "ON"
        changed = [e for e in remote_events if e.kind is SSSEventKind.CHANGED]
        assert len(changed) == 1
        assert changed[0].origin == "a"

    def test_no_replication_loop(self):
        env, a, b, group = self._group()
        a.create("water", "sensor", "OFF", 10.0, 2)
        a.write("water", "ON")
        env.run(until=30.0)
        # One create + one change crossing the wire; replicated-in events do
        # not re-multicast endlessly.
        assert group.replicated <= 4

    def test_refresh_replication_keeps_replica_alive(self):
        env, a, b, group = self._group()
        a.create("water", "sensor", "OFF", 5.0, 1)

        def refresher(env):
            for _ in range(10):
                yield env.timeout(5.0)
                a.refresh("water")

        env.process(refresher(env))
        env.run(until=45.0)
        assert not a.variable("water").timed_out
        assert not b.variable("water").timed_out
        env.run(until=80.0)  # refreshes stopped at t=50
        assert a.variable("water").timed_out
        assert b.variable("water").timed_out


class TestAladdinHomeChain:
    def _home(self, seed=3):
        from repro.clients import Screen
        from repro.core import SimbaEndpoint
        from repro.net import EmailService, IMService, SMSGateway

        env = Environment()
        rngs = RngRegistry(seed=seed)
        im = IMService(env, rngs.stream("im"))
        email = EmailService(env, rngs.stream("email"))
        sms = SMSGateway(env, rngs.stream("sms"))
        screen = Screen(env)
        endpoint = SimbaEndpoint(
            env, "aladdin-ep", screen, im, email, sms,
            "aladdin@im", "aladdin@mail", auto_ack=False,
        )
        endpoint.start()
        home = AladdinHome(env, rngs, endpoint)
        return env, home, record_alerts(home.gateway)

    def test_disarm_chain_reaches_gateway_and_emits_alert(self):
        env, home, emitted = self._home()

        def scenario(env):
            yield env.timeout(10.0)
            home.disarm_via_remote()

        env.process(scenario(env))
        env.run(until=60.0)
        assert home.security.armed is False
        assert home.security.transitions == [("disarmed", False)]
        keywords = [a.keyword for a in emitted]
        assert keywords == ["Security Disarmed"]

    def test_water_sensor_trip_emits_critical_alert(self):
        env, home, emitted = self._home()
        sensor = home.add_sensor("Basement Water", critical=True,
                                 refresh_period=30.0)

        def scenario(env):
            yield env.timeout(40.0)  # let the create replicate first
            sensor.trip()

        env.process(scenario(env))
        env.run(until=90.0)
        keywords = [a.keyword for a in emitted]
        assert "Sensor ON" in keywords
        subjects = [a.subject for a in emitted]
        assert "Basement Water Sensor ON" in subjects

    def test_noncritical_sensor_does_not_alert(self):
        env, home, emitted = self._home()
        sensor = home.add_sensor("Hallway Motion", critical=False,
                                 refresh_period=30.0)

        def scenario(env):
            yield env.timeout(40.0)
            sensor.trip()

        env.process(scenario(env))
        env.run(until=90.0)
        assert all(a.keyword != "Sensor ON" for a in emitted)

    def test_dead_battery_triggers_sensor_broken(self):
        env, home, emitted = self._home()
        sensor = home.add_sensor(
            "Garage Door", critical=True, refresh_period=20.0, max_missed=2
        )

        def scenario(env):
            yield env.timeout(50.0)
            sensor.drain_battery()

        env.process(scenario(env))
        env.run(until=10 * MINUTE)
        keywords = [a.keyword for a in emitted]
        assert "Sensor Broken" in keywords

    def test_disarm_latency_in_paper_range(self):
        # Shape check: the full RF→powerline→SSS→multicast→gateway chain
        # takes seconds (order 5-15), not milliseconds and not minutes.
        latencies = []
        for seed in range(5):
            env, home, emitted = self._home(seed=seed)
            pressed_at = {}

            def scenario(env):
                yield env.timeout(10.0)
                home.disarm_via_remote()
                pressed_at["t"] = env.now

            env.process(scenario(env))
            env.run(until=120.0)
            assert emitted, f"seed {seed}: no alert emitted"
            latencies.append(emitted[0].created_at - pressed_at["t"])
        mean = sum(latencies) / len(latencies)
        assert 3.0 < mean < 15.0


class TestIRSegment:
    def test_ir_remote_bridged_to_powerline(self):
        from repro.aladdin.devices import RemoteControl

        env = Environment()
        rngs = RngRegistry(seed=5)
        from repro.clients import Screen
        from repro.core import SimbaEndpoint
        from repro.net import EmailService, IMService, SMSGateway

        im = IMService(env, rngs.stream("im"))
        email = EmailService(env, rngs.stream("email"))
        sms = SMSGateway(env, rngs.stream("sms"))
        endpoint = SimbaEndpoint(
            env, "aladdin-ep", Screen(env), im, email, sms,
            "aladdin@im", "aladdin@mail", auto_ack=False,
        )
        endpoint.start()
        home = AladdinHome(env, rngs, endpoint)
        ir_remote = RemoteControl(env, "tv-remote", home.ir)

        def scenario(env):
            yield env.timeout(10.0)
            ir_remote.press("disarm")

        env.process(scenario(env))
        env.run(until=60.0)
        # The IR signal crossed the transceiver onto the powerline and the
        # monitor applied it (modulo the 5% IR loss — seed 5 delivers).
        assert home.security.armed is False


class TestGatewayDetails:
    def _gateway_rig(self, seed=7):
        from repro.clients import Screen
        from repro.core import SimbaEndpoint
        from repro.net import EmailService, IMService, SMSGateway
        from repro.aladdin.gateway import AladdinGateway

        env = Environment()
        rngs = RngRegistry(seed=seed)
        im = IMService(env, rngs.stream("im"))
        email = EmailService(env, rngs.stream("email"))
        sms = SMSGateway(env, rngs.stream("sms"))
        endpoint = SimbaEndpoint(
            env, "gw-ep", Screen(env), im, email, sms,
            "gw@im", "gw@mail", auto_ack=False,
        )
        endpoint.start()
        store = SoftStateStore(env, "gw")
        store.define_type(AladdinGateway.SENSOR_TYPE)
        store.define_type(AladdinGateway.SECURITY_TYPE)
        gateway = AladdinGateway(
            env, "aladdin", endpoint, store, rng=rngs.stream("gw"),
        )
        return env, store, gateway, record_alerts(gateway)

    def test_security_alert_severity_important(self):
        from repro.core import AlertSeverity
        from repro.aladdin.gateway import AladdinGateway

        env, store, gateway, emitted = self._gateway_rig()
        store.create("security.armed", AladdinGateway.SECURITY_TYPE, True,
                     3600.0, 10**6)
        store.write("security.armed", False)
        env.run(until=30.0)
        (alert,) = emitted
        assert alert.severity is AlertSeverity.IMPORTANT
        assert alert.keyword == "Security Disarmed"

    def test_sensor_off_is_routine_severity(self):
        from repro.core import AlertSeverity
        from repro.aladdin.gateway import AladdinGateway

        env, store, gateway, emitted = self._gateway_rig()
        gateway.declare_critical("Water")
        store.create("Water", AladdinGateway.SENSOR_TYPE, "ON", 3600.0, 10**6)
        store.write("Water", "OFF")
        env.run(until=30.0)
        (alert,) = emitted
        assert alert.keyword == "Sensor OFF"
        assert alert.severity is AlertSeverity.ROUTINE

    def test_refresh_event_does_not_alert(self):
        from repro.aladdin.gateway import AladdinGateway

        env, store, gateway, emitted = self._gateway_rig()
        gateway.declare_critical("Water")
        store.create("Water", AladdinGateway.SENSOR_TYPE, "OFF", 3600.0, 10**6)
        store.refresh("Water")
        env.run(until=30.0)
        assert emitted == []

    def test_undeclared_sensor_timeout_still_alerts_broken(self):
        # Sensor Broken applies to any sensor-typed variable, critical or
        # not: a silently dead device is a maintenance problem either way.
        env, store, gateway, emitted = self._gateway_rig()
        from repro.aladdin.gateway import AladdinGateway

        store.create("Hallway Motion", AladdinGateway.SENSOR_TYPE, "OFF",
                     1.0, 0)
        env.run(until=60.0)
        keywords = [a.keyword for a in emitted]
        assert "Sensor Broken" in keywords
