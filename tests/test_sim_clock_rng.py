"""Unit tests for clock helpers, RNG registry, and fault injection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.channel import LatencyModel
from repro.net.email import DEFAULT_EMAIL_LATENCY
from repro.net.im import DEFAULT_IM_LATENCY
from repro.net.sms import DEFAULT_SMS_LATENCY
from repro.sim import DAY, HOUR, MINUTE, Environment, RngRegistry, format_time
from repro.sim.clock import seconds_until_time_of_day, time_of_day
from repro.sim.failures import FaultInjector, FaultKind, ScheduledFault
from repro.sim.link import DEFAULT_LINK_LATENCY


class TestClock:
    def test_units(self):
        assert MINUTE == 60 and HOUR == 3600 and DAY == 86400

    def test_time_of_day_wraps(self):
        assert time_of_day(DAY + 5) == 5.0
        assert time_of_day(3 * DAY) == 0.0

    def test_seconds_until_future_target_same_day(self):
        # Now 10:00, target 23:30.
        assert seconds_until_time_of_day(10 * HOUR, 23.5 * HOUR) == 13.5 * HOUR

    def test_seconds_until_past_target_rolls_to_next_day(self):
        assert seconds_until_time_of_day(23 * HOUR, 1 * HOUR) == 2 * HOUR

    def test_exactly_at_target_returns_full_day(self):
        assert seconds_until_time_of_day(23.5 * HOUR, 23.5 * HOUR) == DAY

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            seconds_until_time_of_day(0.0, DAY)
        with pytest.raises(ValueError):
            seconds_until_time_of_day(0.0, -1.0)

    def test_format_time(self):
        assert format_time(0.0) == "0d 00:00:00.000"
        assert format_time(DAY + HOUR + MINUTE + 1.5) == "1d 01:01:01.500"


class TestRng:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("im") is reg.stream("im")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(seed=42).stream("email").random(5)
        b = RngRegistry(seed=42).stream("email").random(5)
        assert list(a) == list(b)

    def test_streams_independent_of_creation_order(self):
        reg1 = RngRegistry(seed=7)
        reg1.stream("a")
        first = reg1.stream("b").random()
        reg2 = RngRegistry(seed=7)
        second = reg2.stream("b").random()
        assert first == second

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x").random()
        b = RngRegistry(seed=2).stream("x").random()
        assert a != b

    def test_different_names_differ(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("x").random() != reg.stream("y").random()

    def test_bounded_lognormal_respects_bounds(self):
        rng = RngRegistry(seed=3).stream("lat")
        draws = [
            LatencyModel(median=10.0, sigma=3.0, low=1.0, high=50.0).draw(rng)
            for _ in range(500)
        ]
        assert all(1.0 <= d <= 50.0 for d in draws)

    def test_bounded_lognormal_median_roughly_holds(self):
        rng = RngRegistry(seed=4).stream("lat")
        model = LatencyModel(median=5.0, sigma=0.5, low=0.0, high=1e9)
        draws = sorted(model.draw(rng) for _ in range(2000))
        median = draws[len(draws) // 2]
        assert 4.0 < median < 6.0

    def test_bounded_lognormal_rejects_bad_median(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(median=0.0, sigma=1.0, low=0.0, high=1.0)

    @pytest.mark.parametrize(
        "model",
        [DEFAULT_IM_LATENCY, DEFAULT_EMAIL_LATENCY, DEFAULT_SMS_LATENCY,
         DEFAULT_LINK_LATENCY],
        ids=["im", "email", "sms", "link"],
    )
    def test_latency_draw_is_numpys_lognormal_bit_for_bit(self, model):
        """``draw`` samples the underlying normal itself; every value and
        the stream's final state equal ``rng.lognormal``'s."""
        ours = RngRegistry(seed=6).stream("lat")
        numpys = RngRegistry(seed=6).stream("lat")
        for _ in range(20000):
            want = numpys.lognormal(mean=np.log(model.median),
                                    sigma=model.sigma)
            want = float(min(max(want, model.low), model.high))
            assert model.draw(ours) == want
        assert ours.bit_generator.state == numpys.bit_generator.state


class TestFaultInjector:
    def _fault(self, at=0.0, kind=FaultKind.CLIENT_LOGOUT, target="im"):
        return ScheduledFault(at=at, kind=kind, target=target)

    def test_inject_now_invokes_handler(self):
        env = Environment()
        injector = FaultInjector(env)
        seen = []
        injector.register("im", lambda f: seen.append(f) or True)
        assert injector.inject_now(self._fault()) is True
        assert len(seen) == 1
        assert injector.records[0].accepted

    def test_inject_without_handler_records_rejection(self):
        env = Environment()
        injector = FaultInjector(env)
        assert injector.inject_now(self._fault(target="ghost")) is False
        assert not injector.records[0].accepted
        assert injector.records[0].detail == "no handler"

    def test_load_replays_schedule_at_right_times(self):
        env = Environment()
        injector = FaultInjector(env)
        times = []
        injector.register("im", lambda f: times.append(env.now) or True)
        injector.load(
            [self._fault(at=30.0), self._fault(at=10.0), self._fault(at=20.0)]
        )
        env.run()
        assert times == [10.0, 20.0, 30.0]

    def test_load_rejects_past_faults(self):
        env = Environment()
        env.run(until=100.0)
        injector = FaultInjector(env)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            injector.load([self._fault(at=5.0)])

    def test_fault_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ScheduledFault(at=-1.0, kind=FaultKind.CLIENT_HANG, target="x")
        with pytest.raises(ConfigurationError):
            ScheduledFault(
                at=0.0, kind=FaultKind.CLIENT_HANG, target="x", duration=-2.0
            )

    def test_handler_can_reject_fault(self):
        env = Environment()
        injector = FaultInjector(env)
        injector.register("im", lambda f: False)
        assert injector.inject_now(self._fault()) is False

    def test_load_unregistered_target_raises_up_front(self):
        from repro.errors import ConfigurationError

        env = Environment()
        injector = FaultInjector(env)
        injector.register("im", lambda f: True)
        with pytest.raises(ConfigurationError) as err:
            injector.load(
                [self._fault(), self._fault(at=5.0, target="ghost")]
            )
        # The error names what's missing and what IS registered.
        assert "ghost" in str(err.value)
        assert "im" in str(err.value)
        assert injector.records == []  # nothing partially scheduled

