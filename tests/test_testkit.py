"""Unit tests for the chaos testkit's parts.

Generator determinism and taxonomy coverage, schedule/reproducer JSON
round-trips, the ddmin shrinker against synthetic predicates, and the
delivery rig's pieces (handler factories, source gating, the fate pass,
the oracle hand-off) on minutes-long runs.  The full harness/oracle
integration lives in ``test_chaos_oracle.py`` and ``test_chaos_smoke.py``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.user_endpoint import Receipt
from repro.errors import ConfigurationError
from repro.net.message import ChannelType
from repro.sim.clock import HOUR, MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit import (
    ChaosIntensity,
    ChaosRunConfig,
    DeliveryOracle,
    FaultScheduleGenerator,
    Reproducer,
    dump_reproducer,
    fault_from_dict,
    fault_to_dict,
    load_reproducer,
    replay_reproducer,
    run_chaos,
    shrink,
)
from repro.testkit.generator import (
    ADVERSARY_FAULT_KINDS,
    PER_USER_KINDS,
    per_user_target,
)
from repro.testkit.generator import StormConfig
from repro.testkit.harness import (
    DeliveryRig,
    alert_fates,
    storm_source_names,
    wire_targets,
)
from repro.testkit.oracle import ObservedOutcome
from repro.testkit.sweep import trial_seed
from repro.workloads.faultload import (
    TARGET_EMAIL_SERVICE,
    TARGET_HOST,
    TARGET_IM_SERVICE,
    TARGET_MAB,
    TARGET_SCREEN,
)

USERS = ["user0", "user1", "user2"]
DATA_DIR = Path(__file__).parent / "data"


class TestChaosIntensity:
    def test_defaults_valid(self):
        ChaosIntensity()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"faults_per_hour": -1.0},
            {"burst_probability": 1.5},
            {"burst_probability": -0.1},
            {"burst_max": 0},
            {"recovery_chaser_probability": 2.0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChaosIntensity(**kwargs)


class TestFaultScheduleGenerator:
    def test_same_seed_identical_schedule(self):
        a = FaultScheduleGenerator(seed=42, users=USERS).generate()
        b = FaultScheduleGenerator(seed=42, users=USERS).generate()
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultScheduleGenerator(seed=1, users=USERS).generate()
        b = FaultScheduleGenerator(seed=2, users=USERS).generate()
        assert a != b

    def test_schedule_sorted_and_after_start(self):
        gen = FaultScheduleGenerator(seed=3, users=USERS, start=300.0)
        schedule = gen.generate()
        assert schedule
        times = [f.at for f in schedule]
        assert times == sorted(times)
        assert all(t >= 300.0 for t in times)

    def test_full_taxonomy_reachable(self):
        """Every FaultKind appears somewhere across a few seeds.

        The ship-link partition only exists for replicated pairs and the
        channel-adversary pulses only for adversarial mode, so the default
        generator never draws them — schedules stay bit-for-bit stable for
        pre-replication / pre-adversary seeds.
        """
        intensity = ChaosIntensity(faults_per_hour=60.0)
        seen = set()
        for seed in range(12):
            gen = FaultScheduleGenerator(
                seed=seed, users=USERS, duration=2 * HOUR, intensity=intensity
            )
            seen.update(f.kind for f in gen.generate())
        gated = {FaultKind.REPLICATION_LINK_DOWN} | set(ADVERSARY_FAULT_KINDS)
        assert seen == set(FaultKind) - gated

    def test_replication_taxonomy_reachable(self):
        """Replication mode additionally reaches the ship-link partition."""
        intensity = ChaosIntensity(faults_per_hour=60.0)
        seen = set()
        for seed in range(12):
            gen = FaultScheduleGenerator(
                seed=seed, users=USERS, duration=2 * HOUR,
                intensity=intensity, replication=True,
            )
            seen.update(f.kind for f in gen.generate())
        assert seen == set(FaultKind) - set(ADVERSARY_FAULT_KINDS)

    def test_adversarial_taxonomy_reachable(self):
        """Adversarial + replication mode reaches the whole taxonomy."""
        intensity = ChaosIntensity(faults_per_hour=60.0)
        seen = set()
        for seed in range(12):
            gen = FaultScheduleGenerator(
                seed=seed, users=USERS, duration=2 * HOUR,
                intensity=intensity, replication=True, adversarial=True,
            )
            seen.update(f.kind for f in gen.generate())
        assert seen == set(FaultKind)

    def test_adversarial_flag_leaves_base_schedules_unchanged(self):
        """The adversarial kinds ride a separate weight table: a fixed
        seed's non-adversarial schedule is bit-for-bit what it was before
        the taxonomy grew."""
        for replication in (False, True):
            a = FaultScheduleGenerator(
                seed=11, users=USERS, replication=replication
            ).generate()
            b = FaultScheduleGenerator(
                seed=11, users=USERS, replication=replication,
                adversarial=False,
            ).generate()
            assert a == b

    def test_adversary_pulses_carry_knob_params(self):
        """Every pulse pins probability (and its kind-specific knob)."""
        intensity = ChaosIntensity(faults_per_hour=60.0)
        pulses = []
        for seed in range(8):
            gen = FaultScheduleGenerator(
                seed=seed, users=USERS, intensity=intensity, adversarial=True
            )
            pulses.extend(
                f for f in gen.generate()
                if f.kind in ADVERSARY_FAULT_KINDS
            )
        assert pulses
        for fault in pulses:
            assert 0.0 < fault.params["probability"] <= 1.0
            assert fault.duration > 0
            if fault.kind is FaultKind.LINK_REORDER:
                assert fault.params["horizon"] > 0
            if fault.kind is FaultKind.LINK_DUPLICATE:
                assert 2 <= fault.params["copies"] <= 5

    def test_targets_are_wireable(self):
        """Every emitted target is one the harness registers a handler for."""
        global_targets = {
            TARGET_IM_SERVICE, TARGET_EMAIL_SERVICE, TARGET_HOST, TARGET_SCREEN,
        }
        per_user = {
            per_user_target(kind, user)
            for kind in PER_USER_KINDS
            for user in USERS
        }
        intensity = ChaosIntensity(faults_per_hour=40.0)
        for seed in range(5):
            gen = FaultScheduleGenerator(
                seed=seed, users=USERS, intensity=intensity
            )
            for fault in gen.generate():
                assert fault.target in global_targets | per_user

    def test_bursts_stack_compound_faults(self):
        intensity = ChaosIntensity(
            faults_per_hour=20.0, burst_probability=1.0, burst_max=3
        )
        gen = FaultScheduleGenerator(seed=7, users=USERS, intensity=intensity)
        schedule = gen.generate()
        gaps = [
            b.at - a.at for a, b in zip(schedule, schedule[1:])
        ]
        # Every base fault seeds a burst within 45 s, so tight gaps dominate.
        assert any(g <= intensity.burst_window for g in gaps)

    def test_intensity_scales_volume(self):
        quiet = FaultScheduleGenerator(
            seed=9, users=USERS,
            intensity=ChaosIntensity(faults_per_hour=2.0),
        ).generate()
        loud = FaultScheduleGenerator(
            seed=9, users=USERS,
            intensity=ChaosIntensity(faults_per_hour=40.0),
        ).generate()
        assert len(loud) > len(quiet)

    def test_window_end_covers_durations(self):
        gen = FaultScheduleGenerator(seed=5, users=USERS)
        schedule = [
            ScheduledFault(at=100.0, kind=FaultKind.IM_SERVICE_OUTAGE,
                           target=TARGET_IM_SERVICE, duration=600.0),
            ScheduledFault(at=500.0, kind=FaultKind.CLIENT_LOGOUT,
                           target="im-client:user0"),
        ]
        assert gen.window_end(schedule) == 700.0
        assert gen.window_end([]) == gen.start

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultScheduleGenerator(seed=0, users=[])
        with pytest.raises(ConfigurationError):
            FaultScheduleGenerator(seed=0, users=USERS, duration=0.0)

    def test_trial_seed_decorrelated_and_stable(self):
        assert trial_seed(11, 0) == trial_seed(11, 0)
        seeds = {trial_seed(11, i) for i in range(50)}
        assert len(seeds) == 50


class TestScheduleSerialization:
    def _fault(self):
        return ScheduledFault(
            at=120.5,
            kind=FaultKind.MEMORY_LEAK,
            target="mab:user1",
            params={"megabytes": 250.0},
        )

    def test_fault_round_trip(self):
        fault = self._fault()
        assert fault_from_dict(fault_to_dict(fault)) == fault

    def test_schedule_round_trip(self):
        schedule = FaultScheduleGenerator(seed=21, users=USERS).generate()
        rows = json.loads(json.dumps([fault_to_dict(f) for f in schedule]))
        assert [fault_from_dict(row) for row in rows] == schedule

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            fault_from_dict({"at": 0.0, "kind": "gamma_ray", "target": "host"})

    def test_reproducer_round_trip(self, tmp_path):
        reproducer = Reproducer(
            seed=1234,
            schedule=[self._fault()],
            config={"seed": 1234, "n_users": 2},
            note="unit-test pin",
            violations=["exactly_once"],
        )
        path = dump_reproducer(reproducer, tmp_path / "pin" / "repro.json")
        assert path.exists()
        loaded = load_reproducer(path)
        assert loaded == reproducer
        # The on-disk form is plain reviewable JSON.
        payload = json.loads(path.read_text())
        assert payload["schedule"][0]["kind"] == "memory_leak"

    @pytest.mark.parametrize(
        "edit, complaint",
        [
            (lambda p: p["config"].update(alert_perod=5.0), "alert_perod"),
            (lambda p: p.update(version=2), "version 2"),
            (lambda p: p.pop("schedule"), "'schedule'"),
            (lambda p: p.pop("seed"), "'seed'"),
        ],
        ids=["unknown-config-key", "newer-version", "no-schedule", "no-seed"],
    )
    def test_malformed_pin_fails_loudly(self, tmp_path, edit, complaint):
        """A typo'd, newer or truncated pin must not replay as some other
        run: the error names the file and the offending part."""
        payload = json.loads(
            Reproducer(seed=1, schedule=[self._fault()],
                       config={"seed": 1}).to_json()
        )
        edit(payload)
        path = tmp_path / "bad_pin.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError) as excinfo:
            replay_reproducer(path)
        assert "bad_pin.json" in str(excinfo.value)
        assert complaint in str(excinfo.value)

    def test_all_committed_pins_still_load(self):
        pins = sorted(DATA_DIR.glob("chaos/*.json")) + [
            DATA_DIR / "trace" / "handoff_failover.json"
        ]
        assert len(pins) == 6
        for path in pins:
            assert load_reproducer(path).schedule, path


def _make_schedule(n):
    return [
        ScheduledFault(
            at=float(60 * (i + 1)),
            kind=FaultKind.CLIENT_LOGOUT,
            target=f"im-client:user{i % 3}",
        )
        for i in range(n)
    ]


class TestShrink:
    def test_reduces_to_essential_pair(self):
        schedule = _make_schedule(12)
        essential = [schedule[3], schedule[9]]

        def fails(candidate):
            return all(f in candidate for f in essential)

        result = shrink(schedule, fails)
        assert result.schedule == essential
        assert result.minimal
        assert result.original_size == 12
        assert result.steps[-1] == 2

    def test_single_essential_fault(self):
        schedule = _make_schedule(8)
        target = schedule[5]
        result = shrink(schedule, lambda c: target in c)
        assert result.schedule == [target]
        assert result.minimal

    def test_everything_essential_is_untouched(self):
        schedule = _make_schedule(4)
        result = shrink(schedule, lambda c: len(c) == 4)
        assert result.schedule == schedule
        assert result.minimal
        assert result.original_size == 4

    def test_budget_exhaustion_reported(self):
        schedule = _make_schedule(30)
        essential = [schedule[7], schedule[23]]
        calls = []

        def fails(candidate):
            calls.append(len(candidate))
            return all(f in candidate for f in essential)

        result = shrink(schedule, fails, max_trials=3)
        assert result.trials == 3
        assert len(calls) == 3
        assert not result.minimal
        assert all(f in result.schedule for f in essential)

    def test_preserves_relative_order(self):
        schedule = _make_schedule(10)
        essential = [schedule[2], schedule[6], schedule[8]]
        result = shrink(
            schedule, lambda c: all(f in c for f in essential)
        )
        times = [f.at for f in result.schedule]
        assert times == sorted(times)


class TestDeliveryRig:
    """The one farm-run scaffold (small simulations, seconds of sim time)."""

    def test_same_handler_under_e6_and_farm_names(self):
        """``mab`` (E6's single deployment) and ``mab:user0`` (a farm
        tenant) are one factory over a deployment, not two handlers."""
        rig = DeliveryRig(seed=1, n_users=1)
        rig.start()
        deployment = rig.tenants[0].deployment
        injector = wire_targets(
            rig.world, {"": deployment, ":user0": deployment}, 300.0
        )
        for at, target in ((60.0, TARGET_MAB), (400.0, f"{TARGET_MAB}:user0")):
            rig.world.run(until=at)
            victim = deployment.current
            assert victim.alive
            assert injector.inject_now(
                ScheduledFault(at=at, kind=FaultKind.PROCESS_CRASH,
                               target=target)
            )
            rig.world.run(until=at + 1.0)
            assert not victim.alive
        assert deployment.journal.count("crash") == 2

    def test_named_sources_are_the_only_accepted_sources(self):
        names = storm_source_names(StormConfig(n_sources=2))
        rig = DeliveryRig(seed=2, n_users=1, sources=names)
        rig.start()
        assert tuple(rig.sources) == names == ("storm0", "storm1")
        stranger = rig.world.create_source("portal")
        rig.world.run(until=60.0)
        tenant = rig.tenants[0]
        for source in (*rig.sources.values(), stranger):
            rig.emit(source, tenant, f"from-{source.name}")
        report = rig.quiesce(until=600.0)
        assert report.ok, report.summary()
        assert tenant.deployment.journal.count("rejected") == 1
        fates = list(rig.fates())
        assert [f.delivered for f in fates] == [True, True, False]
        assert fates[2].accounted and not fates[2].lost

    def test_fate_pass_classifies_a_hand_built_run(self):
        def receipt(alert_id, at, duplicate=False):
            return Receipt(alert_id, ChannelType.IM, at, 10.0, duplicate)

        def trip(alert_id, kind):
            return ObservedOutcome("u", alert_id, "s", kind, True, 12.0)

        user = SimpleNamespace(receipts=[
            receipt("twice", 12.5), receipt("twice", 40.0, duplicate=True),
            receipt("not-offered", 13.0),
        ])
        oracle = DeliveryOracle()
        oracle.observed += [
            trip("twice", "routed"), trip("twice", "routed"),
            trip("dead", "delivery_abandoned"),
        ]
        fates = {
            f.alert_id: f
            for f in alert_fates(
                [SimpleNamespace(name="u", user=user)],
                {"u": {"twice", "dead", "never-acked"}},
                oracle,
            )
        }
        assert set(fates) == {"twice", "dead", "never-acked"}
        twice, dead, silent = (
            fates[k] for k in ("twice", "dead", "never-acked")
        )
        assert twice.delivered and twice.receipt.latency == 2.5
        assert (twice.user_duplicates, twice.routed) == (1, 2)
        assert not dead.delivered and dead.accounted and not dead.lost
        assert silent.lost and silent.routed == 0

    def test_run_chaos_oracle_contract_and_fault_window(self):
        """``benchmarks/e2e`` subclasses the oracle to reach the farm and
        the offered ids; the report states the window it ran, whatever
        ``start`` is."""
        seen = {}

        class Capturing(DeliveryOracle):
            def check(self, farm, offered=None, source_endpoints=(),
                      trace_sink=None):
                seen.update(farm=farm, offered=offered,
                            endpoints=list(source_endpoints))
                return super().check(
                    farm, offered=offered,
                    source_endpoints=source_endpoints, trace_sink=trace_sink,
                )

        config = ChaosRunConfig(
            seed=3, n_users=2, start=2 * MINUTE, duration=4 * MINUTE,
            settle=6 * MINUTE,
        )
        outlasting = ScheduledFault(
            at=5 * MINUTE, kind=FaultKind.IM_SERVICE_OUTAGE,
            target=TARGET_IM_SERVICE, duration=3 * MINUTE,
        )
        report = run_chaos([outlasting], config, oracle=Capturing())
        assert report.ok, report.summary()
        assert report.fault_window_end == 8 * MINUTE
        assert report.horizon == report.fault_window_end + config.settle
        assert len(seen["farm"]) == 2 and len(seen["endpoints"]) == 1
        assert {u: len(ids) for u, ids in seen["offered"].items()} == (
            report.offered
        )
        inside = run_chaos([], config)
        assert inside.fault_window_end == config.start + config.duration
