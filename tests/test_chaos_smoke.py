"""Time-boxed chaos-sweep smoke tier.

A small seeded sweep on every test run: the real pipeline must survive
randomized fault schedules (clean sweep), and a planted bug must be found
and shrunk.  (Same seed, same fingerprint; another seed, another one:
``tests/test_knob_invariance.py``.)  Kept deliberately small (a few
trials, short windows) so the tier stays fast.
"""

from repro.sim.clock import MINUTE
from repro.testkit import ChaosIntensity, chaos_sweep
from repro.testkit.bugs import silent_drop_stages

SWEEP_KWARGS = dict(
    trials=3,
    n_users=2,
    duration=30 * MINUTE,
    settle=15 * MINUTE,
    intensity=ChaosIntensity(faults_per_hour=10.0),
)


class TestSweepSmoke:
    def test_clean_sweep_on_real_pipeline(self):
        result = chaos_sweep(seed=2026, **SWEEP_KWARGS)
        assert result.ok, result.summary()
        assert len(result.trials) == 3
        assert result.failures == []

    def test_sweep_finds_and_shrinks_planted_bug(self):
        """End-to-end self-test: with a buggy pipeline planted, random
        search alone must find a failing schedule and shrink it to a
        pinned-ready reproducer."""
        result = chaos_sweep(
            seed=8,
            trials=3,
            n_users=2,
            duration=40 * MINUTE,
            settle=15 * MINUTE,
            intensity=ChaosIntensity(faults_per_hour=20.0),
            stage_factory=silent_drop_stages,
            shrink_budget=16,
        )
        assert not result.ok
        failing = result.failures[0]
        assert failing.shrink_result is not None
        assert len(failing.shrink_result.schedule) <= failing.schedule_size
        assert failing.reproducer is not None
        assert failing.reproducer.schedule == failing.shrink_result.schedule
        assert failing.reproducer.violations


class TestExperimentCLI:
    def test_main_green_path_exits_zero(self, capsys):
        from repro.__main__ import main

        code = main(["e10", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep verdict: PASS" in out
        assert "fingerprint:" in out
