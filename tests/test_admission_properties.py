"""Property-based tests for the admission layer (PR 7 satellite).

Seeded properties over :mod:`repro.core.admission`'s primitives:

1. **Bucket fairness** — over *any* interval ``[s, t]`` a token bucket
   grants at most ``burst + rate * (t - s)`` tokens, for arbitrary
   interleavings of time advances and take attempts.
2. **Backoff shape** — the jitter-free schedule is monotone nondecreasing
   and capped; jittered delays stay within the jitter envelope and the
   cap, and are deterministic per RNG stream.
3. **Shed determinism** — two controllers with the same (config, owner)
   fed the same arrival sequence make identical decisions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    BackoffPolicy,
    LoadShedder,
    TokenBucket,
)
from repro.core.pessimistic_log import DeliveryStatus
from repro.sim.rng import RngRegistry

# ---------------------------------------------------------------------------
# 1. Token buckets never exceed rate * window over any interval
# ---------------------------------------------------------------------------

#: (advance seconds, number of take attempts) steps.
bucket_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1,
    max_size=60,
)


def assert_fair(bucket: TokenBucket) -> None:
    """Grants inside any [i, j] grant-pair window obey the bound."""
    grants = list(bucket.grants)
    for i in range(len(grants)):
        for j in range(i, len(grants)):
            count = j - i + 1
            window = grants[j] - grants[i]
            assert count <= bucket.burst + bucket.rate * window + 1e-9, (
                f"{count} grants in {window:.3f}s violates "
                f"burst={bucket.burst} rate={bucket.rate}"
            )


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=10.0),
    burst=st.floats(min_value=1.0, max_value=10.0),
    steps=bucket_steps,
)
def test_bucket_never_exceeds_rate_times_window(rate, burst, steps):
    bucket = TokenBucket(rate, burst)
    now = 0.0
    granted = 0
    for advance, attempts in steps:
        now += advance
        for _ in range(attempts):
            if bucket.try_take(now):
                granted += 1
    assert granted == bucket.granted_total == len(bucket.grants)
    assert_fair(bucket)


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=5.0),
    burst=st.floats(min_value=1.0, max_value=6.0),
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
)
def test_reserved_commits_preserve_fairness(rate, burst, gaps):
    """The reserve-then-take_at path (ThrottleStage) is fair too: tokens
    committed at ``now + wait`` never exceed the bound at commit time."""
    config = AdmissionConfig(
        recipient_rate=rate, recipient_burst=burst,
        max_throttle_delay=1e9,
    )
    controller = AdmissionController(config, "prop")
    now = 0.0
    for gap in gaps:
        now += gap
        wait = controller.reserve_route(now, "prop")
        assert wait is not None and wait >= 0.0
    assert_fair(controller.recipient_buckets["prop"])


def test_bucket_wait_time_is_sufficient():
    bucket = TokenBucket(rate=2.0, burst=2.0)
    now = 0.0
    for _ in range(int(bucket.burst)):
        assert bucket.try_take(now)
    assert not bucket.try_take(now)
    wait = bucket.wait_time(now)
    assert wait > 0.0
    assert bucket.try_take(now + wait)


def test_rate_limited_reservation_commits_nothing():
    config = AdmissionConfig(
        recipient_rate=0.5, recipient_burst=1.0, max_throttle_delay=1.0
    )
    controller = AdmissionController(config, "prop")
    assert controller.reserve_route(0.0, "prop") == 0.0
    # Bucket empty; refill to one token takes 2 s > max_throttle_delay.
    assert controller.reserve_route(0.0, "prop") is None
    bucket = controller.recipient_buckets["prop"]
    assert bucket.granted_total == 1
    assert bucket.rejected_total == 1
    # Nothing was committed, so waiting out the refill succeeds.
    assert controller.reserve_route(2.0, "prop") == 0.0


# ---------------------------------------------------------------------------
# 2. Backoff monotone and bounded
# ---------------------------------------------------------------------------

backoff_policies = st.builds(
    BackoffPolicy,
    base=st.floats(min_value=0.1, max_value=120.0),
    factor=st.floats(min_value=1.0, max_value=4.0),
    max_delay=st.floats(min_value=60.0, max_value=3600.0),
    jitter=st.floats(min_value=0.0, max_value=0.5),
)


@settings(max_examples=80, deadline=None)
@given(policy=backoff_policies, seed=st.integers(min_value=0, max_value=2**31))
def test_backoff_monotone_and_bounded(policy, seed):
    # Without an rng: the jitter-free schedule.
    raw = [policy.delay_for(attempt) for attempt in range(12)]
    for earlier, later in zip(raw, raw[1:]):
        assert later >= earlier  # monotone nondecreasing
    assert all(0.0 < d <= policy.max_delay for d in raw)

    rng = RngRegistry(seed=seed).stream("backoff-prop")
    for attempt in range(12):
        delay = policy.delay_for(attempt, rng)
        assert 0.0 < delay <= policy.max_delay
        # Within the jitter envelope of the un-clamped schedule.
        unclamped = policy.base * policy.factor ** attempt
        assert delay >= min(
            unclamped * (1.0 - policy.jitter), policy.max_delay
        ) - 1e-9


def test_backoff_jitter_is_deterministic_per_seed():
    policy = BackoffPolicy(jitter=0.3)
    delays_a = [
        policy.delay_for(i, RngRegistry(seed=7).stream("s"))
        for i in range(6)
    ]
    delays_b = [
        policy.delay_for(i, RngRegistry(seed=7).stream("s"))
        for i in range(6)
    ]
    assert delays_a == delays_b
    delays_c = [
        policy.delay_for(i, RngRegistry(seed=8).stream("s"))
        for i in range(6)
    ]
    assert delays_a != delays_c


# ---------------------------------------------------------------------------
# 3. Shed decisions deterministic per seed
# ---------------------------------------------------------------------------

#: (gap, severity, queue_depth) arrival triples.
arrivals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["routine", "important", "critical"]),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=1,
    max_size=80,
)


def _decide_all(controller: AdmissionController, steps):
    now = 0.0
    decisions = []
    for index, (gap, severity, depth) in enumerate(steps):
        now += gap
        d = controller.admit(now, f"a{index}", "News", severity, depth)
        decisions.append((d.action, d.reason, d.coalesced_into))
    return decisions


@settings(max_examples=60, deadline=None)
@given(steps=arrivals, seed=st.integers(min_value=0, max_value=2**31))
def test_shed_decisions_deterministic_per_seed(steps, seed):
    config = AdmissionConfig.hardened(seed=seed)
    a = AdmissionController(config, "prop")
    b = AdmissionController(config, "prop")
    assert _decide_all(a, steps) == _decide_all(b, steps)
    assert a.shed_counts == b.shed_counts
    assert a.shedder.storm_entries == b.shedder.storm_entries


@settings(max_examples=60, deadline=None)
@given(steps=arrivals)
def test_shed_spares_exempt_severities(steps):
    """Only configured severities are ever shed or coalesced, and every
    non-admit decision is tallied in ``shed_counts``."""
    config = AdmissionConfig.hardened()
    controller = AdmissionController(config, "prop")
    now = 0.0
    not_admitted = 0
    for index, (gap, severity, depth) in enumerate(steps):
        now += gap
        decision = controller.admit(
            now, f"a{index}", "News", severity, depth
        )
        if decision.action != "admit":
            assert severity in config.shed_severities
            not_admitted += 1
        if decision.action == "coalesce":
            assert decision.coalesced_into is not None
    assert sum(controller.shed_counts.values()) == not_admitted


def test_storm_detector_rate_and_depth_thresholds():
    shedder = LoadShedder(window=10.0, rate_threshold=1.0, depth_threshold=5)
    # Below both thresholds: no storm.
    shedder.record_arrival(0.0)
    assert not shedder.storm_active(0.0, queue_depth=0)
    # Depth alone trips it.
    assert shedder.storm_active(0.0, queue_depth=5)
    # Rate alone trips it: 10 arrivals inside the 10 s window.
    quiet = LoadShedder(window=10.0, rate_threshold=1.0, depth_threshold=None)
    for i in range(10):
        quiet.record_arrival(50.0 + i * 0.5)
    assert quiet.storm_active(55.0, queue_depth=0)
    assert quiet.storm_entries == 1
    # The window slides: long after the burst the rate decays to zero.
    assert not quiet.storm_active(200.0, queue_depth=0)


def test_retry_budget_survives_and_exhausts():
    config = AdmissionConfig(retry_budget=2)
    controller = AdmissionController(config, "prop")
    a1, a2 = DeliveryStatus(), DeliveryStatus()
    assert controller.take_retry_token(a1)
    assert controller.take_retry_token(a1)
    assert not controller.take_retry_token(a1)  # budget spent
    assert a1.retries == 2
    assert controller.take_retry_token(a2)  # independent per alert
    # The count is the alert's status, not the controller's state.
    assert not AdmissionController(config, "prop").take_retry_token(a1)
    letter = controller.dead_letter("a1", "budget exhausted", at=9.0,
                                    attempts=3)
    assert "a1" in controller.dead_letters
    assert controller.dead_letters.get("a1") is letter
    assert len(controller.dead_letters) == 1


def test_permissive_config_is_inert():
    controller = AdmissionController(AdmissionConfig.permissive(), "prop")
    assert controller.reserve_route(0.0, "prop") == 0.0
    assert controller.try_submit(0.0, "IM")
    assert controller.admit(0.0, "a", "News", "routine", 10**6).action == \
        "admit"
    status = DeliveryStatus()  # no budget: never runs dry
    assert all(controller.take_retry_token(status) for _ in range(100))
    assert controller.retry_delay(3, fallback=60.0) == 60.0
    assert controller.summary()["shed"] == 0


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
