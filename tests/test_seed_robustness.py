"""Seed robustness: the registry's claims must not be seed-lucky.

Runs the cheap latency experiments across several seeds, at a quarter of
their registry size, and holds each to its row's ``holds`` pairs — if these
start flaking, the calibrated latency models (not a bound) need attention.
"""

import pytest

from repro.__main__ import EXPERIMENTS
from repro.experiments import (
    run_ack_roundtrip,
    run_im_one_way,
    run_proxy_routing,
)

SEEDS = (1, 7, 13, 42)


@pytest.mark.parametrize("seed", SEEDS)
def test_e1_shape_across_seeds(seed):
    summary = run_im_one_way(n_alerts=80, seed=seed)
    assert EXPERIMENTS["e1"].broken(summary) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_e2_shape_across_seeds(seed):
    summary = run_ack_roundtrip(n_alerts=80, seed=seed)
    assert EXPERIMENTS["e2"].broken(summary) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_e3_shape_across_seeds(seed):
    summary = run_proxy_routing(n_changes=30, seed=seed)
    assert EXPERIMENTS["e3"].broken(summary) == []
