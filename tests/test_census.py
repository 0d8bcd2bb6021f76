"""Smoke test of the chaos census (``tests/census.py``): seeds 13 and 14
of the grid, fanned over two workers, print their three failing runs in
the classes the committed table gives them (EXPERIMENTS E10, "The chaos
census").  A behaviour change that moves one of them moves this table
too."""

from tests.census import census

TWO_SEEDS = """\
census: 3 of 6 runs fail (0/2 at 10/h, 1/2 at 30/h, 2/2 at 60/h)
runs | invariants | last two trips | in log | seeds | example
1 | delivered_or_dead_letter | retry_scheduled | no | 13@60 | \
13@60 alert-685-user5
1 | delivered_or_dead_letter, replay_idempotent | \
retry_scheduled > duplicate_incoming | yes | 14@60 | 14@60 alert-52-user12
1 | delivered_or_dead_letter, replay_idempotent | \
retry_scheduled > retry_scheduled | yes | 13@30 | 13@30 alert-667-user7"""


def test_two_seeds_of_the_census():
    assert census(seeds=(13, 14)) == TWO_SEEDS
