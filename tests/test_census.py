"""Smoke test of the chaos census (``tests/census.py``): seeds 13 and 14
of the grid, fanned over two workers, print their three failing runs in
the classes the committed table gives them (EXPERIMENTS E10, "The chaos
census").  A behaviour change that moves one of them moves this table
too."""

from tests.census import census, committed

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


def classes(table: str) -> dict:
    """``seed@rate`` -> (invariants, last two trips, in log) of each
    failing run of a census table."""
    found = {}
    for row in table.splitlines()[2:]:
        _runs, invariants, trips, logged, seeds, _example = row.split(" | ")
        for point in seeds.split():
            found[point] = (invariants, trips, logged)
    return found


def test_the_committed_table_holds_the_two_seeds():
    """EXPERIMENTS E10's table (which CI's census step compares with the
    whole grid) reads as the census prints, and gives seeds 13 and 14 the
    classes this smoke test finds."""
    table = committed()
    lines = table.splitlines()
    assert lines[1] == TWO_SEEDS.splitlines()[1]
    failing = sum(int(row.split(" | ")[0]) for row in lines[2:])
    assert lines[0].startswith(f"census: {failing} of 90 runs fail (")
    two_seeds = {
        point: signature
        for point, signature in classes(table).items()
        if point.split("@")[0] in ("13", "14")
    }
    assert two_seeds == classes(TWO_SEEDS)
