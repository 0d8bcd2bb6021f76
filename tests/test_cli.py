"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_run_e1(capsys):
    assert main(["e1"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "measured" in out


def test_run_e2_with_seed(capsys):
    assert main(["e2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ack round trip" in out


def test_case_insensitive_id(capsys):
    assert main(["E3"]) == 0
    assert "E3" in capsys.readouterr().out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit) as excinfo:
        main(["e42"])
    assert excinfo.value.code == 2


def test_experiment_registry_complete():
    assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 15)}


FLAG_ARGS = {"jobs": "2", "shards": "2", "users": "20000"}


@pytest.fixture
def ran(monkeypatch):
    """Replace the run with a recorder: flag handling, not experiments."""
    calls = []
    monkeypatch.setattr(
        "repro.__main__.run_experiment",
        lambda key, **flags: calls.append((key, flags)) or "",
    )
    return calls


@pytest.mark.parametrize("flag", FLAG_ARGS)
@pytest.mark.parametrize("command", [*EXPERIMENTS, "all", "list"])
def test_undeclared_flag_is_a_usage_error(command, flag, ran):
    """Every (command × flag) pair: a flag the registry record does not
    declare exits 2 before anything runs; a declared one reaches the run.
    Covers --jobs outside the sweeps (and on e13), --shards/--users
    outside e13 — including explicit defaults — and flags on all/list."""
    declared = EXPERIMENTS[command].flags if command in EXPERIMENTS else ()
    argv = [command, f"--{flag}", FLAG_ARGS[flag]]
    if flag in declared:
        assert main(argv) == 0
        assert ran == [(command, {flag: int(FLAG_ARGS[flag])})]
    else:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert not ran


def test_flag_declarations():
    accepting = {
        flag: {key for key, e in EXPERIMENTS.items() if flag in e.flags}
        for flag in FLAG_ARGS
    }
    assert accepting == {
        "jobs": {"e10", "e11", "e12", "e14"},
        "shards": {"e13"},
        "users": {"e13"},
    }


def test_explicit_default_users_rejected_outside_e13():
    with pytest.raises(SystemExit) as excinfo:
        main(["e1", "--users", "100000"])
    assert excinfo.value.code == 2


def test_all_is_derived_from_the_registry(ran):
    assert main(["all", "--seed", "3"]) == 0
    assert ran == [(f"e{i}", {"seed": 3}) for i in range(1, 9)]


GOLDEN = Path(__file__).parent / "data" / "cli"


@pytest.mark.parametrize("key", ["e1", "e10", "e11", "e12", "e14"])
def test_seed0_output_matches_parent_commit(key, capsys):
    """Byte-for-byte the stdout captured before the one-rig refactor."""
    assert main([key, "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{key}_seed0.txt").read_text()


def test_e12_jobs_2_equals_jobs_1(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["e12", "--seed", "0", "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0] == (GOLDEN / "e12_seed0.txt").read_text()
