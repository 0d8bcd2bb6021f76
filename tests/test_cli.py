"""Tests for the ``python -m repro`` command-line interface."""

import re
from dataclasses import replace
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
    assert list(EXPERIMENTS) == [
        *(f"e{i}" for i in range(1, 15)), *(f"a{i}" for i in range(1, 5))
    ]
    for key, experiment in EXPERIMENTS.items():
        assert experiment.holds, f"{key} claims nothing checkable"


FLAG_ARGS = {"jobs": "2", "shards": "2", "users": "20000"}


@pytest.fixture
def ran(monkeypatch):
    """Replace the run with a recorder: flag handling, not experiments."""
    calls = []
    monkeypatch.setattr(
        "repro.__main__.run_experiment",
        lambda key, **flags: calls.append((key, flags)) or ("", []),
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


@pytest.mark.parametrize("argv, flag", [
    (["e1", "--seed", "-1"], "--seed"),
    (["all", "--seed", "-1"], "--seed"),
    (["e11", "--jobs", "0"], "--jobs"),
    (["e13", "--users", "0"], "--users"),
    (["e13", "--shards", "-2", "--users", "10"], "--shards"),
], ids=" ".join)
def test_out_of_range_flag_is_a_usage_error(argv, flag, ran, capsys):
    """A declared flag outside its range (a negative seed, fewer than one
    job, shard or user) exits 2 naming the flag before anything runs."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"error: {flag} must be >= " in capsys.readouterr().err
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


def test_broken_claim_exits_1_on_stderr_with_stdout_unchanged(
    monkeypatch, capsys
):
    """A false ``holds`` pair fails the run by exit status and says what was
    measured on stderr; the report on stdout does not change."""
    summary = EXPERIMENTS["e1"].run(seed=0, n_alerts=20)
    stubbed = replace(EXPERIMENTS["e1"], run=lambda seed: summary)
    monkeypatch.setitem(EXPERIMENTS, "e1", stubbed)
    assert main(["e1"]) == 0
    holds = capsys.readouterr()
    assert holds.err == ""

    false_pair = (
        "median one-way IM < 0 s (measured {0.median:.2f} s)",
        lambda s: s.median < 0.0,
    )
    monkeypatch.setitem(
        EXPERIMENTS, "e1",
        replace(stubbed, holds=(*stubbed.holds, false_pair)),
    )
    assert main(["e1"]) == 1
    broken = capsys.readouterr()
    assert broken.out == holds.out
    assert broken.err == (
        f"  ! median one-way IM < 0 s (measured {summary.median:.2f} s)\n"
    )


def test_all_fails_if_any_experiment_does(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.__main__.run_experiment",
        lambda key, **flags: (key, ["nope"] if key == "e3" else []),
    )
    assert main(["all"]) == 1
    assert capsys.readouterr().err == "  ! nope\n"


ROOT = Path(__file__).parent.parent


def test_docs_and_ci_index_exactly_the_registered_experiments():
    """README's index carries every id with its registry claim, verbatim;
    EXPERIMENTS.md has one ``## <ID> —`` section per id that says how to
    run it, and no E-section the registry does not know; every id runs in
    tier-1 (``tests/repin.py``'s CLI pins) or in CI's experiment-smoke
    matrix."""
    readme = (ROOT / "README.md").read_text()
    index = readme[
        readme.index("## Tests and benchmarks"):readme.index("## Chaos testing")
    ]
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \|", index, re.MULTILINE)
    assert rows == [(key, e.claim) for key, e in EXPERIMENTS.items()]

    sections: dict[str, list[str]] = {}
    for section in re.split(
        r"^## ", (ROOT / "EXPERIMENTS.md").read_text(), flags=re.MULTILINE
    ):
        heading = re.match(r"([EA]\d+) — ", section)
        if heading:
            sections.setdefault(heading.group(1).lower(), []).append(section)
    for key in EXPERIMENTS:
        assert len(sections.get(key, [])) == 1, f"EXPERIMENTS.md ## {key}"
        assert f"`python -m repro {key}" in sections[key][0], key
    assert {key for key in sections if key.startswith("e")} <= set(EXPERIMENTS)

    commands = _tier1_commands() | set(_ci_smoke_commands())
    assert {argv[0] for argv in commands} == set(EXPERIMENTS)


def _tier1_commands() -> set[tuple[str, ...]]:
    """``python -m repro`` argv tier-1 runs (the CLI rows of the pins)."""
    from tests.repin import CLI_IDS, E13_ARGV

    return {(key, "--seed", "0") for key in CLI_IDS} | {E13_ARGV}


def _ci_smoke_commands() -> list[tuple[str, ...]]:
    """``python -m repro`` argv of each experiment-smoke matrix entry."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = ci[ci.index("  experiment-smoke:"):]
    block = job[job.index("        include:"):job.index("    steps:")]
    entries: list[dict[str, str]] = []
    for line in block.splitlines():
        entry = re.match(r"^ +- id: (\w+)$", line)
        if entry:
            entries.append({"id": entry.group(1)})
            continue
        field = re.match(r"^ +(seed|args): (.+)$", line)
        if field:
            entries[-1][field.group(1)] = field.group(2)
    return [
        (e["id"], "--seed", e.get("seed", "0"), *e.get("args", "").split())
        for e in entries
    ]


def test_ci_smoke_repeats_no_tier1_command():
    """CI's experiment-smoke matrix adds the ids tier-1 skips and other
    seeds; a command tier-1 already runs would only run twice."""
    smoke = _ci_smoke_commands()
    assert len(smoke) == len(set(smoke))
    assert not set(smoke) & _tier1_commands()
