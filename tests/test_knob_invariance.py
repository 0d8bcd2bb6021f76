"""Knob invariance: every "this setting changes nothing" claim is a row.

A row of :data:`KNOBS` names a setting, its values (the baseline first) and
the scenarios it must not move.  A scenario is a seeded run that returns
what the repository already pins for it: the golden farm's journal bytes, a
:class:`~repro.testkit.harness.ChaosReport` (its ``fingerprint()`` is what
the ``benchmarks/e2e`` digest folds in for the chaos workloads), a sweep's
fingerprint or whole result, the merged shard fingerprint.  A row that sets
a ``ChaosRunConfig`` field changes the config line the fingerprint stamps,
so such a pair compares :func:`behaviour`.  The tests below the table keep
a row from being forgotten or hollow; DESIGN §6 lists the same rows.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
from dataclasses import dataclass, fields, replace
from inspect import signature
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

import repro
from repro.core.admission import AdmissionConfig
from repro.experiments import (
    run_adversarial_comparison,
    run_failover_comparison,
    run_farm_throughput_sweep,
    run_storm_comparison,
)
from repro.net.adversary import AdversaryModel
from repro.sim.clock import MINUTE
from repro.testkit import ChaosRunConfig, chaos_sweep, harness, run_chaos
from repro.testkit.harness import EMAIL_FAST, ChaosReport, DeliveryRig
from repro.testkit.oracle import DeliveryOracle, OracleReport
from repro.testkit.schedule import load_reproducer, replay_reproducer
from repro.world import SimbaWorld, WorldConfig
from tests.golden_farm import SEED, run_golden_farm
from tests.repin import farm_journals
from tests.test_sharded_farm import small_run
from tests.test_storm_chaos import STORM, mid_burst_outage, storm_config

ROOT = Path(__file__).parent.parent
PINS = sorted((ROOT / "tests" / "data" / "chaos").glob("*.json"))


# ---------------------------------------------------------------------------
# Scenarios: (seed, **knob) -> what the repository pins for the run
# ---------------------------------------------------------------------------


def golden_farm(seed=SEED, tracing=False, admission_off=None,
                adversary_off=None):
    from repro.obs import TraceSink

    tracer = TraceSink() if tracing else None
    return farm_journals(
        run_golden_farm(tracer, admission_off, adversary_off, seed)
    )


def pin(path):
    """Replay one committed chaos reproducer, a knob laid over its config."""

    def replay(seed=load_reproducer(path).seed, tracing=False,
               admission_off=None, adversary_off=None,
               transport_default=None):
        config = {
            "admission": admission_off,
            "adversary": adversary_off,
            "transport": transport_default,
        }
        config = {k: v for k, v in config.items() if v is not None}
        return replay_reproducer(
            path, trace=tracing, overrides={"seed": seed, **config}
        )

    return replay


def hardened_storm(seed=17, tracing=False):
    config = storm_config(seed=seed)
    return run_chaos(mid_burst_outage(config), config, trace=tracing)


def sharded(seed=7, shard_layout=(1, "inline")):
    shards, where = shard_layout
    run = small_run(shards, inline=where == "inline", seed=seed)
    return json.dumps([
        run.merged_fingerprint, sorted(run.counts.items()), run.receipts,
        run.tenants,
    ])


#: One alert per outcome: routed, unmapped, no_subscribers, and rejected
#: (the stranger is not an accepted source), drawn in a seeded order.
TENANCY_SCRIPT = (
    ("News", "portal"), ("Gossip", "portal"), ("Weather", "portal"),
    ("News", "stranger"),
)
TENANCY_ALERTS = 8


def _configure(deployment):
    config = deployment.config
    config.classifier.accept_source("portal")
    # A mapped category nobody subscribes to → no_subscribers.
    config.subscriptions.register_category("Weather")
    config.aggregator.map_keyword("Weather", "Weather")


def _run_script(world, portal, oracle, users):
    """Emit the script to ``users`` (name → user, source-facing book), run
    it out; per user, each subject's outcome kinds and the delivered
    subjects.  A named stream draws the order, so every world agrees."""
    sources = {"portal": portal, "stranger": world.create_source("stranger")}
    picks = world.rngs.stream("tenancy-script").permutation(TENANCY_ALERTS)
    subjects: dict[str, dict[str, str]] = {name: {} for name in users}

    def script(env):
        for index, pick in enumerate(picks):
            keyword, source = TENANCY_SCRIPT[pick % len(TENANCY_SCRIPT)]
            for name, (_, book) in users.items():
                alert, _ = sources[source].emit_to(
                    book, keyword, f"a{index}", "body"
                )
                subjects[name][alert.alert_id] = alert.subject
            yield env.timeout(20.0)

    world.env.process(script(world.env), name="tenancy-script")
    world.run(until=TENANCY_ALERTS * 20.0 + 3 * MINUTE)
    trips = oracle.outcomes_by_user()
    return {
        name: {
            "outcomes": {
                subjects[name][alert]: sorted(t.kind or "-" for t in ts)
                for alert, ts in trips.get(name, {}).items()
            },
            "delivered": sorted(
                subjects[name][alert]
                for alert in user.unique_alerts_received()
            ),
        }
        for name, (user, _) in users.items()
    }


def tenancy(seed=7, tenancy="farm"):
    """Two users as tenants of one BuddyFarm, or each as an independent MAB
    in a world of its own.  Per-user RNG streams are name-keyed; channel
    latency streams are shared farm-wide, so only latency-invariant facts
    are compared."""
    if tenancy == "farm":
        rig = DeliveryRig(seed, 2)
        for tenant in rig.tenants:
            _configure(tenant.deployment)
        rig.start(watchdog_interval=None)
        users = {t.name: (t.user, t.book) for t in rig.tenants}
        return json.dumps(
            _run_script(rig.world, rig.sources["portal"], rig.oracle, users)
        )
    outcomes = {}
    for name in ("user0", "user1"):
        world = SimbaWorld(WorldConfig(
            seed=seed, email_latency=EMAIL_FAST, email_loss=0.0, sms_loss=0.0,
        ))
        user = world.create_user(name)
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("News", user, "normal", keywords=["News"])
        _configure(deployment)
        oracle = DeliveryOracle()
        deployment.config.pipeline_observer = oracle.observer_for(name)
        deployment.launch()
        book = deployment.source_facing_book()
        outcomes.update(_run_script(
            world, world.create_source("portal"), oracle, {name: (user, book)}
        ))
    return json.dumps(outcomes)


def sweep(seed=424, jobs=1, tracing=False):
    return chaos_sweep(
        seed=seed, jobs=jobs, trace=tracing, trials=4, n_users=2,
        duration=30 * MINUTE, settle=15 * MINUTE, replication=True,
        shrink_failures=False,
    ).fingerprint()


def entry_point(fn, seed, **kwargs):
    """A ``fanout`` caller at test size: its whole result as text."""

    def scenario(seed=seed, jobs=1):
        return repr(fn(seed=seed, jobs=jobs, **kwargs))

    return scenario


def cli_e12(seed=0, jobs=1):
    """``python -m repro e12 --jobs N``: the CLI hands ``jobs`` to the
    run like any declared flag."""
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["e12", "--seed", str(seed), "--jobs", str(jobs)])
    return f"exit {code}\n{out.getvalue()}"


FAILOVER = dict(
    n_users=2, n_crashes=1, window=10 * MINUTE, settle=8 * MINUTE,
    variants=("mdc", "replicated"),
)
STORM_RUN = dict(
    n_users=2, storm=STORM, duration=10 * MINUTE, settle=15 * MINUTE,
)
SCENARIOS = {
    "golden_farm": golden_farm,
    **{f"pin:{path.stem}": pin(path) for path in PINS},
    "hardened_storm": hardened_storm,
    "sharded": sharded,
    "tenancy": tenancy,
    "chaos_sweep": sweep,
    "run_failover_comparison": entry_point(
        run_failover_comparison, 4, **FAILOVER
    ),
    "run_storm_comparison": entry_point(run_storm_comparison, 3, **STORM_RUN),
    "run_adversarial_comparison": entry_point(run_adversarial_comparison, 0),
    "run_farm_throughput_sweep": entry_point(
        run_farm_throughput_sweep, 3, user_counts=(1, 5),
        per_user_rate=0.05, duration=4 * MINUTE,
    ),
    "cli_e12": cli_e12,
}


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """A setting, its values (baseline first), the scenarios it must not
    move."""

    name: str
    values: tuple
    scenarios: tuple[str, ...]
    #: The ChaosRunConfig field whose None the second value spells out.
    field: Optional[str] = None
    #: A value of the setting that is *not* inert: the row's comparison
    #: must tell it from the baseline on the golden farm.
    twin: object = None


CHAOS_PINS = tuple(f"pin:{path.stem}" for path in PINS)
RUNS = ("golden_farm", *CHAOS_PINS, "hardened_storm")

KNOBS = (
    Knob("repeat", (1, 2), (*RUNS, "sharded", "tenancy", "chaos_sweep")),
    Knob(
        "scheduler", ("wheel", "heap"),
        (*RUNS, "sharded", "run_adversarial_comparison"),
    ),
    Knob("tracing", (False, True), (*RUNS, "chaos_sweep")),
    Knob(
        "admission_off", (None, AdmissionConfig.permissive()),
        ("golden_farm", *CHAOS_PINS),
        twin=AdmissionConfig(dedup_window=3600.0),
    ),
    Knob(
        "adversary_off", (None, AdversaryModel.off()),
        ("golden_farm", *CHAOS_PINS),
        field="adversary",
        twin=AdversaryModel(reorder_probability=0.05),
    ),
    Knob(
        "transport_default", (None, "stabilizing"),
        tuple(
            f"pin:{path.stem}" for path in PINS
            if load_reproducer(path).config.get("replication")
        ),
        field="transport",
    ),
    Knob(
        "jobs", (1, 2),
        (
            "chaos_sweep", "run_failover_comparison", "run_storm_comparison",
            "run_adversarial_comparison", "run_farm_throughput_sweep",
            "cli_e12",
        ),
    ),
    Knob(
        "shard_layout",
        ((1, "inline"), (2, "inline"), (3, "inline"), (2, "process")),
        ("sharded",),
    ),
    Knob("tenancy", ("farm", "solo"), ("tenancy",)),
)


# ---------------------------------------------------------------------------
# "Same"
# ---------------------------------------------------------------------------


def behaviour(report: ChaosReport) -> str:
    """``fingerprint()`` without the config line, and without the
    zero-valued bookkeeping an admission controller that does nothing
    still writes (its ``admission_*`` oracle tallies and the rollup)."""
    info = {
        key: value for key, value in report.oracle.info.items()
        if not (key.startswith("admission_") and value == 0)
    }
    rollup = report.admission
    if rollup is not None and not any(
        value for key, value in rollup.items() if key != "tenants_hardened"
    ):
        rollup = None
    return replace(
        report,
        config=ChaosRunConfig(),
        oracle=replace(report.oracle, info=info),
        admission=rollup,
    ).fingerprint()


def pinned(result) -> str:
    return result.fingerprint() if isinstance(result, ChaosReport) else result


def digests(results) -> list[str]:
    """What "same" means for runs of one scenario: the pinned digest, or
    :func:`behaviour` for chaos runs whose configs differ."""
    reports = [r for r in results if isinstance(r, ChaosReport)]
    if any(r.config != reports[0].config for r in reports):
        return [behaviour(r) for r in reports]
    return [pinned(r) for r in results]


class Runs:
    """Scenario results, each run once per (scheduler, settings, repeat).

    A setting equal to the scenario's default is left out of the key, so
    every row over a scenario shares one baseline run; ``repeat`` values
    past the first are fresh runs."""

    def __init__(self):
        self._results: dict = {}

    def __call__(self, scenario, knob=None, value=None, seed=None):
        fn = SCENARIOS[scenario]
        params = signature(fn).parameters
        settings = {}
        if knob is not None and knob.name in params:
            if value != params[knob.name].default:
                settings[knob.name] = value
        if seed is not None and seed != params["seed"].default:
            settings["seed"] = seed
        key = (
            scenario,
            os.environ.get("REPRO_SCHEDULER") or "wheel",
            repr(sorted(settings.items())),
            value if knob is not None and knob.name == "repeat" else 1,
        )
        if key not in self._results:
            self._results[key] = fn(**settings)
        return self._results[key]


@pytest.fixture(scope="module")
def run():
    return Runs()


@pytest.mark.parametrize(
    "knob, scenario",
    [(knob, scenario) for knob in KNOBS for scenario in knob.scenarios],
    ids=lambda x: x.name if isinstance(x, Knob) else x,
)
def test_knob_changes_nothing(knob, scenario, run, monkeypatch):
    results = []
    for value in knob.values:
        if knob.name == "scheduler":
            monkeypatch.setenv("REPRO_SCHEDULER", value)
        results.append(run(scenario, knob, value))
    found = digests(results)
    moved = [
        value for value, digest in zip(knob.values, found)
        if digest != found[0]
    ]
    assert not moved, f"{knob.name}={moved!r} moved {scenario}"


# ---------------------------------------------------------------------------
# Teeth: no row forgotten, none hollow
# ---------------------------------------------------------------------------


def pool_callers() -> set[str]:
    """Every function under ``src/repro`` that calls ``fanout`` (the
    pool's own module aside)."""
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text()
        if path.name == "parallel.py" or not re.search(
            r"\bfanout\(", text
        ):
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "fanout"
                for call in ast.walk(node)
            ):
                found.add(node.name)
    return found


def test_every_pool_caller_is_a_jobs_scenario():
    jobs = next(knob for knob in KNOBS if knob.name == "jobs")
    assert set(jobs.scenarios) == pool_callers() | {"cli_e12"}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_moves_under_seed_plus_one(scenario, run):
    seed = signature(SCENARIOS[scenario]).parameters["seed"].default
    first, second = run(scenario), run(scenario, seed=seed + 1)
    assert pinned(first) != pinned(second), f"{scenario} ignores its seed"


def test_behaviour_still_sees_the_run(run):
    """What the config rows compare is not hollow: a storm that went
    differently has a different behaviour."""
    first, second = run("hardened_storm"), run("hardened_storm", seed=18)
    assert behaviour(first) != behaviour(second)


@pytest.mark.parametrize(
    "knob", [knob for knob in KNOBS if knob.twin is not None],
    ids=lambda knob: knob.name,
)
def test_the_comparison_catches_a_non_inert_twin(knob, run):
    baseline, twin = digests([
        run("golden_farm"), run("golden_farm", knob, knob.twin),
    ])
    assert baseline != twin


def test_config_default_rows_are_the_fields_the_fingerprint_drops():
    """``fingerprint()`` leaves a config field out when it is None, so that
    a run that never set it and one set to what None means are one digest
    — a row has to show they are one run.  The fields dropped are read off
    the payload the fingerprint hashes."""
    payloads = []

    def capture(payload, **kwargs):
        payloads.append(payload)
        return json.dumps(payload, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "json", SimpleNamespace(dumps=capture))
        ChaosReport(ChaosRunConfig(), [], OracleReport()).fingerprint()
    dropped = {f.name for f in fields(ChaosRunConfig)} - set(
        payloads[0]["config"]
    )
    assert {knob.field for knob in KNOBS if knob.field} == dropped


def test_tenancy_script_runs_every_outcome(run):
    kinds = {
        kind
        for user in json.loads(run("tenancy")).values()
        for trip_kinds in user["outcomes"].values()
        for kind in trip_kinds
    }
    assert kinds == {"routed", "unmapped", "no_subscribers", "rejected"}


def test_design_table_lists_exactly_the_knobs():
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("### Knobs that change nothing"):]
    section = section[:section.index("\n#")]
    names = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert names == [knob.name for knob in KNOBS]
