"""Tests of the benchmark itself, at tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (plain
``pytest`` collects ``tests/`` only, so tier-1 never pays for these).
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((layers.REPO_ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> list[dict]:
    """Two complete tiny runs of the same seed, traced pass included."""
    docs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("e2e") / f"run{index}.json"
        done = run("--scale", "tiny", "--trace-scale", "tiny", "--reps", "1",
                   "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        document = json.loads(out.read_text())
        document["ledger"] = json.loads(Path(f"{out}.trace.json").read_text())
        docs.append(document)
    return docs


# -- the committed contract -------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
    assert len(BENCHMARK["workloads"]) == 4
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(BENCHMARK["end_to_end"]) <= 16
    assert len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    # Every gated end-to-end metric, with the catalogue's unit, direction
    # and bound; setup_s among them.
    gated = [m for m in metrics.END_TO_END if m.bound is not None]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in gated
    ]
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_ten_end_to_end_metrics_and_valid_predictions():
    assert len(metrics.END_TO_END) == 10
    e2e = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        assert set(metric.moves) <= e2e, metric.name
        assert set(metric.on) <= set(metrics.WORKLOADS), metric.name
    for layer in layers.LAYERS:
        assert f"{layer}.self_us_per_alert" in {m.name for m in metrics.PER_LAYER}


def test_layer_table_covers_every_package_file():
    assert layers.duplicate_assignments() == []
    assert sorted(layers.FILE_LAYER) == layers.package_files(), (
        "assign new modules under src/repro to a layer in layers.py "
        "(and drop the ones that are gone)"
    )
    assert layers.layer_of("/x/src/repro/core/router.py") == "core.router"
    assert layers.layer_of("/usr/lib/python3/pickle.py") == layers.RUNTIME_OTHER


def test_committed_digests_cover_every_scale_and_workload():
    pins = json.loads((HERE / "digests.json").read_text())
    assert set(pins) == {"full", "quarter", "tiny"}
    for scale in pins.values():
        assert set(scale) == set(metrics.WORKLOADS)


def test_collector_pause_inside_a_builtin_is_not_counted_twice():
    """A collection triggered in a builtin called from a layer's frame is
    charged by the profiler to the builtin: what the frame's layer cannot
    cover comes out of runtime.other, and the shares still sum to 1."""
    from types import SimpleNamespace

    farm_code = compile("pass", "/x/src/repro/core/farm.py", "exec")
    entries = [
        SimpleNamespace(code=farm_code, callcount=1, inlinetime=0.1,
                        totaltime=1.0, calls=None),
        SimpleNamespace(code="<built-in method builtins.dict>", callcount=9,
                        inlinetime=0.9, totaltime=0.9, calls=None),
    ]
    watch = SimpleNamespace(
        wall=0.5, collections=[0, 0, 1], by_layer={"core.farm": 0.5}
    )
    rows = ledger._attribute(entries, watch, wall=1.0)["layers"]
    assert rows["core.farm"]["self_s"] == 0.0
    assert rows[layers.RUNTIME_OTHER]["self_s"] == pytest.approx(0.5)
    assert rows[layers.RUNTIME_GC]["self_s"] == 0.5
    assert sum(row["share"] for row in rows.values()) == pytest.approx(1.0)


# -- a real (tiny) run ------------------------------------------------------


def test_document_schema(documents):
    document = documents[0]
    assert set(document["env"]) == {
        "cpu_count", "calibration_eps", "python", "scheduler", "git_sha",
    }
    assert sorted(document["workloads"]) == sorted(metrics.WORKLOADS)
    for name, workload in document["workloads"].items():
        assert workload["correct"], workload["problems"]
        assert workload["failed"] == 0
        assert set(workload["e2e"]) == {m.name for m in metrics.END_TO_END}
        for metric in metrics.END_TO_END:
            row = workload["e2e"][metric.name]
            assert row["unit"] == metric.unit
            assert row["q1"] <= row["median"] <= row["q3"]
            assert len(row["values"]) == row["reps"] >= 1
        assert workload["e2e"]["failed_ratio"]["median"] == 0
        assert workload["e2e"]["alerts_per_wall_s"]["median"] > 0
        assert set(workload["layers"]) == {m.name for m in metrics.PER_LAYER}
        # Traced (inline shards) and untraced (process shards) agree.
        assert workload["trace_digest"] is not None


def test_layer_shares_account_for_the_traced_wall(documents):
    for name, phases in documents[0]["ledger"].items():
        run_phase = phases["run"]
        assert set(run_phase["layers"]) == set(layers.LAYERS)
        total = sum(row["share"] for row in run_phase["layers"].values())
        assert total == pytest.approx(1.0, abs=0.02), name
        assert run_phase["missing_probes"] == []
        assert run_phase["edges"]


def test_workloads_separate_the_layers(documents):
    rows = {n: w["layers"] for n, w in documents[0]["workloads"].items()}
    assert rows["farm_storm_admission"]["core.admission.absorbed_ratio"] >= 0.5
    for name in ("farm_steady", "shard_fanout_cold", "farm_chaos_replicated"):
        assert rows[name]["core.admission.absorbed_ratio"] == 0
    for name, row in rows.items():
        replicated = name == "farm_chaos_replicated"
        assert (row["core.replication.ships_per_alert"] > 0) == replicated
        sharded = name == "shard_fanout_cold"
        assert (row["core.shard.self_us_per_alert"] > 0) == sharded
        assert (row["core.shard.epochs"] > 0) == sharded
        assert row["runtime.gc.share"] > 0


def test_two_runs_agree_exactly_on_everything_determined_by_the_seed(documents):
    first, second = documents
    lines, passed = compare.compare(first, second, same_commit=True)
    exact_lines = [
        line for line in lines if ": count " in line or ": digest " in line
    ]
    assert not exact_lines, exact_lines
    for name in metrics.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["digest"] == b["digest"]
        assert a["counts"] == b["counts"]
        for metric in metrics.EXACT:
            assert a["e2e"][metric]["values"] == b["e2e"][metric]["values"]
        for metric in metrics.PER_LAYER:
            if metric.exact:
                assert a["layers"][metric.name] == b["layers"][metric.name]


# -- compare.py -------------------------------------------------------------


def test_compare_verdicts(documents):
    base = documents[0]
    slower = copy.deepcopy(base)
    row = slower["workloads"]["farm_steady"]["e2e"]["alerts_per_wall_s"]
    for key in ("median", "q1", "q3"):
        row[key] *= 0.5
    row["values"] = [value * 0.5 for value in row["values"]]
    lines, passed = compare.compare(base, slower)
    assert not passed
    assert any("alerts_per_wall_s" in l and l.endswith("worse") for l in lines)

    late = copy.deepcopy(base)
    late["workloads"]["farm_steady"]["e2e"]["sim_latency_p99_s"]["median"] += 1e-9
    assert not compare.compare(base, late)[1], "exact metrics have no slack"

    noisy = copy.deepcopy(base)
    row = noisy["workloads"]["farm_steady"]["e2e"]["alerts_per_wall_s"]
    median = row["median"]
    row.update(q1=median * 0.5, q3=median * 1.5, median=median * 0.8,
               values=[median * 0.5, median * 0.8, median * 1.5])
    lines, passed = compare.compare(base, noisy)
    assert passed
    assert any("alerts_per_wall_s" in l and l.endswith("unresolved") for l in lines)


# -- the driver's form ------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_prints_one_result_line(trace):
    done = run("--workload", "farm_storm_admission", "--seed", "3",
               "--seconds", "0.1", "--trace", trace,
               "--scale", "tiny", "--trace-scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
