"""Every byte-identity claim of the repository is one row of :data:`PINS`.

A row is ``Pin(name, path, produce)``: ``produce()`` runs a scenario that
already exists and returns the exact text of ``tests/data/<path>``.
``tests/test_repin.py`` holds every row to its file; DESIGN §6's "Pinned
behaviour" table lists the same rows.

    python tests/repin.py --write       # re-pin every row
    python tests/repin.py --diff REF    # per-alert fate diff, REF -> this tree

``--diff`` runs every scenario of :data:`FATES` against REF's ``repro`` (a
``git worktree``, in a subprocess running this file) and against this
tree's, and prints one row per alert whose fate moved.  An alert is keyed
by its id, renumbered per scenario in emission order (ids come from a
process-global counter), and labelled by its user and its subject, or
``#index`` where no trip of it carries one: an alert that gains or loses
its trips stays one row.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.__main__ import main as repro_main  # noqa: E402
from repro.obs import LIFECYCLE_PREFIX, TraceSink  # noqa: E402
from repro.testkit import DeliveryOracle, harness  # noqa: E402
from repro.testkit.oracle import OUTCOME_KINDS  # noqa: E402
from tests.golden_farm import run_golden_farm  # noqa: E402
from tests.golden_scenario import run_golden_scenario  # noqa: E402
from tests.test_chaos_regressions import (  # noqa: E402
    TIER_SEEDS,
    high_intensity,
)
from tests.test_oracle_corpus import CASES, verdict  # noqa: E402


def renamer(keep=lambda alert_id: alert_id is None):
    """Alert ids in first-appearance order, ``A1, A2, …`` (the counter that
    mints them is process-global); an id ``keep`` accepts passes through."""
    names: dict = {}

    def rename(alert_id):
        if keep(alert_id):
            return alert_id
        return names.setdefault(alert_id, f"A{len(names) + 1}")

    return rename


def journal_rows(journal, rename) -> list:
    return [[repr(e.at), e.kind, e.detail, rename(e.alert_id)]
            for e in journal.events]


def farm_journals(farm) -> str:
    """Every tenant's journal, tenant-index order, one renaming farm-wide."""
    rename = renamer()
    return json.dumps(
        [[t.name, journal_rows(t.deployment.journal, rename)] for t in farm],
        indent=1,
    ) + "\n"


def golden_farm_trace() -> str:
    """The traced golden farm's span record; ``lifecycle:`` trace ids are
    stable names already."""
    sink = TraceSink()
    run_golden_farm(tracer=sink)
    rename = renamer(keep=lambda trace: trace.startswith(LIFECYCLE_PREFIX))
    return sink.to_json(rename=rename) + "\n"


def oracle_corpus() -> str:
    return json.dumps(
        {name: verdict(name) for name in sorted(CASES)},
        indent=1, sort_keys=True,
    ) + "\n"


def cli(*argv: str) -> Callable[[], str]:
    """``python -m repro *argv``'s stdout; a broken claim is an error."""

    def produce() -> str:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            if repro_main(list(argv)):
                raise RuntimeError(f"python -m repro {' '.join(argv)} failed")
        return out.getvalue()

    return produce


#: The quick E13 run whose fingerprints are pinned.
E13_ARGV = ("e13", "--seed", "0", "--shards", "2", "--users", "20000")


def e13_fingerprints() -> str:
    """What no host can change of the quick E13 run: the fingerprint per
    shard layout and the oracle line (walls and rates are the host's)."""
    out = cli(*E13_ARGV)()
    return "".join(
        f"{line.split()[0]} {line.split()[-1]}\n" if line[:1].isdigit()
        else f"{line}\n" for line in out.splitlines()
        if line[:1].isdigit() or line.startswith("oracle")
    )


@dataclass(frozen=True)
class Pin:
    """A pinned file (relative to ``tests/data``) and what produces it."""

    name: str
    path: str
    produce: Callable[[], str]


CLI_IDS = ("e1", "e2", "e3", "e4", "e5", "e6", "e8", "e10", "e11", "e12",
           "e14", "a1", "a2", "a3")

PINS = (
    Pin("golden_journal", "golden_journal_seed.json", lambda: json.dumps(
        journal_rows(run_golden_scenario(), renamer()), indent=1) + "\n"),
    Pin("golden_farm", "golden_farm_seed.json",
        lambda: farm_journals(run_golden_farm())),
    Pin("golden_farm_trace", "trace/golden_farm_trace.json",
        golden_farm_trace),
    Pin("oracle_corpus", "oracle/reports.json", oracle_corpus),
    *(Pin(f"cli:{key}", f"cli/{key}_seed0.txt", cli(key, "--seed", "0"))
      for key in CLI_IDS),
    Pin("cli:e13", "cli/e13_fingerprints.txt", e13_fingerprints),
)


#: Scenario → a ``ChaosReport`` run: the committed reproducers, the
#: twelve high-intensity tier seeds, the total outage, the hardened storm.
FATES = {
    **{name: run for name, run in CASES.items() if name.startswith("pin:")},
    **{f"tier:{seed}": partial(high_intensity, seed) for seed in TIER_SEEDS},
    "total_outage": CASES["total_outage:real"],
    "hardened_storm": CASES["hardened_storm:untraced"],
}


def fates(run) -> tuple:
    """Run one scenario: its report, and alert id → ``(index, user, label,
    fate)`` in emission order; ``index`` is the alert's place in that
    order, ``label`` its subject or ``#index``, and a fate is the outcome
    class, channel, copies at the user and trip kinds.  ``run_chaos`` hands the quiesced farm to
    its oracle only, so the harness's oracle is one that keeps it."""
    seen = []

    class Capture(DeliveryOracle):
        def check(self, farm, offered=None, **kwargs):
            seen.append((self, farm, offered))
            return super().check(farm, offered=offered, **kwargs)

    with mock.patch.object(harness, "DeliveryOracle", Capture):
        report = run()
    (oracle, farm, offered), = seen
    trips = oracle.outcomes_by_user()
    # Ids count up in emission order: a trip-less alert is named by its place.
    order = sorted((a for ids in offered.values() for a in ids),
                   key=lambda a: int(a.rpartition("-")[2]))
    table = {}
    for fate in harness.alert_fates(farm, offered, oracle):
        mine = trips.get(fate.user, {}).get(fate.alert_id, [])
        kinds = [t.kind or "-" for t in mine]
        meanings = [OUTCOME_KINDS.get(kind) for kind in kinds]
        outcome = (f"delivered {fate.receipt.channel.name}" if fate.delivered
                   else "dead-letter" if "dead-letter" in meanings
                   else "admission-terminal"
                   if "admission-terminal" in meanings else "lost")
        if fate.user_duplicates:
            outcome += f" +{fate.user_duplicates} dup"
        index = order.index(fate.alert_id)
        label = mine[0].subject if mine else f"#{index}"
        table[fate.alert_id] = (index, fate.user, label,
                                f"{outcome} [{' '.join(kinds)}]")
    return report, {alert_id: table[alert_id] for alert_id in order}


def fate_table(scenarios=None) -> dict[str, list]:
    """Scenario → ``[index, user, label, fate]`` rows (JSON-safe)."""
    return {name: list(map(list, fates(run)[1].values()))
            for name, run in (scenarios or FATES).items()}


def fate_diff(parent: dict, change: dict) -> list[tuple]:
    """``(scenario, index, user, label, parent fate, change fate)`` per
    moved alert, matched by id; the label is a subject where either side has
    one, and a fate missing on one side is ``(none)``."""
    rows = []
    for scenario in dict.fromkeys([*parent, *change]):
        old, new = ({index: (user, label, fate)
                     for index, user, label, fate in side.get(scenario, ())}
                    for side in (parent, change))
        for index in dict.fromkeys([*old, *new]):
            before, after = old.get(index), new.get(index)
            if before is not None and after is not None \
                    and before[2] == after[2]:
                continue
            sides = [row for row in (before, after) if row is not None]
            user, label = next(
                (row[:2] for row in sides if not row[1].startswith("#")),
                sides[0][:2],
            )
            rows.append((scenario, index, user, label,
                         before[2] if before else "(none)",
                         after[2] if after else "(none)"))
    return rows


def render(rows: list[tuple]) -> str:
    """Rows grouped by outcome-class transition, with counts per scenario."""
    if not rows:
        return "no fate changed\n"
    groups: dict[str, list] = {}
    for row in rows:
        transition = " -> ".join(fate.split()[0] for fate in row[4:])
        groups.setdefault(transition, []).append(row)
    out = []
    for transition, group in sorted(groups.items()):
        counts = Counter(row[0] for row in group)
        per = ", ".join(f"{s} {n}" for s, n in counts.items())
        out.append(f"{transition}: {len(group)} alert(s) ({per})")
        out += [f"  {s}  {u}  {label}  {old} -> {new}"
                for s, _index, u, label, old, new in group]
    return "\n".join(out) + "\n"


def diff_against(ref: str) -> list[tuple]:
    """Fates at ``ref`` (this file against ``ref``'s ``repro``, in a
    throw-away worktree) against fates in this tree."""
    git = partial(subprocess.run, cwd=ROOT, check=True,
                  stdout=subprocess.DEVNULL)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "ref"
        git(["git", "worktree", "add", "--detach", str(tree), ref])
        path = os.pathsep.join([str(tree / "src"), str(ROOT)])
        try:
            child = subprocess.Popen(
                [sys.executable, "-c", "import json, sys; from tests.repin "
                 "import fate_table; json.dump(fate_table(), sys.stdout)"],
                cwd=ROOT, text=True, stdout=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
            )
            change = fate_table()
            parent = child.communicate()[0]
        finally:
            git(["git", "worktree", "remove", "--force", str(tree)])
    if child.returncode:
        raise SystemExit(f"fates at {ref} failed (exit {child.returncode})")
    return fate_diff(json.loads(parent), change)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tests/repin.py",
                                     description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="rewrite every pinned file its row moved")
    mode.add_argument("--diff", metavar="REF",
                      help="per-alert fate diff from git REF to this tree")
    args = parser.parse_args(argv)
    if args.diff:
        sys.stdout.write(render(diff_against(args.diff)))
        return 0
    for pin in PINS:
        path, text = DATA / pin.path, pin.produce()
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(f"re-pinned {pin.name}: tests/data/{pin.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
