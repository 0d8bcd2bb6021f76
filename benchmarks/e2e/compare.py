"""Compare two benchmark documents written by ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json [--same-commit]

``A`` is the base (the parent commit), ``B`` the change.  One row per
(workload, end-to-end metric): both medians with their quartiles, the
ratio B/A, and a verdict by the bound ``metrics.py`` fixes:

- ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound (for an exact metric: by anything at all);
- ``same`` — within the bound;
- ``unresolved`` — the run-to-run spread of either side is wider than
  the bound and the two sets of runs overlap, so the medians decide
  nothing either way.

Exit status 1 on any ``worse`` or on a higher ``failed_ratio``.  With
``--same-commit`` (the A/A acceptance run) every exact metric, digest and
deterministic per-layer count must also agree exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER


def verdict(metric, a: dict, b: dict) -> str:
    lower = metric.better == "lower"
    if metric.exact:
        if a["median"] == b["median"]:
            return "same"
        return "worse" if (b["median"] > a["median"]) == lower else "better"
    # Positive = B is worse, as a share of A's median.
    worse_by = (b["median"] - a["median"]) / a["median"]
    if not lower:
        worse_by = -worse_by
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (a, b)
    )
    overlap = (
        min(a["values"]) <= max(b["values"])
        and min(b["values"]) <= max(a["values"])
    )
    if spread > metric.bound and overlap:
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, same_commit: bool = False) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passes."""
    lines = [
        f"A: {a['env']['git_sha'][:12]} seed {a['seed']} reps {a['reps']}"
        f" calibration {a['env']['calibration_eps']:.3g}/s",
        f"B: {b['env']['git_sha'][:12]} seed {b['seed']} reps {b['reps']}"
        f" calibration {b['env']['calibration_eps']:.3g}/s",
        "",
        f"{'workload':<22} {'metric':<20} {'A median [q1, q3]':<36} "
        f"{'B median [q1, q3]':<36} {'B/A':>8}  verdict",
    ]
    passed = True
    exact_layers = [m.name for m in PER_LAYER if m.exact]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name}: missing from B")
            passed = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            ra, rb = wa["e2e"].get(metric.name), wb["e2e"].get(metric.name)
            if ra is None or rb is None:
                continue
            outcome = verdict(metric, ra, rb)
            ratio = (
                f"{rb['median'] / ra['median']:.4f}" if ra["median"] else "n/a"
            )
            lines.append(
                f"{name:<22} {metric.name:<20} "
                f"{_cell(ra):<36} {_cell(rb):<36} {ratio:>8}  {outcome}"
            )
            if outcome == "worse":
                passed = False
            if same_commit and metric.exact and outcome != "same":
                passed = False
        if wb["e2e"]["failed_ratio"]["median"] > wa["e2e"]["failed_ratio"]["median"]:
            lines.append(f"{name}: failed_ratio rose")
            passed = False
        if wa["digest"] != wb["digest"]:
            lines.append(f"{name}: digest {wa['digest'][:12]} -> {wb['digest'][:12]}")
            passed = passed and not same_commit
        differing = [
            f"{layer} {wa['layers'][layer]:.6g} -> {wb['layers'][layer]:.6g}"
            for layer in exact_layers
            if layer in wa["layers"] and layer in wb["layers"]
            and wa["layers"][layer] != wb["layers"][layer]
        ]
        for text in differing:
            lines.append(f"{name}: count {text}")
        if differing and same_commit:
            passed = False
    return lines, passed


def _cell(row: dict) -> str:
    return f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}] n={row['reps']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="base document (parent commit)")
    parser.add_argument("b", type=Path, help="document to judge")
    parser.add_argument("--same-commit", action="store_true",
                        help="A/A run: exact metrics, digests and counts "
                             "must agree exactly")
    args = parser.parse_args(argv)
    lines, passed = compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()),
        same_commit=args.same_commit,
    )
    print("\n".join(lines))
    print("\nPASS" if passed else "\nFAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
