"""E14's columns and sentences: naive vs stabilizing transport."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.reports import comparison_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.adversarial import AdversarialResult


def adversarial_report(result: "AdversarialResult") -> str:
    """Human-readable comparison table plus verdict lines."""
    pulses = [
        f for f in result.schedule if f.kind.value.startswith("link_")
    ]
    naive = result.variant("naive")
    stabilizing = result.variant("stabilizing")
    return comparison_report(
        f"E14: adversarial ship-link transport (seed {result.seed}, "
        f"{len(result.schedule)} faults, {len(pulses)} adversary "
        f"pulse(s), window {result.fault_window_end:.0f}s)",
        ["transport", "offered", "delivered", "shipped", "corrupt-acc",
         "dup-applied", "corrupt-rej", "dup-dropped", "resends",
         "conv lag", "violations"],
        [
            [v.name, v.offered, v.delivered, v.shipped, v.corrupt_accepts,
             v.duplicate_applies, v.corrupt_rejected, v.duplicate_dropped,
             v.resends, f"{v.convergence_lag:.1f} s", len(v.violations)]
            for v in result.variants
        ],
        notes=[
            f"{fault.kind.value} on {fault.target} at t={fault.at:.0f}s "
            f"for {fault.duration:.0f}s ("
            + ", ".join(f"{k}={v}" for k, v in sorted(fault.params.items()))
            + ")"
            for fault in pulses
        ],
        headlines=[
            f"naive damage: {naive.corrupt_accepts} corrupt frame(s) "
            f"applied, {naive.duplicate_applies} duplicate(s) re-applied "
            f"({len(naive.transport_violations)} transport violation(s))",
            f"stabilizing defense: {stabilizing.corrupt_rejected} corrupt "
            f"frame(s) NACKed, {stabilizing.duplicate_dropped} duplicate "
            f"cop(ies) dropped, {stabilizing.resends} resend(s), converged "
            f"{stabilizing.convergence_lag:.1f}s past the fault window",
        ],
        verdict=(
            result.ok,
            f"stabilizing corrupt-accepts={stabilizing.corrupt_accepts}, "
            f"duplicate-applies={stabilizing.duplicate_applies}, "
            f"transport violations={len(stabilizing.transport_violations)}",
        ),
        violations=stabilizing.transport_violations,
    )
