"""Discrepancy records and outcome comparison.

The conformance contract between any mode and its matched reference
(same slope quantum) is bit-identity: every arrival event present in one
outcome must be present in the other with ``==``-equal time and slope,
and the hazard / setup-check report strings must match byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .modes import ModeOutcome

__all__ = ["Discrepancy", "compare_outcomes"]


@dataclass(frozen=True)
class Discrepancy:
    """One observed disagreement (mode pair, invariant, or replay)."""

    case_name: str
    #: "arrival-set" / "arrival-time" / "arrival-slope" / "label-set" /
    #: "hazard-report" / "setup-report" / "invariant"
    kind: str
    mode_a: str
    mode_b: str
    #: vector label ("" when the discrepancy is not vector-scoped)
    label: str = ""
    #: "node:rise"-style event tag ("" when not event-scoped)
    event: str = ""
    detail: str = ""

    def key(self) -> Tuple[str, str, str, str, str]:
        """Identity modulo float formatting — what a replayed reproducer
        must re-produce for the round trip to count as faithful."""
        return (self.kind, self.mode_a, self.mode_b, self.label, self.event)

    def __str__(self) -> str:
        scope = f" {self.label}" if self.label else ""
        scope += f" {self.event}" if self.event else ""
        return (f"[{self.kind}] {self.case_name}{scope}: "
                f"{self.mode_a} vs {self.mode_b}: {self.detail}")


def compare_outcomes(case_name: str, a: ModeOutcome,
                     b: ModeOutcome) -> List[Discrepancy]:
    """All disagreements between two outcomes of the same case."""
    findings: List[Discrepancy] = []
    name_a, name_b = a.mode.name, b.mode.name

    def report(kind: str, label: str = "", event: str = "",
               detail: str = "") -> None:
        findings.append(Discrepancy(
            case_name=case_name, kind=kind, mode_a=name_a, mode_b=name_b,
            label=label, event=event, detail=detail))

    if set(a.arrivals) != set(b.arrivals):
        report("label-set", detail=(
            f"vector labels differ: {sorted(a.arrivals)} vs "
            f"{sorted(b.arrivals)}"))
        return findings

    for label in a.arrivals:
        mine, theirs = a.arrivals[label], b.arrivals[label]
        if set(mine) != set(theirs):
            only_a = {f"{e.node}:{e.transition.value}"
                      for e in set(mine) - set(theirs)}
            only_b = {f"{e.node}:{e.transition.value}"
                      for e in set(theirs) - set(mine)}
            report("arrival-set", label=label, detail=(
                f"events only in {name_a}: {sorted(only_a)}; only in "
                f"{name_b}: {sorted(only_b)}"))
            continue
        for event in sorted(mine, key=lambda e: (e.node,
                                                 e.transition.value)):
            lhs, rhs = mine[event], theirs[event]
            tag = f"{event.node}:{event.transition.value}"
            if lhs.time != rhs.time:
                report("arrival-time", label=label, event=tag,
                       detail=f"{lhs.time!r} vs {rhs.time!r}")
            if lhs.slope != rhs.slope:
                report("arrival-slope", label=label, event=tag,
                       detail=f"{lhs.slope!r} vs {rhs.slope!r}")

    if a.hazard_report != b.hazard_report:
        report("hazard-report", detail="charge-sharing hazard reports differ")
    if set(a.setup_reports) != set(b.setup_reports):
        report("setup-report", detail="setup-check coverage differs")
    else:
        for label, text in a.setup_reports.items():
            if b.setup_reports[label] != text:
                report("setup-report", label=label,
                       detail="setup-check reports differ")
    return findings
