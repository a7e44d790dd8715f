"""The conformance runner: generate → run matrix → compare → shrink → emit.

:func:`check_case` encodes the comparability contract of
:mod:`repro.verify.modes`: every mode is compared **bit-identically**
against the brute-force serial reference, which runs once per case
whether or not the mode list names it.

:class:`ConformanceRunner` drives the case stream, layers the
invariants of :mod:`repro.verify.invariants` on top (among them the
kernel invariant, the only check that sees a fault every mode shares,
such as the injected ``kernel.set_constants_scale`` mutation), and on
failure delta-debugs the case to a minimal reproducer (re-running only
what the discrepancies implicate) and emits the ``.sim``/``.vec``/
manifest triple, which :func:`replay_reproducer` re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..perf import PerfCounters
from ..tech import Technology
from .artifacts import emit_reproducer, load_reproducer
from .diff import Discrepancy, compare_outcomes
from .generate import ConformanceCase, generate_case
from .invariants import check_invariants
from .modes import (REFERENCE, EngineMode, default_modes, mode_from_name,
                    run_mode)
from .shrink import shrink_case

__all__ = ["ConformanceConfig", "CaseFailure", "ConformanceReport",
           "ConformanceRunner", "check_case", "format_verify_report",
           "replay_reproducer"]


@dataclass
class ConformanceConfig:
    """Everything one conformance run depends on."""

    tech: Technology
    tech_name: str = "cmos3"
    model_name: str = "rc-tree"
    seed: int = 0
    cases: int = 20
    max_size: int = 24
    vectors_per_case: int = 4
    modes: List[EngineMode] = field(default_factory=default_modes)
    invariants: bool = True
    shrink: bool = True
    #: reproducer output directory (None = don't emit artifacts)
    out_dir: Optional[str] = None


@dataclass
class CaseFailure:
    """One failing case, as shrunk and emitted."""

    case: ConformanceCase
    discrepancies: List[Discrepancy]
    shrunk: Optional[ConformanceCase] = None
    manifest_path: Optional[str] = None

    @property
    def shrunk_size(self) -> int:
        return (self.shrunk or self.case).size


@dataclass
class ConformanceReport:
    """The outcome of one :meth:`ConformanceRunner.run`."""

    cases_run: int
    failures: List[CaseFailure]
    perf: PerfCounters

    @property
    def ok(self) -> bool:
        return not self.failures


def check_case(case: ConformanceCase, modes: Sequence[EngineMode],
               model_name: str, perf: PerfCounters) -> List[Discrepancy]:
    """Run *case* under the reference and every other mode, and return
    each mode's discrepancies against the reference."""
    baseline = run_mode(case, REFERENCE, model_name=model_name)
    perf.incr("verify_mode_runs")
    findings: List[Discrepancy] = []
    for mode in modes:
        if mode == REFERENCE:
            continue
        outcome = run_mode(case, mode, model_name=model_name)
        perf.incr("verify_mode_runs")
        perf.incr("verify_comparisons")
        findings += compare_outcomes(case.name, baseline, outcome)
    perf.incr("verify_discrepancies", len(findings))
    return findings


def replay_reproducer(manifest_path: str, tech: Technology,
                      perf: PerfCounters
                      ) -> Tuple[ConformanceCase, List[Discrepancy], dict]:
    """Re-run an emitted reproducer: the manifest's modes, plus the
    invariants when any recorded discrepancy is one.  Returns the case,
    what it fails with now, and the manifest."""
    case, modes, model_name, manifest = load_reproducer(manifest_path, tech)
    findings = check_case(case, modes, model_name, perf)
    if any(entry.get("kind") == "invariant"
           for entry in manifest.get("discrepancies", [])):
        # A generated case carries its run's seed, so this is the seed
        # ConformanceRunner.check gave the invariants (cfg.seed + case.seed).
        findings += check_invariants(case, case.seed + case.seed, perf)
    return case, findings, manifest


def _implicated_modes(discrepancies: Sequence[Discrepancy]
                      ) -> List[EngineMode]:
    """The engine modes a shrink candidate must re-run — the union of
    both sides of every non-invariant discrepancy."""
    names: List[str] = []
    for finding in discrepancies:
        if finding.kind == "invariant":
            continue
        for name in (finding.mode_a, finding.mode_b):
            if name not in names:
                names.append(name)
    return [mode_from_name(name) for name in names]


class ConformanceRunner:
    """Differential fuzzing loop over generated conformance cases."""

    def __init__(self, config: ConformanceConfig,
                 perf: Optional[PerfCounters] = None):
        self.config = config
        self.perf = perf if perf is not None else PerfCounters()

    # -- single case --------------------------------------------------------

    def check(self, case: ConformanceCase,
              modes: Optional[Sequence[EngineMode]] = None
              ) -> List[Discrepancy]:
        """Mode-matrix comparison plus (optionally) invariants."""
        cfg = self.config
        findings = check_case(case, modes or cfg.modes, cfg.model_name,
                              self.perf)
        if cfg.invariants and modes is None:
            findings += check_invariants(case, cfg.seed + case.seed,
                                         self.perf)
        return findings

    def refind(self, candidate: ConformanceCase,
               discrepancies: Sequence[Discrepancy]) -> List[Discrepancy]:
        """Re-run only what *discrepancies* implicate — the engine modes
        named by mode-pair discrepancies plus (when any invariant
        discrepancy is present) the invariant checks."""
        cfg = self.config
        modes = _implicated_modes(discrepancies)
        found: List[Discrepancy] = []
        if modes:
            found += check_case(candidate, modes, cfg.model_name, self.perf)
        if any(d.kind == "invariant" for d in discrepancies):
            found += check_invariants(candidate,
                                      cfg.seed + candidate.seed, self.perf)
        return found

    def _still_fails(self, discrepancies: Sequence[Discrepancy]):
        def predicate(candidate: ConformanceCase) -> bool:
            try:
                found = self.refind(candidate, discrepancies)
            except ReproError:
                return False  # candidate no longer analyzes — invalid
            # Any persisting discrepancy keeps the candidate (the classic
            # ddmin relaxation: the *failure*, not its exact location,
            # must persist; shrinking may move labels/events around).
            return bool(found)

        return predicate

    def shrink(self, case: ConformanceCase,
               discrepancies: Sequence[Discrepancy]) -> ConformanceCase:
        return shrink_case(case, self._still_fails(discrepancies),
                           self.perf)

    # -- the full loop ------------------------------------------------------

    def run_case(self, index: int) -> Optional[CaseFailure]:
        cfg = self.config
        case = generate_case(cfg.tech, cfg.seed, index,
                             max_size=cfg.max_size,
                             vectors_per_case=cfg.vectors_per_case)
        self.perf.incr("verify_cases")
        discrepancies = self.check(case)
        if not discrepancies:
            return None
        failure = CaseFailure(case=case, discrepancies=list(discrepancies))
        if cfg.shrink:
            failure.shrunk = self.shrink(case, discrepancies)
        if cfg.out_dir:
            emitted = failure.shrunk or case
            recorded = list(discrepancies)
            if failure.shrunk is not None:
                # Record what the *shrunk* case actually fails with, so a
                # --replay of the emitted pair matches the manifest.
                recorded = self.refind(failure.shrunk, discrepancies)
            # Record the implicated modes so --replay runs exactly what
            # the recorded discrepancies need (all modes as a fallback
            # for invariant-only failures).
            implicated = _implicated_modes(recorded) or cfg.modes
            failure.manifest_path = emit_reproducer(
                cfg.out_dir, emitted, recorded, cfg.tech_name,
                cfg.model_name, [m.name for m in implicated])
        return failure

    def run(self) -> ConformanceReport:
        failures = []
        for index in range(self.config.cases):
            failure = self.run_case(index)
            if failure is not None:
                failures.append(failure)
        return ConformanceReport(cases_run=self.config.cases,
                                 failures=failures, perf=self.perf)


def format_verify_report(report: ConformanceReport,
                         modes: Sequence[EngineMode],
                         max_listed: int = 10) -> str:
    """The human-readable summary ``repro verify`` prints."""
    perf = report.perf
    lines = [
        f"conformance: {report.cases_run} case(s) x "
        f"{len(modes)} mode(s) [{', '.join(m.name for m in modes)}]",
        f"  mode runs:        {perf.get('verify_mode_runs')}",
        f"  comparisons:      {perf.get('verify_comparisons')}",
        f"  invariant checks: {perf.get('verify_invariant_checks')}",
        f"  discrepancies:    {perf.get('verify_discrepancies')}",
    ]
    if perf.get("verify_shrink_attempts"):
        lines.append(
            f"  shrink: {perf.get('verify_shrink_removed')} removal(s) in "
            f"{perf.get('verify_shrink_attempts')} attempt(s)")
    if report.ok:
        lines.append("conformance: PASS")
        return "\n".join(lines)
    lines.append(f"conformance: FAIL ({len(report.failures)} case(s))")
    for failure in report.failures:
        shrunk = failure.shrunk
        size_note = (f" -> shrunk to {shrunk.size} transistor(s), "
                     f"{len(shrunk.vectors)} vector(s)") if shrunk else ""
        lines.append(f"  {failure.case.name}: "
                     f"{len(failure.discrepancies)} discrepancy(ies), "
                     f"{failure.case.size} transistor(s){size_note}")
        for finding in failure.discrepancies[:max_listed]:
            lines.append(f"    {finding}")
        hidden = len(failure.discrepancies) - max_listed
        if hidden > 0:
            lines.append(f"    ... and {hidden} more")
        if failure.manifest_path:
            lines.append(f"    reproducer: {failure.manifest_path}")
    return "\n".join(lines)
