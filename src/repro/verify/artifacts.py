"""Reproducer artifacts: emit a shrunk failing case, reload it, replay it.

A reproducer is three sibling files sharing the case name:

* ``<case>.sim``  — the (shrunk) netlist in the stock ``.sim`` dialect;
* ``<case>.vec``  — the (shrunk) vector batch in the stock ``.vec``
  grammar (two-edge ``~`` tokens and ``/SLOPE`` suffixes keep clock
  phases and input slopes exact);
* ``<case>.json`` — the manifest: generator seed/family, technology,
  delay model, implicated engine modes, the clock schedule (if any), and
  the discrepancy records the case was failing with.

``repro verify --replay <case>.json`` reloads the pair through the stock
parsers and re-runs the implicated modes, plus the invariants when an
invariant failed (:func:`repro.verify.runner.replay_reproducer`) — the
round trip is bit-exact because generated values live on integer grids
and the dumpers print 12 significant digits.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..batch.vectors import dump_vector_file, load_vector_file
from ..errors import ReproError
from ..netlist import sim_format
from ..tech import Technology
from .diff import Discrepancy
from .generate import ConformanceCase
from .modes import EngineMode, mode_from_name

__all__ = ["emit_reproducer", "load_reproducer"]


def _schedule_payload(case: ConformanceCase) -> Optional[dict]:
    if case.schedule is None:
        return None
    return {
        "period": case.schedule.period,
        "clock_slope": case.schedule.clock_slope,
        "phases": {name: {"rise": phase.rise, "fall": phase.fall}
                   for name, phase in case.schedule.phases.items()},
    }


def _load_schedule(payload: Optional[dict]):
    if not payload:
        return None
    from ..core.timing.clocking import ClockPhase, ClockSchedule

    phases = {name: ClockPhase(name, spec["rise"], spec["fall"])
              for name, spec in payload["phases"].items()}
    return ClockSchedule(period=payload["period"], phases=phases,
                         clock_slope=payload.get("clock_slope", 0.0))


def emit_reproducer(directory: str, case: ConformanceCase,
                    discrepancies: Sequence[Discrepancy], tech_name: str,
                    model_name: str, mode_names: Sequence[str]) -> str:
    """Write the ``.sim``/``.vec``/``.json`` triple; returns the manifest
    path (the ``--replay`` argument)."""
    os.makedirs(directory, exist_ok=True)
    sim_path = os.path.join(directory, f"{case.name}.sim")
    vec_path = os.path.join(directory, f"{case.name}.vec")
    manifest_path = os.path.join(directory, f"{case.name}.json")
    try:
        sim_format.dump(case.network, sim_path)
    except OSError as exc:
        raise ReproError(f"cannot write reproducer {sim_path}: {exc}")
    dump_vector_file(case.vectors, vec_path,
                     header=f"reproducer vectors for {case.name}")
    manifest = {
        "case": case.name,
        "seed": case.seed,
        "family": case.family,
        "tech": tech_name,
        "model": model_name,
        "modes": list(mode_names),
        "sim": os.path.basename(sim_path),
        "vec": os.path.basename(vec_path),
        "clocks": dict(case.clocks),
        "schedule": _schedule_payload(case),
        "transistors": case.size,
        "discrepancies": [
            {"kind": d.kind, "mode_a": d.mode_a, "mode_b": d.mode_b,
             "label": d.label, "event": d.event, "detail": d.detail}
            for d in discrepancies],
        "replay": f"repro verify --replay {manifest_path}",
    }
    try:
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise ReproError(f"cannot write manifest {manifest_path}: {exc}")
    return manifest_path


def load_reproducer(manifest_path: str, tech: Technology
                    ) -> Tuple[ConformanceCase, List[EngineMode], str, dict]:
    """Reload a reproducer manifest: the reconstructed case, the
    implicated modes, the model name, and the raw manifest dict."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read manifest {manifest_path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed manifest {manifest_path}: {exc}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    for key in ("case", "sim", "vec", "modes", "model"):
        if key not in manifest:
            raise ReproError(
                f"manifest {manifest_path} is missing {key!r}")
    sim_path = os.path.join(base, manifest["sim"])
    vec_path = os.path.join(base, manifest["vec"])
    network = sim_format.load(sim_path, tech)
    vectors = list(load_vector_file(vec_path))
    clocks: Dict[str, str] = dict(manifest.get("clocks") or {})
    clocks = {node: phase for node, phase in clocks.items()
              if network.has_node(node)}
    case = ConformanceCase(
        name=manifest["case"], seed=int(manifest.get("seed", 0)),
        family=manifest.get("family", "replay"), network=network,
        vectors=vectors, clocks=clocks,
        schedule=_load_schedule(manifest.get("schedule")))
    modes = [mode_from_name(name) for name in manifest["modes"]]
    return case, modes, manifest["model"], manifest
