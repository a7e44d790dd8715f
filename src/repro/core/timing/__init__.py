"""Crystal-style static timing analysis over stage decompositions.

Clocked analysis (:mod:`.clocking`) and the charge-sharing scan
(:mod:`.hazards`) load on first read of their names (DESIGN.md §8).
"""

from ..._lazy import lazy_exports
from .paths import (
    PathElement,
    SensitizedPath,
    Trigger,
    effective_node_cap,
    enumerate_paths,
)
from .stage_graph import StageGraph
from .analyzer import (
    Arrival,
    Event,
    InputSpec,
    TimingAnalyzer,
    TimingResult,
    analyze,
)
from .report import (
    arrival_table,
    format_critical_path,
    format_worst_paths,
    worst_events,
)

__all__ = [
    "ClockPhase",
    "ClockSchedule",
    "ClockedTimingResult",
    "SetupCheck",
    "analyze_clocked",
    "format_setup_report",
    "minimum_period",
    "setup_checks",
    "ChargeSharingHazard",
    "find_charge_sharing_hazards",
    "format_hazard_report",
    "PathElement",
    "SensitizedPath",
    "Trigger",
    "effective_node_cap",
    "enumerate_paths",
    "StageGraph",
    "Arrival",
    "Event",
    "InputSpec",
    "TimingAnalyzer",
    "TimingResult",
    "analyze",
    "arrival_table",
    "format_critical_path",
    "format_worst_paths",
    "worst_events",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(("ClockPhase", "ClockSchedule", "ClockedTimingResult",
                     "SetupCheck", "analyze_clocked", "format_setup_report",
                     "minimum_period", "setup_checks"), "clocking"),
    **dict.fromkeys(("ChargeSharingHazard", "find_charge_sharing_hazards",
                     "format_hazard_report"), "hazards"),
})
