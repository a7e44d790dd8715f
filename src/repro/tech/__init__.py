"""Technology models: device parameters, capacitance rules, slope tables."""

from typing import Dict

from .parameters import (
    DeviceKind,
    DeviceParams,
    StaticResistance,
    Technology,
    Transition,
    analytic_static_resistance,
    ratio_check,
)
from .tables import (
    SlopeTable,
    SlopeTableSet,
    analytic_default_tables,
    logarithmic_ratio_grid,
)
from .nmos4 import NMOS4
from .cmos3 import CMOS3
from .io import (
    CHARACTERIZED_DIR,
    load_technology,
    save_technology,
    technologies_equivalent,
    technology_from_dict,
    technology_to_dict,
)

#: The built-in technologies by name (the CLI's ``--tech``, the service's
#: ``tech`` field).
TECHNOLOGIES: Dict[str, Technology] = {"nmos4": NMOS4, "cmos3": CMOS3}

__all__ = [
    "CHARACTERIZED_DIR",
    "TECHNOLOGIES",
    "load_technology",
    "save_technology",
    "technologies_equivalent",
    "technology_from_dict",
    "technology_to_dict",
    "DeviceKind",
    "DeviceParams",
    "StaticResistance",
    "Technology",
    "Transition",
    "analytic_static_resistance",
    "ratio_check",
    "SlopeTable",
    "SlopeTableSet",
    "analytic_default_tables",
    "logarithmic_ratio_grid",
    "NMOS4",
    "CMOS3",
]
