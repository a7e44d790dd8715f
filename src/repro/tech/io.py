"""Technology persistence.

Characterization costs dozens of transients; shipping or caching the fitted
result as JSON avoids re-running it.  The serialized form covers the full
:class:`~repro.tech.parameters.Technology`: level-1 device parameters,
static effective resistances, slope tables, and the geometry defaults.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Mapping

from ..errors import TechnologyError
from .parameters import (
    DeviceKind,
    DeviceParams,
    StaticResistance,
    Technology,
    Transition,
)
from .tables import SlopeTableSet

FORMAT_VERSION = 1

#: Package data: the built-in technologies fitted on the default ratio
#: grid, one ``NAME.json`` each, as ``repro-crystal characterize --tech
#: NAME -o FILE`` writes them.
CHARACTERIZED_DIR = pathlib.Path(__file__).resolve().parent / "characterized"


def technology_to_dict(tech: Technology) -> dict:
    """A JSON-serializable snapshot of a technology."""
    return {
        "format": FORMAT_VERSION,
        "name": tech.name,
        "vdd": tech.vdd,
        "lambda_units": tech.lambda_units,
        "default_width": tech.default_width,
        "default_length": tech.default_length,
        "temperature": tech.temperature,
        "devices": {
            kind.value: {
                "vt0": params.vt0,
                "kp": params.kp,
                "lam": params.lam,
                "gamma": params.gamma,
                "phi": params.phi,
                "cox": params.cox,
                "cj_per_width": params.cj_per_width,
            }
            for kind, params in tech.devices.items()
        },
        "static_resistance": {
            f"{kind.value}:{transition.value}": entry.r_square
            for (kind, transition), entry in tech.static_resistance.items()
        },
        "slope_tables": (tech.slope_tables.to_dict()
                         if tech.slope_tables is not None else None),
    }


def technology_from_dict(data: Mapping) -> Technology:
    """Rebuild a technology from :func:`technology_to_dict` output."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise TechnologyError(
            f"unsupported technology file format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    devices: Dict[DeviceKind, DeviceParams] = {}
    for code, params in data["devices"].items():
        kind = DeviceKind(code)
        devices[kind] = DeviceParams(kind=kind, **params)
    static = {}
    for key, r_square in data["static_resistance"].items():
        code, transition = key.split(":")
        static[(DeviceKind(code), Transition(transition))] = (
            StaticResistance(float(r_square)))
    tables = (SlopeTableSet.from_dict(data["slope_tables"])
              if data.get("slope_tables") else None)
    return Technology(
        name=str(data["name"]),
        vdd=float(data["vdd"]),
        devices=devices,
        static_resistance=static,
        lambda_units=float(data["lambda_units"]),
        default_width=float(data["default_width"]),
        default_length=float(data["default_length"]),
        temperature=float(data["temperature"]),
        slope_tables=tables,
    )


def save_technology(tech: Technology, path: str) -> None:
    """Write a technology (with any fitted tables) to a JSON file."""
    with open(path, "w") as handle:
        json.dump(technology_to_dict(tech), handle, indent=2)


def load_technology(path: str) -> Technology:
    """Load a technology saved by :func:`save_technology`."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise TechnologyError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise TechnologyError(f"{path}: not valid JSON ({exc})") from exc
    return technology_from_dict(data)


def technologies_equivalent(a: Technology, b: Technology,
                            rel_tol: float = 1e-9) -> bool:
    """Structural equality up to floating-point noise (used by tests to
    verify save/load round trips)."""
    import math

    if a.name != b.name or set(a.devices) != set(b.devices):
        return False
    for kind in a.devices:
        pa, pb = a.devices[kind], b.devices[kind]
        for field in ("vt0", "kp", "lam", "gamma", "phi", "cox",
                      "cj_per_width"):
            if not math.isclose(getattr(pa, field), getattr(pb, field),
                                rel_tol=rel_tol, abs_tol=1e-30):
                return False
    if set(a.static_resistance) != set(b.static_resistance):
        return False
    for key in a.static_resistance:
        if not math.isclose(a.static_resistance[key].r_square,
                            b.static_resistance[key].r_square,
                            rel_tol=rel_tol):
            return False
    has_a = a.slope_tables is not None
    has_b = b.slope_tables is not None
    if has_a != has_b:
        return False
    if has_a:
        if a.slope_tables.keys() != b.slope_tables.keys():
            return False
        for kind, transition in a.slope_tables.keys():
            ta = a.slope_tables.get(kind, transition)
            tb = b.slope_tables.get(kind, transition)
            for xs, ys in ((ta.ratios, tb.ratios),
                           (ta.delay_factors, tb.delay_factors),
                           (ta.slope_factors, tb.slope_factors)):
                if len(xs) != len(ys):
                    return False
                for x, y in zip(xs, ys):
                    if not math.isclose(x, y, rel_tol=rel_tol,
                                        abs_tol=1e-30):
                        return False
    return True
