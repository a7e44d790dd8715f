"""Slope-model lookup tables.

The slope model (Section 4 of the paper; :mod:`repro.core.models.slope`)
replaces each device's constant effective resistance with one that depends on
the **slope ratio**

    ``r = t_in / tau``

where ``t_in`` is the full-swing-equivalent transition time of the input
signal and ``tau`` is the intrinsic RC time constant of the stage (static
path resistance times driven capacitance).  A characterized technology
carries, per ``(DeviceKind, Transition)``:

* ``delay_factor(r)``  — stage delay divided by ``tau``;
* ``slope_factor(r)``  — output transition time divided by ``tau``.

Both are stored as sampled curves on a logarithmic grid of slope ratios and
interpolated log-linearly in ``r``.  The curves are produced by the
characterization engine (:mod:`repro.core.models.characterize`) fitting
against the analog reference simulator; :func:`analytic_default_tables`
provides physically-shaped defaults so the models work before a technology
has been characterized.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from ..errors import TechnologyError
from .parameters import DeviceKind, Transition

TableKey = Tuple[DeviceKind, Transition]


@dataclass(frozen=True)
class SlopeTable:
    """One characterized curve pair: delay and output-slope factors vs ratio.

    ``ratios`` must be strictly increasing and positive.  Lookups outside the
    sampled range clamp to the end values for the low side and extrapolate
    linearly (in ``r``) on the high side — for very slow inputs both the
    delay and the output transition time grow linearly with the input
    transition time, so linear extrapolation is the physically right tail.
    """

    ratios: Tuple[float, ...]
    delay_factors: Tuple[float, ...]
    slope_factors: Tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.ratios)
        if n < 2:
            raise TechnologyError("slope table needs at least two samples")
        if len(self.delay_factors) != n or len(self.slope_factors) != n:
            raise TechnologyError("slope table arrays have mismatched lengths")
        prev = 0.0
        for r in self.ratios:
            if r <= prev:
                raise TechnologyError("slope table ratios must be increasing and > 0")
            prev = r
        for s in self.slope_factors:
            if s <= 0:
                raise TechnologyError("slope factors must be positive")
        # A table keys the slope model's memo on every evaluation: hash
        # its 3 x n floats once, to the value the generated __hash__
        # gives.  Float hashes are not salted, so an unpickled table's
        # copy of it stays right.
        object.__setattr__(self, "_hash", hash(
            (self.ratios, self.delay_factors, self.slope_factors)))

    def __hash__(self) -> int:
        return self._hash

    def _interpolate(self, values: Tuple[float, ...], ratio: float) -> float:
        ratios = self.ratios
        if ratio <= ratios[0]:
            return values[0]
        if ratio >= ratios[-1]:
            # Linear tail: continue the slope of the last segment.
            r0, r1 = ratios[-2], ratios[-1]
            v0, v1 = values[-2], values[-1]
            return v1 + (v1 - v0) * (ratio - r1) / (r1 - r0)
        index = bisect.bisect_right(ratios, ratio) - 1
        r0, r1 = ratios[index], ratios[index + 1]
        v0, v1 = values[index], values[index + 1]
        # Log-linear in the ratio axis: the grid is logarithmic.
        frac = (math.log(ratio) - math.log(r0)) / (math.log(r1) - math.log(r0))
        return v0 + (v1 - v0) * frac

    def delay_factor(self, ratio: float) -> float:
        """Stage delay divided by the intrinsic time constant ``tau``."""
        if ratio < 0:
            raise TechnologyError(f"negative slope ratio {ratio!r}")
        return self._interpolate(self.delay_factors, ratio)

    def slope_factor(self, ratio: float) -> float:
        """Output transition time divided by ``tau``."""
        if ratio < 0:
            raise TechnologyError(f"negative slope ratio {ratio!r}")
        return self._interpolate(self.slope_factors, ratio)

    def to_dict(self) -> dict:
        return {
            "ratios": list(self.ratios),
            "delay_factors": list(self.delay_factors),
            "slope_factors": list(self.slope_factors),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SlopeTable":
        return cls(
            ratios=tuple(float(x) for x in data["ratios"]),
            delay_factors=tuple(float(x) for x in data["delay_factors"]),
            slope_factors=tuple(float(x) for x in data["slope_factors"]),
        )

    @classmethod
    def from_samples(cls, samples: Iterable[Tuple[float, float, float]]) -> "SlopeTable":
        """Build a table from ``(ratio, delay_factor, slope_factor)`` triples."""
        rows = sorted(samples)
        return cls(
            ratios=tuple(r for r, _, _ in rows),
            delay_factors=tuple(d for _, d, _ in rows),
            slope_factors=tuple(s for _, _, s in rows),
        )


@dataclass
class SlopeTableSet:
    """All slope tables of one technology, keyed by device kind & direction.

    The *direction* is the direction of the **output** transition the device
    drives: an nMOS pulldown appears under ``(NMOS_ENH, FALL)``, a depletion
    load under ``(NMOS_DEP, RISE)``, a pMOS pullup under ``(PMOS, RISE)``.
    Pass transistors use their own kind with the direction of the signal
    they are passing.
    """

    tables: Dict[TableKey, SlopeTable] = field(default_factory=dict)
    source: str = "analytic-default"

    def add(self, kind: DeviceKind, transition: Transition, table: SlopeTable) -> None:
        self.tables[(kind, transition)] = table

    def get(self, kind: DeviceKind, transition: Transition) -> SlopeTable:
        # One dict.get per key: each lookup hashes an enum pair.
        found = self.tables.get((kind, transition))
        if found is not None:
            return found
        # Fall back to the same kind's other direction (pass devices are
        # characterized in one direction in minimal sets), then to any table.
        found = self.tables.get((kind, transition.opposite))
        if found is not None:
            return found
        raise TechnologyError(
            f"no slope table for {kind.name}/{transition.value} "
            f"(table set source: {self.source!r})"
        )

    def has(self, kind: DeviceKind, transition: Transition) -> bool:
        return (kind, transition) in self.tables or (
            kind, transition.opposite) in self.tables

    def keys(self) -> List[TableKey]:
        return sorted(self.tables, key=lambda k: (k[0].value, k[1].value))

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "tables": {
                f"{kind.value}:{transition.value}": table.to_dict()
                for (kind, transition), table in self.tables.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SlopeTableSet":
        tables: Dict[TableKey, SlopeTable] = {}
        for key, value in data["tables"].items():
            kind_code, transition_name = key.split(":")
            tables[(DeviceKind(kind_code), Transition(transition_name))] = (
                SlopeTable.from_dict(value)
            )
        return cls(tables=tables, source=str(data.get("source", "unknown")))


def logarithmic_ratio_grid(start: float = 0.02, stop: float = 50.0,
                           points: int = 16) -> List[float]:
    """The standard grid of slope ratios used for characterization."""
    if start <= 0 or stop <= start or points < 2:
        raise TechnologyError("bad ratio grid specification")
    step = (math.log(stop) - math.log(start)) / (points - 1)
    return [math.exp(math.log(start) + i * step) for i in range(points)]


def _analytic_table(gain: float, step_slope: float) -> SlopeTable:
    """A physically-shaped default curve.

    For a step input (``r -> 0``) the delay factor tends to ln(2) ~ 0.69 (a
    single-pole RC crossing 50%) and the output transition time to
    ``step_slope * tau``.  For slow inputs both grow linearly in ``r`` with
    slope ``gain`` (delay) and roughly ``gain`` (output slope follows the
    input).  The blend uses ``r / (1 + r)`` knees, which is the shape the
    characterized curves take.
    """
    samples = []
    for ratio in logarithmic_ratio_grid():
        delay = math.log(2.0) + gain * ratio * ratio / (1.0 + ratio)
        slope = step_slope + 0.8 * gain * ratio * ratio / (1.0 + ratio)
        samples.append((ratio, delay, slope))
    return SlopeTable.from_samples(samples)


def analytic_default_tables(kinds: Iterable[DeviceKind]) -> SlopeTableSet:
    """Uncharacterized but physically-shaped tables for the given kinds.

    These make the slope model usable out of the box; running the
    characterizer (:func:`repro.core.models.characterize.characterize_technology`)
    replaces them with fitted curves.
    """
    table_set = SlopeTableSet(source="analytic-default")
    for kind in kinds:
        if kind is DeviceKind.NMOS_DEP:
            # The depletion load's gate is tied to its source: the input
            # slope reaches it only indirectly, so the curve is flatter.
            rise = _analytic_table(gain=0.15, step_slope=2.75)
            table_set.add(kind, Transition.RISE, rise)
        else:
            fall = _analytic_table(gain=0.40, step_slope=2.75)
            rise = _analytic_table(gain=0.40, step_slope=2.75)
            table_set.add(kind, Transition.FALL, fall)
            table_set.add(kind, Transition.RISE, rise)
    return table_set
