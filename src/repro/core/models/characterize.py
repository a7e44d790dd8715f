"""Characterization: fit static resistances and slope tables to the
reference simulator.

This reproduces the paper's methodology: the slope model's tables are not
derived analytically but *fitted*, once per technology, by simulating small
reference fixtures with a circuit simulator and sweeping the input
transition time over decades of slope ratio.

Fixtures (per table key):

=====================  ===========================================
``(NMOS_ENH, FALL)``   inverter, rising input, falling output
``(PMOS, RISE)``       CMOS inverter, falling input, rising output
``(NMOS_DEP, RISE)``   nMOS inverter, falling input, rising output
                       (the depletion load pulls the node up)
``(NMOS_ENH, RISE)``   nMOS pass device (gate at Vdd) passing a
                       rising edge — threshold-degraded level
``(PMOS, FALL)``       pMOS pass device (gate at GND) passing a
                       falling edge
=====================  ===========================================

The static resistance for each key is fitted so ``delay = R * C`` is exact
for a step input on the fixture; the slope table's ``delay_factor`` is then
1.0 at ratio → 0 by construction (up to measurement noise).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...errors import TechnologyError
from ...netlist import Network
from ...tech import (
    CHARACTERIZED_DIR,
    TECHNOLOGIES,
    DeviceKind,
    SlopeTable,
    SlopeTableSet,
    StaticResistance,
    Technology,
    Transition,
    load_technology,
    logarithmic_ratio_grid,
    technology_to_dict,
)
from ...tech import cmos3 as _cmos
from ...tech import nmos4 as _nmos

#: Characterized technologies keyed on content: the sorted-key JSON of
#: the technology and the ratio grid.
_CACHE: Dict[Tuple[str, Tuple[float, ...]], Technology] = {}


@dataclass(frozen=True)
class Fixture:
    """One characterization circuit.

    ``build`` returns ``(network, load_cap_farads)``; the circuit's ports
    are always ``in`` → ``out``.  ``reference_shape`` is the W/L of the
    device whose resistance is being fitted (to convert the fitted ohms to
    a square-device resistance).
    """

    kind: DeviceKind
    transition: Transition  # of the OUTPUT
    input_edge: Transition
    build: Callable[[Technology], Tuple[Network, float]]
    reference_shape: float  # W / L


@dataclass(frozen=True)
class CharacterizationPoint:
    """One measured sweep point (kept for inspection/benchmarks)."""

    ratio: float
    input_transition: float
    delay: float
    output_slope: float


@dataclass
class CharacterizationResult:
    """Everything measured for one table key."""

    fixture: Fixture
    static_resistance: float  # ohms, for the fixture's reference device
    tau: float
    total_cap: float
    points: List[CharacterizationPoint]

    def table(self) -> SlopeTable:
        return SlopeTable.from_samples(
            (p.ratio, p.delay / self.tau, p.output_slope / self.tau)
            for p in self.points
        )


# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------

def _cmos_inverter(tech: Technology) -> Tuple[Network, float]:
    net = Network(tech, name="char-cmos-inv")
    net.add_transistor(DeviceKind.NMOS_ENH, "in", "gnd", "out",
                       width=_cmos.NMOS_W, length=_cmos.NMOS_L)
    net.add_transistor(DeviceKind.PMOS, "in", "vdd", "out",
                       width=_cmos.PMOS_W, length=_cmos.PMOS_L)
    load = 100e-15
    net.add_capacitor("out", "gnd", load)
    net.mark_input("in")
    return net, load


def _nmos_inverter(tech: Technology) -> Tuple[Network, float]:
    net = Network(tech, name="char-nmos-inv")
    net.add_transistor(DeviceKind.NMOS_ENH, "in", "gnd", "out",
                       width=_nmos.PULLDOWN_W, length=_nmos.PULLDOWN_L)
    net.add_transistor(DeviceKind.NMOS_DEP, "out", "out", "vdd",
                       width=_nmos.LOAD_W, length=_nmos.LOAD_L)
    load = 100e-15
    net.add_capacitor("out", "gnd", load)
    net.mark_input("in")
    return net, load


class _pass_fixture:
    """Pass-gate fixture builder for *kind*.

    A class (not a closure) so characterization results — and with them
    characterized :class:`Technology` objects and any network built on
    one — stay picklable.
    """

    def __init__(self, kind: DeviceKind):
        self.kind = kind

    def __call__(self, tech: Technology) -> Tuple[Network, float]:
        kind = self.kind
        net = Network(tech, name=f"char-pass-{kind.value}")
        if tech.has_kind(DeviceKind.PMOS):
            w, l = _cmos.PASS_W, _cmos.PASS_L
        else:
            w, l = _nmos.PASS_W, _nmos.PASS_L
        gate = "vdd" if kind is not DeviceKind.PMOS else "gnd"
        net.add_transistor(kind, gate, "in", "out", width=w, length=l)
        load = 100e-15
        net.add_capacitor("out", "gnd", load)
        net.mark_input("in")
        return net, load


def fixtures_for(tech: Technology) -> List[Fixture]:
    """The characterization set appropriate to a technology."""
    out: List[Fixture] = []
    if tech.has_kind(DeviceKind.PMOS):
        out.append(Fixture(DeviceKind.NMOS_ENH, Transition.FALL,
                           Transition.RISE, _cmos_inverter,
                           _cmos.NMOS_W / _cmos.NMOS_L))
        out.append(Fixture(DeviceKind.PMOS, Transition.RISE,
                           Transition.FALL, _cmos_inverter,
                           _cmos.PMOS_W / _cmos.PMOS_L))
        out.append(Fixture(DeviceKind.NMOS_ENH, Transition.RISE,
                           Transition.RISE,
                           _pass_fixture(DeviceKind.NMOS_ENH),
                           _cmos.PASS_W / _cmos.PASS_L))
        out.append(Fixture(DeviceKind.PMOS, Transition.FALL,
                           Transition.FALL, _pass_fixture(DeviceKind.PMOS),
                           2.0 * _cmos.PASS_W / _cmos.PASS_L))
    elif tech.has_kind(DeviceKind.NMOS_DEP):
        out.append(Fixture(DeviceKind.NMOS_ENH, Transition.FALL,
                           Transition.RISE, _nmos_inverter,
                           _nmos.PULLDOWN_W / _nmos.PULLDOWN_L))
        out.append(Fixture(DeviceKind.NMOS_DEP, Transition.RISE,
                           Transition.FALL, _nmos_inverter,
                           _nmos.LOAD_W / _nmos.LOAD_L))
        out.append(Fixture(DeviceKind.NMOS_ENH, Transition.RISE,
                           Transition.RISE,
                           _pass_fixture(DeviceKind.NMOS_ENH),
                           _nmos.PASS_W / _nmos.PASS_L))
    else:
        raise TechnologyError(
            f"technology {tech.name!r} has no characterizable pullup"
        )
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _analytic_tau_guess(tech: Technology, fixture: Fixture,
                        total_cap: float) -> float:
    resistance = tech.resistance(fixture.kind, fixture.transition, 1e-6,
                                 1e-6 / fixture.reference_shape)
    return resistance * total_cap


def _measure(tech: Technology, fixture: Fixture, input_transition: float,
             tau_hint: float) -> Tuple[float, float]:
    """Simulate one edge; return (delay, output transition time)."""
    # The analog simulator (and numpy) loads only when a fit runs:
    # loading a shipped fit never needs it.
    from ...analog import delay_between, simulate, sources

    network, _ = fixture.build(tech)
    vdd = tech.vdd
    t_start = max(2.0 * tau_hint, 0.5 * input_transition)
    t_stop = t_start + input_transition + 12.0 * tau_hint
    drive = sources.edge(vdd, rising=fixture.input_edge is Transition.RISE,
                         at=t_start, transition_time=input_transition)
    result = simulate(network, {"in": drive}, t_stop=t_stop, steps=1600)
    w_in = result.waveform("in")
    w_out = result.waveform("out")
    delay = delay_between(w_in, w_out, vdd, fixture.input_edge,
                          fixture.transition)
    v0 = w_out.initial_value()
    v1 = w_out.final_value()
    low, high = min(v0, v1), max(v0, v1)
    slope = w_out.transition_time(low, high, fixture.transition, after=0.0)
    return delay, slope


def characterize_fixture(tech: Technology, fixture: Fixture,
                         ratios: Optional[List[float]] = None
                         ) -> CharacterizationResult:
    """Fit one fixture: static resistance from a step, then the ratio sweep."""
    network, _ = fixture.build(tech)
    total_cap = network.node_capacitance("out")
    tau_guess = _analytic_tau_guess(tech, fixture, total_cap)

    # Step-input fit of the static resistance (a "step" is an edge much
    # faster than the stage: ratio 1/50).
    step_delay, _ = _measure(tech, fixture, tau_guess / 50.0, tau_guess)
    if step_delay <= 0:
        raise TechnologyError(
            f"fixture {fixture.kind.name}/{fixture.transition.value}: "
            f"non-positive step delay {step_delay:g}"
        )
    resistance = step_delay / total_cap
    tau = resistance * total_cap  # == step_delay, by construction

    points: List[CharacterizationPoint] = []
    for ratio in (ratios or logarithmic_ratio_grid()):
        t_in = ratio * tau
        delay, slope = _measure(tech, fixture, t_in, tau)
        points.append(CharacterizationPoint(
            ratio=ratio, input_transition=t_in, delay=delay,
            output_slope=slope))
    return CharacterizationResult(
        fixture=fixture, static_resistance=resistance, tau=tau,
        total_cap=total_cap, points=points)


def fit_technology(tech: Technology,
                   ratios: Optional[List[float]] = None) -> Technology:
    """Return a copy of *tech* with static resistances and slope tables
    fitted against the reference simulator.  Uncached: ``repro-crystal
    characterize`` regenerates the shipped fits with it."""
    static = dict(tech.static_resistance)
    table_set = SlopeTableSet(source=f"characterized:{tech.name}")
    for fixture in fixtures_for(tech):
        result = characterize_fixture(tech, fixture, ratios)
        r_square = result.static_resistance * fixture.reference_shape
        static[(fixture.kind, fixture.transition)] = StaticResistance(r_square)
        table_set.add(fixture.kind, fixture.transition, result.table())

    # Keys not characterized (e.g. (NMOS_DEP, FALL)) inherit the analytic
    # defaults already present in `static`.
    return dataclasses.replace(tech, static_resistance=static,
                               slope_tables=table_set)


def characterize_technology(tech: Technology,
                            ratios: Optional[List[float]] = None
                            ) -> Technology:
    """Return *tech* characterized on *ratios* (default: the logarithmic
    grid), memoized on content.  A built-in technology, unchanged, on the
    default grid loads its shipped fit from :data:`CHARACTERIZED_DIR`;
    anything else is fitted by :func:`fit_technology`."""
    grid = tuple(ratios or logarithmic_ratio_grid())
    key = (json.dumps(technology_to_dict(tech), sort_keys=True), grid)
    if key not in _CACHE:
        if (tech == TECHNOLOGIES.get(tech.name)
                and grid == tuple(logarithmic_ratio_grid())):
            _CACHE[key] = load_technology(
                str(CHARACTERIZED_DIR / f"{tech.name}.json"))
        else:
            _CACHE[key] = fit_technology(tech, list(grid))
    return _CACHE[key]


def clear_cache() -> None:
    """Forget every characterized technology held in this process."""
    _CACHE.clear()


def table_summary(tech: Technology) -> str:
    """Human-readable dump of a technology's slope tables."""
    tables = tech.slope_tables
    if tables is None:
        return f"technology {tech.name}: no slope tables"
    lines = [f"technology {tech.name}: slope tables ({tables.source})"]
    for kind, transition in tables.keys():
        table = tables.get(kind, transition)
        lines.append(f"  {kind.name}/{transition.value}:")
        lines.append("    ratio     delay_f   slope_f")
        for r, d, s in zip(table.ratios, table.delay_factors,
                           table.slope_factors):
            lines.append(f"    {r:8.3f}  {d:8.3f}  {s:8.3f}")
    return "\n".join(lines)
