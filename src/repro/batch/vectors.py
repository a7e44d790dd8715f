"""Input-vector sources for batch scenario sweeps.

A *vector* is one complete primary-input timing assignment — the same
``{node: InputSpec}`` mapping a single ``TimingAnalyzer.analyze()`` call
takes — plus a label for reports.  The sweep engine
(:mod:`repro.batch.sweep`) consumes any iterable of :class:`Vector`;
this module provides the three stock sources:

* :class:`ExplicitVectors` — a literal list (and the vector-file parser,
  :func:`load_vector_file`);
* :class:`CartesianSweep` — the cross product of per-node candidate
  timings over a base assignment;
* :class:`RandomVectors` — a seeded random sample, for differential
  testing against the reference engine.

Vector-file syntax (one scenario per line)::

    # comment / blank lines ignored
    @label  a=0 b=200p cin=1n:rise phi=0~500p/100p en=-

Each token is ``NODE=TIME`` (both edges), ``NODE=TIME:rise`` /
``NODE=TIME:fall`` (one edge), ``NODE=RISE~FALL`` (both edges at
different times — the shape of a clock phase; either side may be ``-``),
or ``NODE=-`` (static side input).  Any transitioning form takes an
optional ``/SLOPE`` suffix giving that input's transition time.  Times
accept engineering suffixes (``2n``, ``500p``).  The optional leading
``@label`` names the scenario; unlabeled lines are named ``v0``, ``v1``…
by position.

:func:`format_timing_token` / :func:`dump_vector_file` write the same
grammar back out, losslessly — the conformance shrinker
(:mod:`repro.verify`) depends on that round trip for its reproducer
artifacts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from ..core.timing import InputSpec
from ..errors import SweepError
from ..units import parse_value

__all__ = [
    "Vector",
    "VectorSource",
    "ExplicitVectors",
    "CartesianSweep",
    "RandomVectors",
    "parse_timing_token",
    "parse_vector_line",
    "load_vector_file",
    "format_timing_token",
    "format_vector_line",
    "dump_vector_file",
    "vector_delta",
    "pair_deltas",
    "greedy_hamming_order",
    "order_vectors",
    "VECTOR_ORDERS",
]

#: Orders :func:`order_vectors` understands (also the CLI's ``--order``).
VECTOR_ORDERS = ("given", "gray", "greedy")


@dataclass(frozen=True)
class Vector:
    """One labeled input scenario."""

    label: str
    inputs: Mapping[str, InputSpec]


def _parse_time(value: str, token: str) -> float:
    try:
        return parse_value(value)
    except Exception as exc:
        raise SweepError(f"bad time {value!r} in {token!r}: {exc}") from None


def parse_timing_token(token: str) -> Tuple[str, InputSpec]:
    """``name=TIME``, ``name=TIME:rise``, ``name=TIME:fall``,
    ``name=RISE~FALL`` or ``name=-``; transitioning forms take an
    optional ``/SLOPE`` suffix."""
    if "=" not in token:
        raise SweepError(f"bad timing token {token!r}; expected name=TIME")
    name, value = token.split("=", 1)
    name = name.strip()
    value = value.strip()
    if not name:
        raise SweepError(f"bad timing token {token!r}; empty node name")
    if value == "-":
        return name, InputSpec(arrival_rise=None, arrival_fall=None)
    slope = 0.0
    if "/" in value:
        value, slope_text = value.rsplit("/", 1)
        try:
            slope = parse_value(slope_text)
        except Exception as exc:
            raise SweepError(
                f"bad slope {slope_text!r} in {token!r}: {exc}") from None
        if not value or value == "-":
            raise SweepError(
                f"slope on static token {token!r} is meaningless")
    if "~" in value:
        rise_text, fall_text = value.split("~", 1)
        rise = None if rise_text == "-" else _parse_time(rise_text, token)
        fall = None if fall_text == "-" else _parse_time(fall_text, token)
        return name, InputSpec(arrival_rise=rise, arrival_fall=fall,
                               slope=slope)
    edge = "both"
    if ":" in value:
        value, edge = value.rsplit(":", 1)
        if edge not in ("rise", "fall"):
            raise SweepError(
                f"bad edge tag {edge!r} in {token!r}; use :rise or :fall")
    time = _parse_time(value, token)
    if edge == "rise":
        return name, InputSpec(arrival_rise=time, arrival_fall=None,
                               slope=slope)
    if edge == "fall":
        return name, InputSpec(arrival_rise=None, arrival_fall=time,
                               slope=slope)
    return name, InputSpec(arrival_rise=time, arrival_fall=time, slope=slope)


def format_timing_token(name: str, spec: InputSpec) -> str:
    """The exact inverse of :func:`parse_timing_token`.

    Times and slopes are written as ``repr(float)`` — full precision, so
    ``parse_timing_token(format_timing_token(n, s)) == (n, s)`` holds
    bit-for-bit (the reproducer round-trip tests pin this down).
    """
    rise, fall = spec.arrival_rise, spec.arrival_fall
    if rise is None and fall is None:
        return f"{name}=-"
    if rise is not None and fall is not None:
        times = repr(rise) if rise == fall else f"{rise!r}~{fall!r}"
    elif rise is not None:
        times = f"{rise!r}:rise"
    else:
        times = f"{fall!r}:fall"
    slope = f"/{spec.slope!r}" if spec.slope else ""
    return f"{name}={times}{slope}"


def format_vector_line(vector: Vector) -> str:
    """One :class:`Vector` as a vector-file line (label included)."""
    tokens = [format_timing_token(name, spec)
              for name, spec in sorted(vector.inputs.items())]
    return " ".join([f"@{vector.label}"] + tokens)


def dump_vector_file(vectors: Iterable[Vector], path: str,
                     header: str = "") -> None:
    """Write *vectors* as a vector file :func:`load_vector_file` reads
    back identically (labels, times, edges, and slopes all survive)."""
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    lines.extend(format_vector_line(vector) for vector in vectors)
    try:
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise SweepError(f"cannot write vector file: {exc}") from None


def with_default_slope(spec: InputSpec, slope: float) -> InputSpec:
    """Apply *slope* to a spec that has transitioning edges and no slope."""
    if slope <= 0.0 or spec.slope:
        return spec
    if spec.arrival_rise is None and spec.arrival_fall is None:
        return spec
    return InputSpec(arrival_rise=spec.arrival_rise,
                     arrival_fall=spec.arrival_fall, slope=slope)


def parse_vector_line(line: str, position: int,
                      default_slope: float = 0.0) -> Vector:
    """One vector-file line (already stripped of comments) → :class:`Vector`."""
    tokens = line.split()
    label = f"v{position}"
    if tokens and tokens[0].startswith("@"):
        label = tokens[0][1:]
        tokens = tokens[1:]
        if not label:
            raise SweepError(f"empty @label on vector line {line!r}")
    if not tokens:
        raise SweepError(f"vector line {line!r} has no timing tokens")
    inputs: Dict[str, InputSpec] = {}
    for token in tokens:
        name, spec = parse_timing_token(token)
        if name in inputs:
            raise SweepError(f"duplicate node {name!r} in vector {label!r}")
        inputs[name] = with_default_slope(spec, default_slope)
    return Vector(label=label, inputs=inputs)


def load_vector_file(path: str,
                     default_slope: float = 0.0) -> "ExplicitVectors":
    """Parse a vector file into an :class:`ExplicitVectors` source."""
    vectors: List[Vector] = []
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise SweepError(f"cannot read vector file: {exc}") from None
    labels: Dict[str, Tuple[int, int]] = {}
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vector = parse_vector_line(line, len(vectors),
                                       default_slope=default_slope)
        except SweepError as exc:
            raise SweepError(str(exc), filename=path, line=number) from None
        previous = labels.get(vector.label)
        if previous is not None:
            prev_index, prev_line = previous
            raise SweepError(
                f"duplicate vector label {vector.label!r}: vector "
                f"{len(vectors)} (line {number}) collides with vector "
                f"{prev_index} (line {prev_line})",
                filename=path, line=number)
        labels[vector.label] = (len(vectors), number)
        vectors.append(vector)
    if not vectors:
        raise SweepError(f"vector file {path!r} contains no vectors")
    return ExplicitVectors(vectors)


class VectorSource:
    """Iterable of :class:`Vector` — the sweep engine's input contract."""

    def vectors(self) -> Iterator[Vector]:  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self) -> Iterator[Vector]:
        return self.vectors()


@dataclass
class ExplicitVectors(VectorSource):
    """A literal scenario list."""

    items: List[Vector] = field(default_factory=list)

    @classmethod
    def from_mappings(cls, scenarios: Iterable[Mapping[str, object]],
                      prefix: str = "v") -> "ExplicitVectors":
        """Wrap raw ``{node: InputSpec | time}`` mappings with labels."""
        items = []
        for position, inputs in enumerate(scenarios):
            normalized = {name: _as_spec(spec)
                          for name, spec in inputs.items()}
            items.append(Vector(label=f"{prefix}{position}",
                                inputs=normalized))
        return cls(items)

    def vectors(self) -> Iterator[Vector]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class CartesianSweep(VectorSource):
    """Cross product of per-node timing candidates over a base vector.

    ``axes`` maps node names to candidate :class:`InputSpec` (or bare
    times); ``base`` supplies every other input.  Vectors are emitted in
    row-major order of the axes' declaration, labeled with the axis
    values (``a=0,b=1e-09``).  An axis with two values that print alike
    that way (a slope step, or times equal to six digits) labels all its
    values with their exact timing-token text (``a=0.0/1e-10``).

    The base and every axis value are normalized once, when
    :meth:`vectors` starts, so each vector shares its spec objects with
    the base and the axes: a bad value raises before the first vector.
    """

    base: Mapping[str, object]
    axes: Mapping[str, List[object]]

    def _shape(self) -> Tuple[List[str], List[int]]:
        names = list(self.axes)
        if not names:
            raise SweepError("cartesian sweep needs at least one axis")
        for name in names:
            if not self.axes[name]:
                raise SweepError(f"sweep axis {name!r} has no values")
        return names, [len(self.axes[name]) for name in names]

    def vectors(self) -> Iterator[Vector]:
        names, radices = self._shape()
        base = {name: _as_spec(spec) for name, spec in self.base.items()}
        axes = [_axis_values(name, self.axes[name]) for name in names]
        counters = [0] * len(names)
        while True:
            inputs = base.copy()
            parts = []
            for name, values, position in zip(names, axes, counters):
                spec, part = values[position]
                inputs[name] = spec
                parts.append(part)
            yield Vector(label=",".join(parts), inputs=inputs)
            for index in reversed(range(len(names))):
                counters[index] += 1
                if counters[index] < radices[index]:
                    break
                counters[index] = 0
            else:
                return

    def gray_permutation(self) -> List[int]:
        """Row-major positions in mixed-radix reflected-Gray visit order.

        Consecutive entries name vectors that differ in exactly **one**
        axis (by one step) — the minimum possible input Hamming delta
        between neighbours, which is what makes Gray ordering the ideal
        feed for the delta sweep engine.
        """
        _names, radices = self._shape()
        total = 1
        for radix in radices:
            total *= radix
        permutation = []
        for index in range(total):
            digits = _gray_digits(index, radices)
            position = 0
            for digit, radix in zip(digits, radices):
                position = position * radix + digit
            permutation.append(position)
        return permutation


@dataclass
class RandomVectors(VectorSource):
    """A seeded random sample of arrival-time assignments.

    Every node in ``input_names`` gets both edges at an arrival drawn
    uniformly from ``[0, span]`` (quantized to ``resolution`` so runs are
    human-readable), with the given ``slope``.  The same seed always
    produces the same vectors — **platform-deterministically**: draws go
    through a private ``random.Random(seed)`` (never the process-global
    RNG, which other code could have advanced) and are integer grid
    picks, so there is no float-rounding drift across OS/architecture.
    ``tests/test_delta_sweep.py`` pins exact values for a fixed seed.
    """

    input_names: List[str]
    count: int
    seed: int = 0
    span: float = 1e-9
    slope: float = 0.0
    resolution: float = 1e-12

    def vectors(self) -> Iterator[Vector]:
        if self.count <= 0:
            raise SweepError(f"random sample size {self.count} must be >= 1")
        if self.span < 0:
            raise SweepError(f"negative random span {self.span!r}")
        rng = random.Random(self.seed)
        steps = max(int(round(self.span / self.resolution)), 0)
        for position in range(self.count):
            inputs: Dict[str, InputSpec] = {}
            for name in self.input_names:
                time = rng.randint(0, steps) * self.resolution if steps \
                    else 0.0
                inputs[name] = InputSpec(arrival_rise=time,
                                         arrival_fall=time,
                                         slope=self.slope)
            yield Vector(label=f"r{position}", inputs=inputs)

    def __len__(self) -> int:
        return max(self.count, 0)


def _gray_digits(index: int, radices: List[int]) -> List[int]:
    """The *index*-th tuple of the mixed-radix reflected Gray code.

    Standard reflection: within odd-numbered blocks of a digit, the less
    significant digits run backwards, so advancing ``index`` by one
    changes exactly one digit by ±1.
    """
    total = 1
    for radix in radices:
        total *= radix
    digits = []
    remainder = index
    for radix in radices:
        total //= radix
        digit = remainder // total
        remainder %= total
        if digit % 2 == 1:
            remainder = total - 1 - remainder
        digits.append(digit)
    return digits


# ---------------------------------------------------------------------------
# Delta-minimizing vector ordering
# ---------------------------------------------------------------------------

def vector_delta(a: Vector, b: Vector) -> int:
    """Input Hamming distance: how many inputs have a different spec.

    This is exactly the number of primary inputs
    :meth:`~repro.core.timing.TimingAnalyzer.analyze_delta` will seed —
    the smaller it is between consecutive sweep vectors, the smaller the
    dirty cone each scenario re-evaluates.
    """
    count = 0
    others = b.inputs
    for name, spec in a.inputs.items():
        # Identity first: sweep vectors share their spec objects, and an
        # identical object is an equal spec.
        other = others.get(name)
        if other is not spec and other != spec:
            count += 1
    for name in others:
        if name not in a.inputs:
            count += 1
    return count


def pair_deltas(vectors: List[Vector]) -> List[int]:
    """Hamming delta between each vector and its predecessor (index 0
    has no predecessor and reports 0 — a cold start)."""
    deltas = [0] * len(vectors)
    for index in range(1, len(vectors)):
        deltas[index] = vector_delta(vectors[index - 1], vectors[index])
    return deltas


def greedy_hamming_order(vectors: List[Vector]) -> List[int]:
    """Nearest-neighbour ordering by input Hamming distance.

    Starts at the first vector and repeatedly appends the closest
    unvisited one (ties broken by original position, so the result is
    fully deterministic).  O(n²) spec comparisons — fine for the
    hundreds-of-vectors sweeps this engine targets.
    """
    count = len(vectors)
    if count <= 2:
        return list(range(count))
    remaining = set(range(1, count))
    order = [0]
    current = 0
    while remaining:
        nearest = min(remaining, key=lambda i: (
            vector_delta(vectors[current], vectors[i]), i))
        order.append(nearest)
        remaining.discard(nearest)
        current = nearest
    return order


def order_vectors(vectors: List[Vector], order: str,
                  source: object = None) -> List[int]:
    """Analysis-order permutation of *vectors* (original positions).

    * ``"given"`` — the source's own order;
    * ``"gray"`` — mixed-radix reflected Gray code when *source* is a
      :class:`CartesianSweep` (adjacent vectors differ in one axis);
      other sources have no axis structure, so this falls back to
      ``"greedy"``;
    * ``"greedy"`` — nearest-neighbour Hamming ordering.

    Labels stay attached to their vectors, and the sweep engine restores
    original order in reports — ordering only changes *analysis* order.
    """
    if order not in VECTOR_ORDERS:
        raise SweepError(
            f"unknown vector order {order!r} (expected one of "
            f"{', '.join(VECTOR_ORDERS)})")
    if order == "given":
        return list(range(len(vectors)))
    if order == "gray":
        if isinstance(source, CartesianSweep):
            permutation = source.gray_permutation()
            if len(permutation) == len(vectors):
                return permutation
        order = "greedy"
    return greedy_hamming_order(vectors)


def _as_spec(value: object) -> InputSpec:
    if isinstance(value, InputSpec):
        return value
    if isinstance(value, (int, float)):
        return InputSpec(arrival_rise=float(value),
                         arrival_fall=float(value))
    raise SweepError(f"bad input spec {value!r}; expected InputSpec or time")


def _axis_values(name: str, values: List[object]
                 ) -> List[Tuple[InputSpec, str]]:
    """Each value of axis *name* as its spec and its ``name=value``
    label part: the short :func:`_axis_label`, or, when two of the
    axis's short labels collide, the exact right-hand side of
    :func:`format_timing_token` for every value of the axis (equal specs
    still share a label)."""
    specs = [_as_spec(value) for value in values]
    labels = [_axis_label(value) for value in values]
    if len(set(labels)) < len(labels):
        labels = [format_timing_token(name, spec)[len(name) + 1:]
                  for spec in specs]
    return [(spec, f"{name}={label}") for spec, label in zip(specs, labels)]


def _axis_label(value: object) -> str:
    if isinstance(value, InputSpec):
        rise = "-" if value.arrival_rise is None else f"{value.arrival_rise:g}"
        fall = "-" if value.arrival_fall is None else f"{value.arrival_fall:g}"
        return rise if rise == fall else f"{rise}r/{fall}f"
    return f"{float(value):g}"
