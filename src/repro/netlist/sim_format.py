""".sim-format reader/writer.

The ``.sim`` format is the Berkeley switch-level netlist interchange format
used by the tools of the paper's era (esim, Crystal, MOSSIM).  This module
implements the commonly used subset plus one extension:

* ``e g s d [L W]`` — n-channel enhancement transistor
* ``d g s d [L W]`` — n-channel depletion transistor
* ``p g s d [L W]`` — p-channel transistor
* ``C a b value``   — capacitor, value in **femtofarads** (per tradition)
* ``R a b value``   — resistor, value in ohms
* ``i node [node…]``— (extension) declare primary inputs
* ``| …``           — comment line

Geometry is given in units of ``Technology.lambda_units`` (µm by default);
omitted geometry falls back to the technology defaults.  Supply aliases
(``vdd``/``vcc``, ``gnd``/``vss``/``0``) are normalized.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..errors import ParseError
from ..tech import DeviceKind, Technology
from ..units import parse_value
from .network import Network

_KIND_LETTERS = {
    "e": DeviceKind.NMOS_ENH,
    "n": DeviceKind.NMOS_ENH,
    "d": DeviceKind.NMOS_DEP,
    "p": DeviceKind.PMOS,
}


def loads(text: str, tech: Technology, name: str = "sim",
          filename: str = "<string>") -> Network:
    """Parse ``.sim`` text into a :class:`~repro.netlist.Network`."""
    network = Network(tech, name=name)
    scale = tech.lambda_units
    # A netlist repeats a few geometry and element values many times:
    # each distinct token is parsed once.  A malformed token is never
    # stored, so the parse fails where it first occurs, with
    # parse_value's own message and that line's location.
    values: Dict[str, float] = {}

    def value(token: str) -> float:
        parsed = values.get(token)
        if parsed is None:
            parsed = values[token] = parse_value(token)
        return parsed

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "|#":
            continue
        fields = line.split()
        code = fields[0].lower()
        try:
            if code in _KIND_LETTERS:
                _parse_transistor(network, code, fields, scale, value,
                                  filename, lineno)
            elif code == "c":
                _expect(len(fields) == 4, "C needs: C a b value", filename, lineno)
                network.add_capacitor(fields[1], fields[2],
                                      value(fields[3]) * 1e-15)
            elif code == "r":
                _expect(len(fields) == 4, "R needs: R a b value", filename, lineno)
                network.add_resistor(fields[1], fields[2], value(fields[3]))
            elif code == "i":
                _expect(len(fields) >= 2, "i needs at least one node", filename, lineno)
                for node in fields[1:]:
                    network.add_node(node)
                network.mark_input(*fields[1:])
            else:
                raise ParseError(f"unknown record type {fields[0]!r}",
                                 filename, lineno)
        except ParseError as exc:
            if exc.line:
                raise
            raise ParseError(str(exc), filename, lineno) from None
        except Exception as exc:  # re-wrap construction errors with location
            raise ParseError(str(exc), filename, lineno) from exc
    return network


def load(path: str, tech: Technology) -> Network:
    """Parse a ``.sim`` file from disk.

    A missing or unreadable file raises :class:`ParseError` naming the
    path — CLI callers turn that into a clean exit-2 diagnostic instead
    of an ``OSError`` traceback.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read netlist {path!r}: {exc}") from exc
    return loads(text, tech, name=path, filename=path)


def dumps(network: Network) -> str:
    """Serialize a network back to ``.sim`` text (lossless for the subset
    this module understands, except merged grounded capacitors which come
    back as caps to gnd).

    Values are written with 12 significant digits — enough that the
    parse → dump → parse cycle reproduces geometries and element values
    to better than 1e-9 relative, which keeps re-analyzed reproducer
    netlists (:mod:`repro.verify`) on the same arrivals.
    """
    scale = network.tech.lambda_units
    lines: List[str] = [f"| {network.summary()}"]
    inputs = [n.name for n in network.inputs()]
    if inputs:
        lines.append("i " + " ".join(sorted(inputs)))
    for device in network.transistors:
        letter = {
            DeviceKind.NMOS_ENH: "e",
            DeviceKind.NMOS_DEP: "d",
            DeviceKind.PMOS: "p",
        }[device.kind]
        lines.append(
            f"{letter} {device.gate} {device.source} {device.drain} "
            f"{device.length / scale:.12g} {device.width / scale:.12g}"
        )
    for res in network.resistors:
        lines.append(f"R {res.node_a} {res.node_b} {res.resistance:.12g}")
    for cap in network.capacitors:
        lines.append(
            f"C {cap.node_a} {cap.node_b} {cap.capacitance / 1e-15:.12g}")
    # Sorted by name so the text is independent of node creation order
    # (parsing re-creates nodes in line order, which would otherwise make
    # dump → parse → dump shuffle these lines).
    for node in sorted(network.signal_nodes, key=lambda n: n.name):
        if node.capacitance > 0:
            lines.append(
                f"C {node.name} gnd {node.capacitance / 1e-15:.12g}")
    return "\n".join(lines) + "\n"


def dump(network: Network, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(network))


def _expect(condition: bool, message: str, filename: str, lineno: int) -> None:
    if not condition:
        raise ParseError(message, filename, lineno)


def _parse_transistor(network: Network, code: str, fields: List[str],
                      scale: float, value: Callable[[str], float],
                      filename: str, lineno: int) -> None:
    if len(fields) not in (4, 6):
        raise ParseError(
            f"{code} needs: {code} gate source drain [length width]",
            filename, lineno)
    kind = _KIND_LETTERS[code]
    length: Optional[float] = None
    width: Optional[float] = None
    if len(fields) == 6:
        length = value(fields[4]) * scale
        width = value(fields[5]) * scale
    network.add_transistor(kind, fields[1], fields[2], fields[3],
                           width=width, length=length)
