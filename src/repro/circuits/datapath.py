"""Datapath structures: decoders and shift registers.

Used by the runtime-scaling experiment (T4) to grow transistor counts
past what the analog simulator can reasonably chew on — the same argument
the paper makes for switch-level analysis of full chips.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import NetlistError
from ..netlist import Network
from ..tech import Technology
from .primitives import Gates


def decoder(tech: Technology, address_bits: int,
            name: Optional[str] = None) -> Network:
    """A ``k`` → ``2^k`` AND-plane decoder.

    Ports: ``a0..a{k-1}`` → ``y0..y{2^k-1}``.  Internally each address bit
    gets a complement inverter (``a0n..``), and each output is a NAND of
    the appropriate literals followed by an inverter.
    """
    if address_bits < 1:
        raise NetlistError("need at least one address bit")
    if address_bits > 8:
        raise NetlistError("decoder limited to 8 address bits (256 outputs)")
    net = Network(tech, name=name or f"decoder{address_bits}")
    gates = Gates(net)
    addresses = [f"a{i}" for i in range(address_bits)]
    for a in addresses:
        gates.inverter(a, f"{a}n")
    for word in range(2 ** address_bits):
        literals = [
            addresses[i] if (word >> i) & 1 else f"{addresses[i]}n"
            for i in range(address_bits)
        ]
        if len(literals) == 1:
            gates.buffer(literals[0], f"y{word}")
        else:
            gates.nand(literals, f"y{word}.n")
            gates.inverter(f"y{word}.n", f"y{word}")
    net.mark_input(*addresses)
    return net


def shift_register(tech: Technology, stages: int, dynamic: bool = True,
                   name: Optional[str] = None) -> Network:
    """A two-phase dynamic shift register (pass transistor + inverter per
    half-stage), the classic MOS pipeline structure.

    Ports: ``din``, ``phi1``, ``phi2`` → ``q1..q{stages}``.
    """
    if stages < 1:
        raise NetlistError("need at least one stage")
    del dynamic  # only the dynamic flavour is built; flag kept for clarity
    net = Network(tech, name=name or f"shiftreg{stages}")
    gates = Gates(net)
    previous = "din"
    for i in range(1, stages + 1):
        m_in, m_mid = f"m{i}a", f"m{i}b"
        q_mid, q_out = f"qi{i}", f"q{i}"
        gates.pass_nmos("phi1", previous, m_in)
        gates.inverter(m_in, q_mid)
        gates.pass_nmos("phi2", q_mid, m_mid)
        gates.inverter(m_mid, q_out)
        previous = q_out
    net.mark_input("din", "phi1", "phi2")
    return net


def decoder_output_names(address_bits: int) -> List[str]:
    return [f"y{w}" for w in range(2 ** address_bits)]


def wide_datapath(tech: Technology, slices: int, bits: int = 8,
                  name: Optional[str] = None) -> Network:
    """*slices* independent ripple-carry adder bit-slices, side by side.

    A real datapath is many identical slices with no carries between
    them (each has its own), so every topological level of the stage
    graph holds ``slices`` × the stages of one adder — the wide, shallow
    shape of ``examples/datapath.sim``.  A lone rca32's carry chain, by
    contrast, serializes past the first couple of levels.

    Ports: ``s{k}.a{i}``, ``s{k}.b{i}``, ``s{k}.cin`` per slice ``k``.
    """
    from .adders import ripple_carry_adder

    if slices < 1:
        raise NetlistError("need at least one datapath slice")
    net = Network(tech, name=name or f"widepath{slices}x{bits}")
    one = ripple_carry_adder(tech, bits)
    for k in range(slices):
        net.merge_from(one, prefix=f"s{k}.")
    return net


def wide_datapath_input_names(slices: int, bits: int = 8) -> List[str]:
    from .adders import adder_input_names
    return [f"s{k}.{name}" for k in range(slices)
            for name in adder_input_names(bits)]
