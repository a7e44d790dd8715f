"""Engineering-unit helpers.

Circuit people write ``2.5k``, ``10u``, ``0.05p``; this module converts such
strings to floats and formats floats back into engineering notation.  All
internal quantities in :mod:`repro` are plain SI floats (ohms, farads,
seconds, volts, metres); these helpers only live at the I/O boundary
(netlist parsers, reports).
"""

from __future__ import annotations

import math

from .errors import ParseError

#: SPICE-style scale suffixes, longest first so ``meg`` wins over ``m``.
_SUFFIXES = [
    ("meg", 1e6),
    ("mil", 25.4e-6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
    ("a", 1e-18),
]

_FORMAT_STEPS = [
    (1e12, "T"),
    (1e9, "G"),
    # SPICE tradition: "M" means milli, so a megaunit must be spelled out.
    (1e6, "meg"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
]


def parse_value(text: str) -> float:
    """Parse a SPICE-style number such as ``4.7k``, ``100n`` or ``1e-9``.

    Trailing unit letters after the scale suffix are ignored, as in SPICE
    (``10pF`` == ``10p``).  Raises :class:`~repro.errors.ParseError` on
    malformed input, and on a value too large to represent (``1e400``).
    """
    token = text.strip().lower()
    if not token:
        raise ParseError("empty numeric value")
    # Split the leading numeric part from any suffix.
    end = 0
    seen_digit = False
    while end < len(token):
        ch = token[end]
        if ch.isdigit():
            seen_digit = True
            end += 1
        elif ch in "+-.":
            end += 1
        elif ch == "e" and seen_digit and end + 1 < len(token) and (
            token[end + 1].isdigit() or token[end + 1] in "+-"
        ):
            end += 1
        else:
            break
    number, suffix = token[:end], token[end:]
    if not number or not seen_digit:
        raise ParseError(f"malformed numeric value {text!r}")
    try:
        value = float(number)
    except ValueError as exc:
        raise ParseError(f"malformed numeric value {text!r}") from exc
    if suffix:
        for name, scale in _SUFFIXES:
            if suffix.startswith(name):
                # Anything after the scale must be unit letters ("pF",
                # "kohm"), never digits ("1k2" is not a number here).
                trailing = suffix[len(name):]
                if trailing and not trailing.isalpha():
                    raise ParseError(f"malformed numeric value {text!r}")
                value *= scale
                break
        else:
            # Unknown suffix letters are unit names ("v", "ohm", "hz"):
            # scale of 1.
            if not suffix.isalpha():
                raise ParseError(f"malformed numeric value {text!r}")
    if not math.isfinite(value):
        raise ParseError(f"numeric value {text!r} is out of range")
    return value


def format_value(value: float, unit: str = "", digits: int = 4) -> str:
    """Format *value* in engineering notation: ``format_value(2.2e-12, 'F')``
    returns ``'2.2pF'``.
    """
    if value == 0:
        return f"0{unit}"
    magnitude = abs(value)
    for scale, prefix in _FORMAT_STEPS:
        if magnitude >= scale:
            scaled = value / scale
            text = f"{scaled:.{digits}g}"
            return f"{text}{prefix}{unit}"
    # Smaller than atto: fall back to scientific notation.
    return f"{value:.{digits}g}{unit}"
