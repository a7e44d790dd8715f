#!/usr/bin/env python
"""Regenerate the characterized tables for a technology.

Shows the characterization methodology of the paper end to end: reference
fixtures are simulated with the analog engine across a logarithmic grid of
slope ratios, static effective resistances are fitted from step inputs,
and the fitted technology is printed and (optionally) written to JSON so
it can be reloaded without re-running the fits.  Written for a built-in
technology, the file is the one shipped in ``repro/tech/characterized/``.

Run:  python examples/characterize_tech.py [nmos|cmos] [output.json]
"""

import sys

from repro import NMOS4, CMOS3
from repro.core.models import fit_technology
from repro.core.models.characterize import fixtures_for, table_summary
from repro.tech import load_technology, save_technology


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "cmos"
    output = sys.argv[2] if len(sys.argv) > 2 else None
    base = NMOS4 if which == "nmos" else CMOS3

    print(f"technology: {base.name}")
    print(base.describe())
    print(f"\nfixtures: "
          + ", ".join(f"{f.kind.name}/{f.transition.value}"
                      for f in fixtures_for(base)))

    print("\nfitting (one transient per grid point per fixture) ...")
    fitted = fit_technology(base)

    print()
    print(table_summary(fitted))

    print("\nfitted static resistances (square device):")
    for (kind, transition), entry in sorted(
            fitted.static_resistance.items(),
            key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        print(f"  {kind.name:9s} {transition.value:4s} "
              f"{entry.r_square / 1e3:9.2f} kOhm/sq")

    if output:
        save_technology(fitted, output)
        print(f"\ntechnology written to {output}")
        # Demonstrate the reload path.
        reloaded = load_technology(output)
        print(f"reload check: {len(reloaded.slope_tables.keys())} tables, "
              f"source {reloaded.slope_tables.source!r}, "
              f"equal to the fit: {reloaded == fitted}")


if __name__ == "__main__":
    main()
