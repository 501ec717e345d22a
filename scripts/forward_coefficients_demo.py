#!/usr/bin/env python3
"""Reconstruct half-line coefficients from the semicircle measure plus a few
off-band atoms and print how fast they settle back to the free values."""

from reflectionless import (AcPiece, CompactSet, HerglotzRep, SpectralMeasure,
                            coefficients_csv, free_krein,
                            reconstruct_coefficients, reconstruction_report)

ATOMS = ((2.5, 0.3), (3.0, 0.3), (-2.7, 0.3))

if __name__ == "__main__":
    rep = HerglotzRep(free_krein(2.0))
    nu = SpectralMeasure(rep, (AcPiece(-2.0, 2.0, 0.5),), ATOMS)
    rec = reconstruct_coefficients(nu, 30)
    print(coefficients_csv(rec), end="")
    summary = reconstruction_report(nu, rec)
    print(f"# a0 = {summary['a0']:.12f}  mass = {summary['mass']:.12f}")
    for rule in summary["rules"]:
        print(f"# {rule['interval']}: {rule['rule']} rule, {rule['nodes']} nodes, "
              f"certified against {rule['certifying_nodes']}")
    print(f"# certificate {summary['certificate']:.2e}, distance to the certified "
          f"reconstruction {summary['max_coefficient_error']:.2e}")
