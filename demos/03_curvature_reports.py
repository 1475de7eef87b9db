"""Exact curvature of the classified metrics: flat classes and Ricci solitons.

The curvature of a left-invariant metric is rational arithmetic on structure
constants, so flatness is an exact yes/no: the Riemann tensor either
vanishes identically or it does not.  The `heisflag.curvature` docstring
proves when it does: g_00 = 0, and either e_0's row of the Gram matrix
vanishes on the center or the {a, b} block of its inverse is zero.  So four
taxonomy rows -- 13, 17, 20, 21 -- are flat wherever they occur, and
everything else is curved; `curvature_report` reads the verdict off that
theorem without building the tensor.  In the Lorentzian column all six
classes are algebraic Ricci solitons and only the flat one is Einstein.
"""

from heisflag import (
    HeisenbergAlgebra,
    admissible_classes,
    curvature_report,
    representative,
)
from heisflag.linalg import identity

alg = HeisenbergAlgebra(4)

print("curvature of the Riemannian metric diag(1,1,1,1) on n = 4:")
report = curvature_report(alg, identity(4))
print("  ricci diagonal:", [str(report.ricci[i][i]) for i in range(4)])
print("  scalar curvature:", report.scalar_curv)
c, d = report.soliton
print(f"  soliton constant c = {c}, derivation part nonzero: "
      f"{any(x != 0 for row in d for x in row)}")

print("\nflat classes per signature (expected: 13, 17, 20, 21 where admissible):")
for p, q in [(3, 1), (2, 2), (3, 2), (3, 3)]:
    algn = HeisenbergAlgebra(p + q)
    flat = [row.id for row in admissible_classes(p, q).classes
            if curvature_report(algn, representative(row.id, p, q)).is_flat]
    print(f"  ({p},{q}): flat classes {flat}")

print("\nthe Lorentzian column (3, 1) in detail:")
for row in admissible_classes(3, 1).classes:
    rpt = curvature_report(alg, representative(row.id, 3, 1))
    c, d = rpt.soliton
    kind = ("flat, Einstein" if rpt.is_flat
            else "Ricci soliton, not Einstein")
    print(f"  class {row.id:>2}: scalar {str(rpt.scalar_curv):>4}, "
          f"c = {str(c):>4}  ({kind})")
