"""Floating-point isometry witnesses between equivalent flags.

Equality of orbit invariants is decided exactly; this module produces the
constructive half: a matrix g in O(p, q) mapping one flag onto another.
For each flag, `forms.adapted_frame` builds an exact scaled basis of the
whole space in which both flag parts occupy a fixed coefficient pattern
depending only on the invariants; this module only assembles g from two
such frames and checks it.  Frames are oriented, never rescaled:
g = C1 . diag(sqrt(m2 / m1)) . C2^{-1} does not change when a column of
either frame is scaled by a positive factor, because its norm, and so its
square root, absorbs that factor.  A frame is orthogonal with known norms,
C2^T I_pq C2 = diag(m2), so C2^{-1} = diag(m2)^{-1} C2^T I_pq and nothing
is eliminated after the frames are built.  Everything is exact until one
rounding per entry, and in `int`: each frame is scaled to `int` rows once,
`linalg.ratio` divides the norms exactly, each square root is an integer
square root at 256 fraction bits and is folded with 1 / m2 into one
integer over a common denominator, each entry of g is an `int` sum of
those, and only the finished entry is rounded to binary64 by an
`int / int` division, the module's one float division.  The module names
no `Fraction`.

Residuals are always checked: a witness outside tolerance raises instead of
being returned silently.

numpy is imported inside the three functions that build or measure a float
matrix (`_assemble`, `witness_residuals`, `subspace_distance`), never at
module level: everything else in the package is exact, so `import heisflag`
and every command but `heisflag witness` run without loading it, and a
witness without numpy raises `ImportError` when it is built.  The
`np.ndarray` annotations stay strings under `from __future__ import
annotations`.
"""

from __future__ import annotations

from math import isqrt, lcm

from . import linalg
from .forms import (
    Flag,
    FlagInvariants,
    PreconditionError,
    QuadraticSpace,
    adapted_frame,
    flag_invariants,
)

RESIDUAL_TOL = 1e-9
SQRT_BITS = 256  # fraction bits of the fixed-point square roots


class InequivalentFlagsError(PreconditionError):
    """The flags lie in different orbits; `reason` names the differing invariant."""

    def __init__(self, reason: str):
        super().__init__(f"inequivalent flags: {reason}")
        self.reason = reason


class WitnessFailureError(RuntimeError):
    """The computed witness failed its residual checks."""


def describe_inequivalence(inv1: FlagInvariants, inv2: FlagInvariants) -> str | None:
    """Name the first differing invariant, as `label value1 != value2`, or None if all agree."""
    for label, field in (("sig_big", "sig_big"), ("sig_small", "sig_small"),
                         ("dim(small cap rad big)", "dim_small_cap_rad")):
        first, second = getattr(inv1, field), getattr(inv2, field)
        if first != second:
            return f"{label} {first} != {second}"
    return None


def subspace_distance(vectors1, vectors2) -> float:
    """Max-norm difference of orthogonal projectors onto the two spans."""
    import numpy as np

    a = np.array([[float(x) for x in v] for v in vectors1], dtype=float).T
    b = np.array([[float(x) for x in v] for v in vectors2], dtype=float).T
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.max(np.abs(qa @ qa.T - qb @ qb.T)))


def _assemble(p: int, frame1, frame2) -> np.ndarray:
    """g = C1 . diag(sqrt(m2_k / m1_k)) . C2^{-1} from two adapted frames, in `int`.

    The columns of C1 and C2 are the frames' `.vectors`, m1 and m2 their
    `.norms`.  In the standard (p, q) space C2^T I_pq C2 = diag(m2), so
    C2^{-1} = diag(m2)^{-1} C2^T I_pq: row k is (I_pq c2_k)^T / m2_k, read
    off the frame with no elimination.  Each frame is scaled to `int` rows
    once, L1 C1 and L2 C2 (`linalg.scaled_to_int`).  The ratios are exact and
    positive; each square root is truncated to SQRT_BITS fraction bits by an
    integer square root t_k, and t_k / m2_k is folded into one integer w_k
    over the common denominator d = lcm(|numerator of m2_k|).  Column j of
    g is then one `int` combination of the columns of L1 C1, over
    D = d L1 L2 2^SQRT_BITS, and each finished entry is rounded to binary64
    once, by the `int / int` division of the last statement, which is
    correctly rounded as a `Fraction`'s is, so cancellation between large
    frame entries cannot contaminate it.
    """
    import numpy as np

    c1, l1 = linalg.scaled_to_int(frame1.vectors)
    c2, l2 = linalg.scaled_to_int(frame2.vectors)
    d = lcm(*(m2.numerator for m2 in frame2.norms))
    rows = []  # row k of diag(sqrt(m2 / m1)) C2^{-1}, times d L2 2^SQRT_BITS
    for c2_k, m1, m2 in zip(c2, frame1.norms, frame2.norms):
        r = linalg.ratio(m2, m1)
        if r <= 0:
            raise WitnessFailureError("adapted frames disagree on norm signs")
        w = (isqrt((r.numerator << 2 * SQRT_BITS) // r.denominator)
             * m2.denominator * (d // m2.numerator))
        rows.append([w * x if j < p else -w * x for j, x in enumerate(c2_k)])
    g_cols = [linalg.combine(coeffs, c1) for coeffs in zip(*rows)]
    den = d * l1 * l2 << SQRT_BITS
    return np.array([[x / den for x in row] for row in zip(*g_cols)])


def isometry_witness(p: int, q: int, f1: Flag, f2: Flag) -> np.ndarray:
    """A matrix g in O(p, q) with g . f2 = f1, verified numerically.

    Raises InequivalentFlagsError when the orbit invariants differ and
    WitnessFailureError when the residuals exceed RESIDUAL_TOL.
    """
    if f1.shape != f2.shape:
        raise linalg.ShapeError(f"flag shapes differ: {f1.shape} vs {f2.shape}")
    space = QuadraticSpace.standard(p, q)
    inv1 = flag_invariants(space, f1)
    inv2 = flag_invariants(space, f2)
    diff = describe_inequivalence(inv1, inv2)
    if diff is not None:
        raise InequivalentFlagsError(diff)

    g = _assemble(p, adapted_frame(space, f1), adapted_frame(space, f2))
    res = witness_residuals(p, q, g, f1, f2)
    if res["form"] > RESIDUAL_TOL:
        raise WitnessFailureError(f"form residual {res['form']:.3e} exceeds {RESIDUAL_TOL:.1e}")
    distance = max(res["small"], res["big"])
    if distance > RESIDUAL_TOL:
        raise WitnessFailureError(
            f"flag mapping distance {distance:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return g


def witness_residuals(p: int, q: int, g: np.ndarray, f1: Flag, f2: Flag) -> dict[str, float]:
    """Residual diagnostics for a candidate witness (form error and mapping distances)."""
    import numpy as np

    ipq = np.diag([1.0] * p + [-1.0] * q)
    form = float(np.max(np.abs(g.T @ ipq @ g - ipq)))
    g_small = (g @ np.array([[float(x) for x in v] for v in f2.small.basis]).T).T
    g_big = (g @ np.array([[float(x) for x in v] for v in f2.big.basis]).T).T
    return {
        "form": form,
        "small": subspace_distance(g_small, [[float(x) for x in v] for v in f1.small.basis]),
        "big": subspace_distance(g_big, [[float(x) for x in v] for v in f1.big.basis]),
    }
