"""Exact curvature of left-invariant metrics on h3 + R^(n-3).

For a left-invariant metric every geometric quantity is rational arithmetic
on the Lie algebra.  Its one bracket is [x, y] = omega(x, y) e_0, with
omega(e_a, e_b) = -omega(e_b, e_a) = 1 for a, b = n-2, n-1 and zero
otherwise.  With K e_a = G^{-1} e_b, K e_b = -G^{-1} e_a and K = 0 on the
other basis vectors, <Kx, z> = omega(x, z).  Write h = G e_0, so
h(x) = <x, e_0>.  The Koszul formula gives

    nabla_x y = (omega(x, y) e_0 - h(y) Kx - h(x) Ky) / 2,

so nabla_i e_j vanishes unless i or j is a or b: 4n - 4 of the n^2 pairs.

The curvature tensor R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z
- nabla_[x,y] z follows in closed form.  K e_0 = 0 and h(Ky) =
omega(y, e_0) = 0 give

    nabla_x e_0 = -g_00 Kx / 2,   nabla_x Ky = (<Kx, Ky> e_0 - h(x) K^2 y) / 2,

and nabla_[x,y] z = omega(x, y) nabla_0 z = -g_00 omega(x, y) Kz / 2.  In
the difference of the two second derivatives the h(z) <Kx, Ky> e_0 terms
cancel because <Kx, Ky> is symmetric, and so do the h(x) h(y) K^2 z terms:

    R(x,y)z = g_00 (omega(x,z) Ky - omega(y,z) Kx + 2 omega(x,y) Kz) / 4
              + h(z) (h(x) K^2 y - h(y) K^2 x) / 4
              - (h(y) <Kx, Kz> - h(x) <Ky, Kz>) e_0 / 4,

where <K e_i, K e_m> = omega(e_i, K e_m).  So R(e_i, e_j) vanishes unless
i or j is a or b, and the g_00 term lives on the plane (a, b) alone, where
it is 3 g_00 K e_k / 4 for k = a, b.  `riemann` builds this tensor, and
`is_flat` asks for exact vanishing of every entry; there is no tolerance
anywhere.

A metric is an algebraic Ricci soliton when its Ricci operator
R = G^{-1} Ric equals c Id + D with D a derivation.  D is a derivation iff

    D[r][0] = 0 for r >= 1,   D[a][i] = D[b][i] = 0 for 1 <= i <= n-3,
    D[0][0] = D[a][a] + D[b][b],

and c is unique because Id is not a derivation.  An Einstein metric is the
case D = 0.

Every nondegenerate metric is a soliton, at every signature and n >= 4.
The trace gives Ric(y, z) = -g_00 <Ky, Kz> / 2 - tr(K^2) <y, e_0><z, e_0> / 4
with tr(K^2) = -2 delta, delta = g^aa g^bb - (g^ab)^2.  With Q the matrix
of <Ky, Kz> (Q_aa = g^bb, Q_ab = Q_ba = -g^ab, Q_bb = g^aa), which is
-G K^2,

    Ric = -g_00 Q / 2 + delta h h^T / 2,   scal = -g_00 delta / 2,
    R = g_00 K^2 / 2 + delta e_0 h^T / 2,

which is zero outside columns a, b and row 0.  So R meets the first two
conditions, and c = R[a][a] + R[b][b] - R[0][0] = -3 g_00 delta / 2 (cf.
J. Lauret, Math. Ann. 319 (2001); K. Onda, Acta Math. Hungar. 2014).

Flatness is a theorem.  Let B be the {a, b} block of G^{-1}; Q is zero
outside that block and has the entries of B there, so Q = 0 iff B = 0.  For
every n >= 4 and every signature,

    R = 0  iff  g_00 = 0 and (h_i = 0 for every i <= n-3, or B = 0).

The first branch puts e_0 in the radical of the center (h_0 = g_00).  In
the second, the 2-dimensional center-perp, whose Gram matrix in the basis
G^{-1} e_a, G^{-1} e_b is B, is totally null and so is the radical of the
center.  In the taxonomy these are rows 13, 17 and 21 (e_0 radical in the
center) and row 20 (e_0 lightlike, a 2-dimensional radical) (cf.
K. Nomizu, Osaka J. Math. 16 (1979); A. Aubert and A. Medina, Tohoku
Math. J. 55 (2003)).

Proof.  Let g_00 != 0 and R = 0.  Then Ric = 0; its (0, 0) entry is
delta g_00^2 / 2, so delta = 0, and then Q = 0 and K^2 = -G^{-1} Q = 0.
Only the g_00 term of R is left, and R(e_a, e_b) e_a = 3 g_00 K e_a / 4
!= 0, a contradiction.  So let g_00 = 0.  Lowering the closed form with
<K^2 y, w> = -Q(y, w) gives

    4 <R(x,y)z, w> = h(w) A(x,y,z) - h(z) A(x,y,w),
    A(x,y,z) = h(x) Q(y,z) - h(y) Q(x,z),

so R = 0 iff A(x, y, .) is a multiple of h for every x, y.  If B = 0, then
Q = 0 and A = 0.  If h vanishes on the center, it lives on {a, b}, and
G^{-1} h = e_0 puts (h_a, h_b) != 0 in the kernel of B.  So Q kills
(-h_b, h_a), Q = lambda h h^T, and A = 0.  Conversely let R = 0, and fix
w with h(w) = 1.  A(w, y, z) = h(z) A(w, y, w) says Q = h s^T + c h^T
with s = Q(w, .) and c = A(w, ., w).  If h_i != 0 for some i <= n-3,
row i of Q is zero (i is neither a nor b): h_i s + c_i h = 0, so s is a
multiple of h and Q = u h^T for some u.  Column i of Q gives h_i u = 0,
so Q = 0.

Both `riemann` and `curvature_report` read G once, as A = L G with `int`
entries (L the lcm of G's denominators), and take from one fraction-free
elimination of [A | e_a e_b] the two columns of A^{-1} that K needs: Ia
and Ib over P, the lcm of the pivots, so that G^{-1} e_a = L Ia / P.  A
is singular exactly when the left block has fewer than n pivots, and no
full inverse is formed.  `curvature_report` evaluates the forms above in
`int` over the one denominator 2 P^2.  With h now A e_0 (L times the h
above), a00 = A_00, Delta = Ia_a Ib_b - Ia_b^2 (so delta = L^2 Delta / P^2)
and the integer K with K e_a = Ib, K e_b = -Ia (so the true K is L K / P):

    2 P^2 Ric_ij = Delta h_i h_j - [i, j in {a, b}] a00 P q_ij,
                   q = [[Ib_b, -Ia_b], [-Ib_a, Ia_a]],
    2 P^2 scal = -a00 L Delta,   c = 3 scal,
    2 P^2 (D + c Id) = L Delta e_0 h^T + a00 L K^2,

and each numerator is divided by 2 P^2 once, by `ratio`, at the end.  It
reads flatness off the theorem without building R.  Tests check the report
against the general Koszul engine and the `Fraction` evaluation it
replaced, both in `tests/oracles.py`, and the theorem against `riemann`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .heisenberg import HeisenbergAlgebra
from .linalg import Matrix, PreconditionError, Vector, ratio

RiemannTable = tuple[tuple[tuple[Vector, ...], ...], ...]


def _read_gram(n: int, gram: Matrix) -> tuple[list[list[int]], int, tuple, tuple, int]:
    """(A, L, Ia, Ib, P) for a symmetric, nondegenerate n x n G; PreconditionError names any fault.

    G is read once, as A = L G in `int`, by `linalg.read_gram`, which checks
    it.  One elimination of [A | e_a e_b] gives columns
    a and b of A^{-1}, which are its rows a and b, as the `int` vectors Ia
    and Ib over P > 0, the lcm of the pivots; so G^{-1} e_a = L Ia / P.
    """
    rows, scale = linalg.read_gram(gram)
    if len(rows) != n:
        raise PreconditionError(f"Gram matrix must be {n}x{n}")
    try:
        columns = linalg._inverse_rows(rows, (n - 2, n - 1))
    except linalg.SingularMatrixError:
        raise PreconditionError("curvature requires a nondegenerate Gram matrix, "
                                "this one is singular")
    piv = lcm(*(p for _, p in columns))
    ia, ib = zip(*((x * (piv // p), y * (piv // p)) for (x, y), p in columns))
    return rows, scale, ia, ib, piv


def riemann(alg: HeisenbergAlgebra, gram: Matrix) -> RiemannTable:
    """Curvature tensor: entry [i][j][k] is R(e_i, e_j) e_k in basis coordinates.

    The closed form of R(e_i, e_j) e_m, summing only nonzero terms.
    """
    n = alg.n
    a, b = n - 2, n - 1
    rows, scale, ia, ib, piv = _read_gram(n, gram)
    g00, h = ratio(rows[0][0], scale), [ratio(x, scale) for x in rows[0]]
    # K e_a = G^{-1} e_b = L Ib / P and K e_b = -G^{-1} e_a; K^2 e_m;
    # <K e_i, K e_m> = omega(e_i, K e_m)
    k = {a: tuple(ratio(scale * x, piv) for x in ib), b: tuple(ratio(-scale * x, piv) for x in ia)}
    k2 = {m: linalg.combine((v[a], v[b]), (k[a], k[b])) for m, v in k.items()}
    kk = {(i, m): k[m][b] if i == a else -k[m][a] for i in k for m in k}
    zero = (0,) * n
    e0 = (1,) + zero[1:]
    out = [[(zero,) * n] * n for _ in range(n)]
    for j in k:
        for i in range(j):
            # (h(e_i) K^2 e_j - h(e_j) K^2 e_i) / 4, carried by every e_m with h(e_m) != 0;
            # K^2 e_i is zero unless i = a, j = b
            u = linalg.combine((ratio(h[i], 4), ratio(-h[j], 4) if i in k else 0), (k2[j], k2[a]))
            hu = h if any(u) else zero
            plane = []
            for m in range(n):
                v = linalg.vec_scale(hu[m], u) if hu[m] != 0 else zero
                if m in k:
                    # the plane (a, b) adds 3 g_00 K e_m / 4, and every such m an e_0 term
                    c0 = ratio(h[i] * kk[j, m] - h[j] * kk.get((i, m), 0), 4)
                    v = linalg.combine((1, ratio(3 * g00, 4) if i in k else 0, c0), (v, k[m], e0))
                plane.append(v)
            out[i][j] = tuple(plane)
            out[j][i] = tuple(v if v is zero else tuple(-x for x in v) for v in plane)
    return tuple(tuple(plane) for plane in out)


def is_flat(riem: RiemannTable) -> bool:
    """True iff every curvature entry is exactly zero."""
    return all(x == 0 for plane in riem for row in plane for v in row for x in v)


@dataclass(frozen=True)
class CurvatureReport:
    """Exact curvature data of one metric, with flatness and soliton verdicts; every
    number is canonical, an `int` where integral and a `Fraction` otherwise."""

    ricci: tuple[tuple[int | Fraction, ...], ...]
    scalar_curv: int | Fraction
    is_flat: bool
    soliton: tuple[int | Fraction, tuple[tuple[int | Fraction, ...], ...]] | None

    @property
    def is_einstein(self) -> bool:
        if self.soliton is None:
            return False
        _, d = self.soliton
        return all(x == 0 for row in d for x in row)


def curvature_report(alg: HeisenbergAlgebra, gram: Matrix,
                     check_soliton: bool = True) -> CurvatureReport:
    """Full exact curvature summary for one Gram matrix, from the closed forms.

    Evaluated in `int` over 2 P^2, with A, L, Ia, Ib and P from `_read_gram`:
    every entry is an `int` numerator N, and `ratio(N, 2 P^2)`, once per
    distinct N, is the only division.
    """
    n = alg.n
    a, b = n - 2, n - 1
    rows, scale, ia, ib, piv = _read_gram(n, gram)
    h, a00 = rows[0], rows[0][0]
    delta = ia[a] * ib[b] - ia[b] * ia[b]
    two_p2 = 2 * piv * piv
    shared: dict[int, int | Fraction] = {}  # one quotient per distinct numerator

    def over_2p2(x: int) -> int | Fraction:
        f = shared.get(x)
        if f is None:
            f = shared[x] = ratio(x, two_p2)
        return f

    # Ric = Delta h h^T - a00 P q, q = [[Ib_b, -Ia_b], [-Ib_a, Ia_a]] on {a, b}
    dh = [delta * x for x in h]
    ric = [[x * y for y in h] for x in dh]
    ap = a00 * piv
    ric[a][a] -= ap * ib[b]
    ric[a][b] += ap * ia[b]
    ric[b][a] += ap * ib[a]
    ric[b][b] -= ap * ia[a]
    scal = -a00 * scale * delta
    soliton = None
    if check_soliton:
        # D: row 0 is L Delta h, column m adds a00 L K^2 e_m (K e_a = Ib, K e_b = -Ia),
        # and the diagonal loses c = 3 scal
        d = [[scale * x for x in dh]] + [[0] * n for _ in range(n - 1)]
        s = a00 * scale
        if s:
            for r, (x, y) in enumerate(zip(ia, ib)):
                d[r][a] += s * (ib[a] * y - ib[b] * x)
                d[r][b] += s * (ia[b] * x - ia[a] * y)
        for r in range(n):
            d[r][r] -= 3 * scal
        soliton = (over_2p2(3 * scal), tuple(tuple(map(over_2p2, row)) for row in d))
    return CurvatureReport(
        ricci=tuple(tuple(map(over_2p2, row)) for row in ric),
        scalar_curv=over_2p2(scal),
        # the module docstring's flatness theorem: h zero on the center, or g_00 = 0 and B = 0
        is_flat=not any(h[:a]) or a00 == 0 and not (ia[a] or ia[b] or ib[b]),
        soliton=soliton,
    )
