"""Exact curvature of left-invariant metrics on h3 + R^(n-3).

For a left-invariant metric every geometric quantity is rational arithmetic
on the Lie algebra.  Its one bracket is [x, y] = omega(x, y) e_0, with
omega(e_a, e_b) = -omega(e_b, e_a) = 1 for a, b = n-2, n-1 and zero
otherwise.  With K e_a = G^{-1} e_b, K e_b = -G^{-1} e_a and K = 0 on the
other basis vectors, <Kx, z> = omega(x, z), and the Koszul formula gives

    nabla_x y = (omega(x, y) e_0 - <y, e_0> Kx - <x, e_0> Ky) / 2,

so nabla_i e_j vanishes unless i or j is a or b: 4n - 4 of the n^2 pairs.
The curvature tensor R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z
- nabla_[x,y] z inherits that sparsity and is antisymmetric in x, y; the
Ricci tensor is its trace.  Flatness is exact vanishing of every Riemann
entry; there is no tolerance anywhere.

A metric is an algebraic Ricci soliton when its Ricci operator
R = G^{-1} Ric equals c Id + D with D a derivation.  D is a derivation iff

    D[r][0] = 0 for r >= 1,   D[a][i] = D[b][i] = 0 for 1 <= i <= n-3,
    D[0][0] = D[a][a] + D[b][b],

so R - c Id is one iff R meets the first two conditions and
c = R[a][a] + R[b][b] - R[0][0].  That c is unique because Id is not a
derivation, so the test needs no linear solve.  An Einstein metric is the
case D = 0.

Every nondegenerate metric is a soliton, at every signature and n >= 4.
The trace gives Ric(y, z) = -g_00 <Ky, Kz> / 2 - tr(K^2) <y, e_0><z, e_0> / 4
with tr(K^2) = -2 delta, delta = g^aa g^bb - (g^ab)^2.  With h = G e_0 and
Q the matrix of <Ky, Kz> (Q_aa = g^bb, Q_ab = Q_ba = -g^ab, Q_bb = g^aa),

    Ric = -g_00 Q / 2 + delta h h^T / 2,   scal = -g_00 delta / 2,
    R = -g_00 G^{-1} Q / 2 + delta e_0 h^T / 2,

which is zero outside columns a, b and row 0.  So R meets both conditions,
and c = -3 g_00 delta / 2 (cf. J. Lauret, Math. Ann. 319 (2001); K. Onda,
Acta Math. Hungar. 2014).  Tests check `curvature_report` against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .forms import PreconditionError
from .heisenberg import HeisenbergAlgebra
from .linalg import Matrix, Vector

RiemannTable = tuple[tuple[tuple[Vector, ...], ...], ...]


@dataclass(frozen=True)
class ConnectionTable:
    """Connection coefficients: entry [i][j] is nabla_{e_i} e_j in basis coordinates."""

    gamma: tuple[tuple[Vector, ...], ...]

    @property
    def n(self) -> int:
        return len(self.gamma)

    def is_metric_compatible(self, gram: Matrix) -> bool:
        """<nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0 for every i, j, k."""
        n = self.n
        low = [[linalg.mat_vec(gram, v) for v in row] for row in self.gamma]
        return all(low[i][j][k] + low[i][k][j] == 0
                   for i in range(n) for j in range(n) for k in range(j, n))

    def is_torsion_free(self, alg: HeisenbergAlgebra) -> bool:
        n = self.n
        for i in range(n):
            for j in range(i + 1, n):
                diff = linalg.vec_sub(self.gamma[i][j], self.gamma[j][i])
                if diff != alg.bracket_basis(i, j):
                    return False
        return True


def _checked_inverse(n: int, gram: Matrix) -> Matrix:
    """G^{-1} of a symmetric n x n Gram matrix; PreconditionError names what is wrong."""
    if len(gram) != n or not linalg.is_symmetric(gram):
        raise PreconditionError(f"Gram matrix must be symmetric {n}x{n}")
    try:
        return linalg.invert(gram)
    except linalg.SingularMatrixError:
        raise PreconditionError("curvature requires a nondegenerate Gram matrix, "
                                "this one is singular")


def _connection(n: int, gram: Matrix, g_inv: Matrix) -> ConnectionTable:
    a, b = n - 2, n - 1
    h = gram[0]
    # w_j = -K e_j / 2, read off the rows of the symmetric G^{-1}
    w = {a: tuple(-x / 2 for x in g_inv[b]), b: tuple(x / 2 for x in g_inv[a])}
    half_eps = {(a, b): Fraction(1, 2), (b, a): Fraction(-1, 2)}
    zero = (Fraction(0),) * n
    table = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i not in w and j not in w:
                continue
            v = [Fraction(0)] * n
            if j in w:
                v = [x + h[i] * y for x, y in zip(v, w[j])]
            if i in w:
                v = [x + h[j] * y for x, y in zip(v, w[i])]
            v[0] += half_eps.get((i, j), 0)
            table[i][j] = tuple(v)
    return ConnectionTable(tuple(tuple(row) for row in table))


def levi_civita(alg: HeisenbergAlgebra, gram: Matrix) -> ConnectionTable:
    """The unique metric-compatible torsion-free connection, in closed form."""
    return _connection(alg.n, gram, _checked_inverse(alg.n, gram))


def _combination(terms: list[tuple[Fraction, Vector]], n: int) -> Vector:
    """Sum of c * v over the terms, skipping zero entries of v."""
    out = [Fraction(0)] * n
    for c, v in terms:
        for r, x in enumerate(v):
            if x != 0:
                out[r] += c * x
    return tuple(out)


def riemann(conn: ConnectionTable, alg: HeisenbergAlgebra) -> RiemannTable:
    """Curvature tensor: entry [i][j][k] is R(e_i, e_j) e_k in basis coordinates."""
    n = conn.n
    gamma = conn.gamma
    nonzero = [[(m, g) for m, g in enumerate(row) if any(g)] for row in gamma]
    flat_plane = ((Fraction(0),) * n,) * n
    out = [[flat_plane] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            eps = alg.bracket_basis(i, j)[0]  # every bracket is a multiple of e_0
            plane = []
            for k in range(n):
                # nabla_i (nabla_j e_k) - nabla_j (nabla_i e_k) - eps nabla_0 e_k
                terms = ([(gamma[j][k][m], g) for m, g in nonzero[i] if gamma[j][k][m] != 0]
                         + [(-gamma[i][k][m], g) for m, g in nonzero[j] if gamma[i][k][m] != 0])
                if eps != 0:
                    terms.append((-eps, gamma[0][k]))
                plane.append(_combination(terms, n))
            out[i][j] = tuple(plane)
            out[j][i] = tuple(tuple(-x for x in v) for v in plane)
    return tuple(tuple(plane) for plane in out)


def _ricci_tensor(riem: RiemannTable) -> Matrix:
    n = len(riem)
    return [[sum(riem[i][j][k][i] for i in range(n)) for k in range(n)] for j in range(n)]


def ricci(riem: RiemannTable, gram: Matrix) -> tuple[Matrix, Fraction]:
    """Ricci tensor Ric(y, z) = trace(x -> R(x, y) z) and scalar curvature."""
    n = len(riem)
    ric = _ricci_tensor(riem)
    g_inv = _checked_inverse(n, gram)
    scalar = sum(g_inv[k][j] * ric[j][k] for j in range(n) for k in range(n))
    return ric, scalar


def is_flat(riem: RiemannTable) -> bool:
    """True iff every curvature entry is exactly zero."""
    return all(x == 0 for plane in riem for row in plane for v in row for x in v)


def _pinned_entries(n: int) -> set[tuple[int, int]]:
    """Entries (r, c) that are zero in every derivation."""
    a, b = n - 2, n - 1
    return ({(r, 0) for r in range(1, n)}
            | {(r, c) for r in (a, b) for c in range(1, n - 2)})


def _soliton(n: int, ric_op: Matrix) -> tuple[Fraction, Matrix] | None:
    if any(ric_op[r][c] != 0 for r, c in _pinned_entries(n)):
        return None
    a, b = n - 2, n - 1
    c = ric_op[a][a] + ric_op[b][b] - ric_op[0][0]
    d = [[ric_op[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    return c, d


def soliton_check(alg: HeisenbergAlgebra, gram: Matrix,
                  ric: Matrix) -> tuple[Fraction, Matrix] | None:
    """Decide Ric_op = c * Id + D with D a derivation, exactly.

    Returns (c, D) if such a pair exists (c is then unique), None otherwise.
    The Einstein case is the solution with D = 0.
    """
    return _soliton(alg.n, linalg.mat_mul(_checked_inverse(alg.n, gram), ric))


@dataclass(frozen=True)
class CurvatureReport:
    """Exact curvature data of one metric, with flatness and soliton verdicts."""

    riemann: RiemannTable
    ricci: tuple[tuple[Fraction, ...], ...]
    scalar_curv: Fraction
    is_flat: bool
    soliton: tuple[Fraction, tuple[tuple[Fraction, ...], ...]] | None

    @property
    def is_einstein(self) -> bool:
        if self.soliton is None:
            return False
        _, d = self.soliton
        return all(x == 0 for row in d for x in row)



def curvature_report(alg: HeisenbergAlgebra, gram: Matrix,
                     check_soliton: bool = True) -> CurvatureReport:
    """Full exact curvature summary for one Gram matrix."""
    n = alg.n
    g_inv = _checked_inverse(n, gram)
    riem = riemann(_connection(n, gram, g_inv), alg)
    ric = _ricci_tensor(riem)
    ric_op = linalg.mat_mul(g_inv, ric)
    soliton = None
    if check_soliton:
        res = _soliton(n, ric_op)
        if res is not None:
            c, d = res
            soliton = (c, tuple(tuple(row) for row in d))
    return CurvatureReport(
        riemann=riem,
        ricci=tuple(tuple(row) for row in ric),
        scalar_curv=sum(ric_op[k][k] for k in range(n)),
        is_flat=is_flat(riem),
        soliton=soliton,
    )
