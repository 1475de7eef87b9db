"""Independent brute-force oracles.

Deliberately separate from the package's fast paths:
- curvature: index-based Christoffel/Riemann/Ricci formulas over structure
  constants, with its own tiny matrix inverse;
- the Koszul curvature engine: the general-bracket Levi-Civita connection,
  the dense Riemann tensor and the kernel/solve soliton check that the
  single-bracket closed forms in `heisflag.curvature` replaced.  It owns
  the connection type, `ConnectionTable`, with its metric-compatibility and
  torsion checks: the library builds no connection;
- the closed forms in `Fraction`s (`fraction_curvature_report`), read off
  the full inverse G^{-1}, which the report's `int` evaluation over one
  common denominator, off two columns of A^{-1}, replaced;
- samplers: the dense-product forms of the exact O(p, q) samplers and the
  flag sampler, which pin the draw order of `heisflag.sampling`; they and
  the strategies draw from `fraction_pool`, the library's `int` pool as
  `Fraction` vectors, where the library ranks its picks as `int` rows;
- enumeration: the primal flag survey, which walks every (n-2)-subset of the
  small integer pool, deduplicates subspaces by a fraction-free integer RREF
  and computes every flag invariant in integer arithmetic; and the dual
  survey over every plane of two pool vectors, which the survey of one plane
  per signed-permutation class replaced; it ranks each coordinate block of
  the pair with `linalg.rank`, where the survey reads the plane's Plücker
  key.  Both take as lines the {-1, 0, 1} combinations of a basis of the
  big part (`_coefficient_lines`), where the survey takes the pool vectors
  that lie in it.  `every_pair_survey` is that class survey as it was
  first written: it keys every pair of the pool, re-keys each sign-flipped
  pair in its canonical test, diagonalizes each plane's Gram matrix and
  tests lines with full-length dot products (`_dot`, `_standard_gram`).
  The survey's walk over the leading-coordinate pairs, its test on the
  key's signs and its closed-form 2x2 signature replaced it, and must
  give the same survey, sample flags and their order included.
  `sum_plane_lines` is the survey's per-plane line scan with a generator
  sum per product, slices and zero counts per line, a rank per radical
  test and a kernel per plane, which reading each line off its two nonzero
  positions and the plane's support and Plücker key, and a kernel only at
  a plane's first sample flag, replaced;
  `full_pool_plane_lines` is that reading over every line of the pool,
  which the scan of the lines on the plane's support and K spare
  coordinates of each block replaced; `product_canonical` is the survey's
  canonical test with one loop over `itertools.product` sign vectors,
  which the walk over submasks of the support replaced;
- radical: the columns of one congruence's transform with zero diagonal
  entries, made a canonical row space, which `forms.radical` replaced by
  the kernel of W's Gram matrix mapped through W's basis;
- witness assembly: the 256-bit mpmath assembly of g from two adapted frames
  that the integer square-root assembly in `heisflag.witness` replaced;
  that assembly with C2^{-1} from a Gauss-Jordan inverse, which reading it
  off the frame's norms replaced; and that reading in `Fraction`s
  (`fraction_assemble`), which one `int` sum per entry over a common
  denominator replaced;
- products: the dense `mat_mul` and `mat_vec` loops, which sum every
  product, zeros included, and which one `linalg.combine` per row or
  vector replaced;
- entry readers: `combine` and `mat` with their own hand-written readers,
  each inside a `try` that names a malformed entry (`hand_read_combine`,
  `hand_read_mat`), which reading through `linalg._int_rows` replaced;
- integral entries: `combine`, `primitive_vector` and
  `QuadraticSpace.pairing` with every product and sum taken in the
  entries' own types (`Fraction` where the input has one), which the
  versions that multiply integral entries as `int` replaced;
- exact kernels: the dense double-loop inner product and the two-product
  `restrict` that `QuadraticSpace.pairing` replaced, the Gauss-Jordan
  inverse, the library's old `Fraction` inverse `invert` (the dense
  inverse oracle, each row of `linalg._inverse_rows` over its pivot,
  which no library routine needs), the one-rank-per-candidate basis
  extension, the per-vector subspace containment and the LLL reduction
  that recomputes Gram-Schmidt after every step;
- congruence and classification: the row-and-column symmetric
  elimination, which builds P on every multiplier and which the
  Schur-update `linalg.congruence_diagonalize` replaced; that Schur update
  on `Fraction` entries (`fraction_congruence`), which builds P as it goes
  and which the same elimination on content-reduced integer rows, recorded
  in `int`, replaced; the `Fraction` replay of P from the record's moves
  (`fraction_moves`, `fraction_transform`), which the replay into
  content-free `int` columns with one scale each replaced; the
  classification from two such eliminations (whole matrix, then the
  negated center block);
- the group action: `act_on_metric` as two `Fraction` products, which one
  pairing and then one `int` product M^T (L A) M over an integer inverse
  replaced; and the block test of `is_scaled_automorphism` with a full
  n x n determinant, behind the draws of `parabolic_sample`, which the
  product a * det(middle) * det(D) replaced;
- intersections: `intersect` (a kernel of the stacked bases, a combination
  and a row space) and the one-solve `in_span`, with the flag invariants,
  seven counts, subspace equivalence and witness frame cap computed from
  them, which `heisflag.forms` and `heisflag.witness` now read off one rank
  or one kernel; `extend_nullsystem` with its own null-splitting loop,
  which is now one `forms.extend_basis` call, and the rank-first checks it
  made before it left them to `extend_basis` (`rank_first_nullsystem_refusal`);
  `extend_basis` with its complement search of the ambient radical on every
  space, a rank per null for its radical test and a pairing per norm
  (`extend_basis_with_complement`), which a nondegenerate space skips and
  one pairing with the units replaced; and `lightlike_split` with an
  `inner` per pairing and one more to orient h (`inner_lightlike_split`),
  which one pairing row and the leading sign of 2c w - d v replaced;
- `random_gram` as two dense products h^T I h over a `Fraction` pool, which
  one pairing of columns from a cached `int` pool replaced;
- elimination: the Gauss-Jordan echelon form and the rank read off it,
  which one forward elimination (`linalg._forward`, plus back substitution
  in `linalg._reduce`) replaced; that forward elimination and back
  substitution in `Fraction` (`fraction_forward`, `fraction_echelon`, and
  `fraction_reduce`, its rows scaled to integers by `integer_rows`), which
  the fraction-free elimination on content-reduced integer rows replaced;
- determinants: the library computes none, so `forward_det`, a `Fraction`
  forward loop, is the tests' exact determinant, and `leibniz_det` the
  permutation sum that checks it;
- bases: the `scaled_system` that LLL-reduced W's basis before
  diagonalizing it, and the witness frame rescaling to primitive integer
  columns with adjusted norms, which orientation alone replaced.
- representatives: the cursor-and-closure Gram builder and the flag
  builder that pops axes block by block, which one walk over
  `heisenberg._center_cells` replaced; the flag builder answers p < q with a
  flag of the (max, min) space.
- symmetry: `_is_symmetric`, the entry-by-entry test of the upper triangle
  that the congruence oracles and `two_call_classify` read, where the
  library has one Gram reader, `linalg.read_gram`;
- the bracket: `bracket_basis` and `bracket` on coefficient vectors, which
  the Koszul engine and the derivation checks read, and
  `loop_preserves_bracket`, the check on every basis pair that
  `ScaledAutomorphism.preserves_bracket`'s closed form replaced.
Used to pin expected values before trusting the main engine.  The library
returns canonical entries, `int` where integral, so every division here is
exact, `Fraction(a, b)` or `linalg.ratio`; mpmath's rounding in
`mpmath_assemble` is the one true division.  The `Fraction` oracles read
their input with `fraction_rows`, so they compute on `Fraction`s even on
`int` input, and `gauss_jordan_echelon`, `fraction_forward`,
`fraction_echelon`, `forward_det`, `_checked_inverse` and `dense_restrict`
return only `Fraction` entries.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import gcd, isqrt, lcm

import numpy as np

from heisflag import linalg
from heisflag.linalg import Matrix, Vector
from heisflag.curvature import CurvatureReport, is_flat
from heisflag.enumeration import SAMPLES_PER_ORBIT, FlagSurvey, _plane_signature
from heisflag.forms import (
    Flag,
    FlagInvariants,
    LineSignature,
    MatsukiData,
    PreconditionError,
    ScaledSystem,
    Signature,
    Subspace,
    _first_nonzero_index,
    _perp_within,
    restrict,
    scaled_system,
    signature,
)
from heisflag.heisenberg import (
    Classification,
    HeisenbergAlgebra,
    ScaledAutomorphism,
    UnsupportedSignatureError,
    _admissible_row,
    admissible_classes,
)
from heisflag.sampling import integer_pool
from heisflag.witness import SQRT_BITS, WitnessFailureError


def structure_constants(n):
    """c[i][j][k] with the single bracket [e_{n-2}, e_{n-1}] = e_0."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    c[n - 2][n - 1][0] = Fraction(1)
    c[n - 1][n - 2][0] = Fraction(-1)
    return c


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(g):
    n = len(g)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_perm_sign(perm))
        for i in range(n):
            term *= g[i][perm[i]]
        total += term
    return total


def cofactor_inverse(g):
    n = len(g)
    d = leibniz_det(g)
    assert d != 0
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[g[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = leibniz_det(minor) if minor else Fraction(1)
            inv[j][i] = Fraction((-1) ** (i + j) * cof, d)
    return inv


def christoffel(n, g):
    """Gamma[i][j][l]: the e_l component of the covariant derivative of e_j along e_i."""
    c = structure_constants(n)
    ginv = cofactor_inverse(g)
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                acc = Fraction(0)
                for k in range(n):
                    koszul = Fraction(0)
                    for m in range(n):
                        koszul += c[i][j][m] * g[m][k]
                        koszul -= c[j][k][m] * g[m][i]
                        koszul += c[k][i][m] * g[m][j]
                    acc += ginv[l][k] * koszul
                gamma[i][j][l] = Fraction(acc, 2)
    return gamma


def riemann_tensor(n, g):
    """R[i][j][k][l]: the e_l component of R(e_i, e_j) e_k."""
    c = structure_constants(n)
    gamma = christoffel(n, g)
    riem = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = Fraction(0)
                    for m in range(n):
                        acc += gamma[j][k][m] * gamma[i][m][l]
                        acc -= gamma[i][k][m] * gamma[j][m][l]
                        acc -= c[i][j][m] * gamma[m][k][l]
                    riem[i][j][k][l] = acc
    return riem


def ricci_tensor(n, g):
    riem = riemann_tensor(n, g)
    ric = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            ric[j][k] = sum(riem[i][j][k][i] for i in range(n))
    ginv = cofactor_inverse(g)
    scalar = sum(ginv[k][j] * ric[j][k] for j in range(n) for k in range(n))
    return ric, scalar



def _unit(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def bracket_basis(alg, i, j):
    """[e_i, e_j] as a coefficient vector."""
    out = [Fraction(0)] * alg.n
    if (i, j) == (alg.n - 2, alg.n - 1):
        out[0] = Fraction(1)
    elif (i, j) == (alg.n - 1, alg.n - 2):
        out[0] = Fraction(-1)
    return tuple(out)


def bracket(alg, x, y):
    """[x, y] for coefficient vectors, bilinear in both slots."""
    out = [Fraction(0)] * alg.n
    out[0] = x[alg.n - 2] * y[alg.n - 1] - x[alg.n - 1] * y[alg.n - 2]
    return tuple(out)


def loop_preserves_bracket(sa, alg):
    """phi([e_i, e_j]) = [phi e_i, phi e_j] for phi = `sa.automorphism`, checked on
    every basis pair: the loop that `ScaledAutomorphism.preserves_bracket`'s closed
    form replaced."""
    n = alg.n
    phi = sa.automorphism
    cols = [tuple(phi[i][j] for i in range(n)) for j in range(n)]
    return all(linalg.mat_vec(phi, bracket_basis(alg, i, j)) == bracket(alg, cols[i], cols[j])
               for i in range(n) for j in range(n))


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
                if diff != bracket_basis(alg, i, j):
                    return False
        return True


def koszul_levi_civita(alg, gram):
    """Levi-Civita connection from the Koszul formula over every bracket triple."""
    n = alg.n
    g_inv = invert(gram)

    def pairing(x, y):
        if not any(x):  # most brackets of basis vectors vanish
            return Fraction(0)
        return sum(a * b for a, b in zip(linalg.mat_vec(gram, x), y))

    table = []
    for i in range(n):
        row = []
        e_i = _unit(n, i)
        for j in range(n):
            e_j = _unit(n, j)
            br_ij = bracket_basis(alg, i, j)
            rhs = []
            for k in range(n):
                e_k = _unit(n, k)
                val = (pairing(br_ij, e_k)
                       - pairing(bracket_basis(alg, j, k), e_i)
                       + pairing(bracket_basis(alg, k, i), e_j))
                rhs.append(Fraction(val, 2))
            row.append(linalg.mat_vec(g_inv, tuple(rhs)))
        table.append(tuple(row))
    return ConnectionTable(tuple(table))


def dense_riemann(conn, alg):
    """R(e_i, e_j) e_k for every (i, j, k), each computed from scratch."""
    n = conn.n
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            br = bracket_basis(alg, i, j)
            for k in range(n):
                val = linalg.vec_sub(linalg.combine(conn.gamma[j][k], conn.gamma[i]),
                                     linalg.combine(conn.gamma[i][k], conn.gamma[j]))
                for m, c in enumerate(br):
                    if c != 0:
                        val = linalg.vec_sub(val, linalg.vec_scale(c, conn.gamma[m][k]))
                row.append(val)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def dense_ricci(riem, gram):
    n = len(riem)
    ric = linalg.zeros(n, n)
    for j in range(n):
        for k in range(n):
            ric[j][k] = sum(riem[i][j][k][i] for i in range(n))
    g_inv = invert(gram)
    scalar = sum(g_inv[k][j] * ric[j][k] for j in range(n) for k in range(n))
    return ric, scalar


@lru_cache(maxsize=None)
def kernel_derivation_space(alg):
    """Der(g) as the kernel of the derivation identity over every basis pair.

    Cached per algebra: differential tests call it once per report.
    """
    n = alg.n
    units = [_unit(n, i) for i in range(n)]

    def constraint_rows(d):
        cols = [tuple(d[r][c] for r in range(n)) for c in range(n)]
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                lhs = linalg.mat_vec(d, bracket_basis(alg, i, j))
                rhs = linalg.vec_add(bracket(alg, cols[i], units[j]),
                                     bracket(alg, units[i], cols[j]))
                rows.extend(linalg.vec_sub(lhs, rhs))
        return rows

    columns = []
    for r in range(n):
        for c in range(n):
            elem = linalg.zeros(n, n)
            elem[r][c] = Fraction(1)
            columns.append(constraint_rows(elem))
    constraint_matrix = [list(row) for row in zip(*columns)]
    return tuple(linalg.kernel(constraint_matrix))


def solve_soliton_check(alg, gram, ric):
    """Ric_op = c * Id + D with D in the kernel basis of Der(g), by a linear solve."""
    n = alg.n
    ric_op = linalg.mat_mul(invert(gram), ric)
    der_basis = kernel_derivation_space(alg)
    target = tuple(x for row in ric_op for x in row)
    id_vec = tuple(x for row in linalg.identity(n) for x in row)
    cols = [list(b) for b in der_basis] + [list(id_vec)]
    system = [[cols[c][r] for c in range(len(cols))] for r in range(n * n)]
    sol = linalg.solve(system, target)
    if sol is None:
        return None
    c = sol[-1]
    d = [[ric_op[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    return c, d


def koszul_curvature_report(alg, gram):
    """`CurvatureReport` assembled from the Koszul engine above, and its dense Riemann tensor."""
    riem = dense_riemann(koszul_levi_civita(alg, gram), alg)
    ric, scalar = dense_ricci(riem, gram)
    res = solve_soliton_check(alg, gram, ric)
    soliton = None if res is None else (res[0], tuple(tuple(row) for row in res[1]))
    report = CurvatureReport(ricci=tuple(tuple(row) for row in ric), scalar_curv=scalar,
                             is_flat=is_flat(riem), soliton=soliton)
    return report, riem


def _checked_inverse(n, gram):
    """G and G^{-1} as `Fraction`s, for a symmetric n x n G; PreconditionError names any
    fault, in the order of `curvature_report`'s checks."""
    linalg.read_gram(gram)
    gram = fraction_rows(gram)
    if len(gram) != n:
        raise linalg.PreconditionError(f"Gram matrix must be {n}x{n}")
    try:
        return gram, fraction_rows(invert(gram))
    except linalg.SingularMatrixError:
        raise linalg.PreconditionError("curvature requires a nondegenerate Gram matrix, "
                                       "this one is singular")


def fraction_curvature_report(alg, gram, check_soliton=True):
    """`curvature_report` from the closed forms in `Fraction`s over the full inverse G^{-1},
    which one `int` evaluation over 2 P^2 off two columns of A^{-1} replaced."""
    n = alg.n
    a, b = n - 2, n - 1
    gram, g_inv = _checked_inverse(n, gram)
    # K e_a = G^{-1} e_b, K e_b = -G^{-1} e_a; K^2 e_m; <K e_i, K e_m> = omega(e_i, K e_m)
    k = {a: tuple(g_inv[b]), b: tuple(-x for x in g_inv[a])}
    k2 = {m: linalg.combine((v[a], v[b]), (k[a], k[b])) for m, v in k.items()}
    kk = {(i, m): k[m][b] if i == a else -k[m][a] for i in k for m in k}
    g00, h = gram[0][0], gram[0]
    delta = g_inv[a][a] * g_inv[b][b] - g_inv[a][b] ** 2
    # Ric = -g_00 Q / 2 + delta h h^T / 2, Q zero outside the {a, b} block
    ric = [[linalg.ratio(delta * x * y, 2) for y in h] for x in h]
    for (i, m), q in kk.items():
        ric[i][m] -= linalg.ratio(g00 * q, 2)
    soliton = None
    if check_soliton:
        c = linalg.ratio(-3 * g00 * delta, 2)
        # D = g_00 K^2 / 2 + delta e_0 h^T / 2 - c Id
        d = [[linalg.ratio(delta * x, 2) for x in h]] + [[Fraction(0)] * n for _ in range(n - 1)]
        for r in range(n):
            d[r][r] -= c
            for m in k:
                d[r][m] += linalg.ratio(g00 * k2[m][r], 2)
        soliton = (c, tuple(tuple(row) for row in d))
    return CurvatureReport(
        ricci=tuple(tuple(row) for row in ric),
        scalar_curv=linalg.ratio(-g00 * delta, 2),
        is_flat=not any(h[:a]) or g00 == 0 and not (g_inv[a][a] or g_inv[a][b] or g_inv[b][b]),
        soliton=soliton,
    )


def signed_permutation_opq(p, q, rng):
    """Dense signed permutation matrix preserving the standard form."""
    n = p + q
    perm = list(range(p))
    rng.shuffle(perm)
    tail = list(range(p, n))
    rng.shuffle(tail)
    perm += tail
    m = linalg.zeros(n, n)
    for j, i in enumerate(perm):
        m[i][j] = Fraction(rng.choice((1, -1)))
    return m


def _cayley_product(p, q, k):
    """(I - S)(I + S)^{-1} for S = I_{p,q} K, or None when I + S is singular."""
    n = p + q
    s = [[x if i < p else -x for x in row] for i, row in enumerate(k)]
    ident = linalg.identity(n)
    i_plus_s = [[x + y for x, y in zip(r, t)] for r, t in zip(ident, s)]
    i_minus_s = [[x - y for x, y in zip(r, t)] for r, t in zip(ident, s)]
    if linalg.rank(i_plus_s) < len(i_plus_s):
        return None
    return linalg.mat_mul(i_minus_s, invert(i_plus_s))


def cayley_opq(p, q, rng):
    n = p + q
    while True:
        k = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                x = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                k[i][j] = x
                k[j][i] = -x
        g = _cayley_product(p, q, k)
        if g is not None:
            return g


def plane_cayley_opq(p, q, rng):
    n = p + q
    while True:
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        k = linalg.zeros(n, n)
        x = Fraction(rng.randint(1, 2), rng.randint(1, 3))
        k[i][j] = x
        k[j][i] = -x
        g = _cayley_product(p, q, k)
        if g is not None:
            return g


def random_opq(p, q, rng):
    return linalg.mat_mul(signed_permutation_opq(p, q, rng), cayley_opq(p, q, rng))


def mild_opq(p, q, rng):
    g = linalg.mat_mul(plane_cayley_opq(p, q, rng), plane_cayley_opq(p, q, rng))
    return linalg.mat_mul(signed_permutation_opq(p, q, rng), g)


def fraction_pool(n):
    """`sampling.integer_pool(n)` as `Fraction` vectors, in the same order: the pool
    that the `Fraction` samplers draw from, so that they make the library's draws."""
    return [tuple(map(Fraction, v)) for v in integer_pool(n)]


def random_gram(p, q, rng):
    """h^T I_{p,q} h for an invertible h with columns from the small pool, as two products."""
    n = p + q
    pool = fraction_pool(n)
    while True:
        cols = [rng.choice(pool) for _ in range(n)]
        h = [[cols[j][i] for j in range(n)] for i in range(n)]
        if linalg.rank(h) == len(h):
            ipq = linalg.diag([1] * p + [-1] * q)
            return linalg.mat_mul(linalg.transpose(h), linalg.mat_mul(ipq, h))


def random_flag(p, q, rng, shape=None):
    """A line inside a codimension-two subspace, both spanned from the small pool; or,
    with `shape` = (k1, k2), a k1-dimensional subspace inside a k2-dimensional one."""
    n = p + q
    k1, k2 = shape or (1, n - 2)
    pool = fraction_pool(n)
    while True:
        picks = []
        while len(picks) < k2:
            cand = rng.choice(pool)
            if linalg.rank([list(v) for v in picks] + [list(cand)]) == len(picks) + 1:
                picks.append(cand)
        big = Subspace(n, tuple(picks))
        for _ in range(20):
            rows = [[Fraction(rng.choice([-1, 0, 1])) for _ in range(k2)] for _ in range(k1)]
            if linalg.rank(rows) != k1:
                continue
            small_vecs = [tuple(sum(c * bv[i] for c, bv in zip(row, big.basis))
                                for i in range(n)) for row in rows]
            return Flag(Subspace(n, tuple(small_vecs)), big)

def _primitive(row):
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(row)
    lead = next(x for x in row if x != 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in row)


def int_rref(rows):
    """Canonical fraction-free reduced echelon form with primitive rows.

    Two generating sets span the same subspace iff they produce identical
    output, so the result doubles as a dictionary key.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(nr):
            if i != r and m[i][c]:
                f1, f2 = m[r][c], m[i][c]
                m[i] = [f1 * x - f2 * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return tuple(_primitive(m[i]) for i in range(r))


def int_rank(rows):
    return len(int_rref(rows))


def int_signature(s):
    """Sign counts of a symmetric integer matrix by fraction-free congruence."""
    a = [row[:] for row in s]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is None:
                continue
            if a[j][j] != 0:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                a[k], a[j] = a[j], a[k]
            else:
                for i in range(n):
                    aik, aij = a[i][k], a[i][j]
                    a[i][k], a[i][j] = aik + aij, aik - aij
                for c in range(n):
                    akc, ajc = a[k][c], a[j][c]
                    a[k][c], a[j][c] = akc + ajc, akc - ajc
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[k][i]:
                f = a[k][i]
                for r in range(n):
                    a[r][i] = pivot * a[r][i] - f * a[r][k]
                for c in range(n):
                    a[i][c] = pivot * a[i][c] - f * a[k][c]
        if pivot > 0:
            pos += 1
        elif pivot < 0:
            neg += 1
    return pos, neg, n - pos - neg


def small_int_pool(n):
    """{-1, 0, 1} vectors with at most two nonzero entries, first nonzero +1."""
    out = []
    for i in range(n):
        v = [0] * n
        v[i] = 1
        out.append(tuple(v))
        for j in range(i + 1, n):
            for sign in (1, -1):
                w = [0] * n
                w[i] = 1
                w[j] = sign
                out.append(tuple(w))
    return out


def _coefficient_lines(k):
    """Nonzero {-1, 0, 1} coefficient vectors up to sign (first nonzero +1)."""
    out = []
    for combo in product((0, 1, -1), repeat=k):
        lead = next((x for x in combo if x != 0), 0)
        if lead == 1:
            out.append(combo)
    return out


def _to_flag(basis, coeffs, n):
    big_vecs = tuple(linalg.vec(row) for row in basis)
    line = linalg.vec(linalg.combine(coeffs, basis))
    return Flag(Subspace.spanned_by([line], n), Subspace(n, big_vecs))


def primal_survey(p, q):
    """The survey over every (n-2)-subset of the pool, deduplicated by `int_rref`."""
    n = p + q
    k = n - 2
    pool = small_int_pool(n)
    lines = _coefficient_lines(k)
    invariants, matsuki = {}, set()
    seen = set()
    sign = [1] * p + [-1] * q

    for combo in combinations(pool, k):
        rref = int_rref(list(combo))
        if len(rref) != k or rref in seen:
            continue
        seen.add(rref)
        basis = rref

        # restricted Gram, signature, and coordinate intersections of the big part
        gram = [[sum(s * x * y for s, x, y in zip(sign, u, v)) for v in basis]
                for u in basis]
        sig_big = Signature(*int_signature(gram))
        c_plus = k - int_rank([row[p:] for row in basis])
        c_minus = k - int_rank([row[:p] for row in basis])
        c_zero = k - c_plus - c_minus

        # coefficient-space kernels: radical of the big part and the two
        # coordinate intersections, all expressed in basis coordinates
        plus_coeffs = _left_kernel([row[p:] for row in basis])
        minus_coeffs = _left_kernel([row[:p] for row in basis])
        pm_span = int_rref(plus_coeffs + minus_coeffs) if plus_coeffs or minus_coeffs else ()
        pm_rank = len(pm_span)

        for coeffs in lines:
            norm = sum(ci * sum(g * cj for g, cj in zip(row, coeffs))
                       for ci, row in zip(coeffs, gram))
            in_radical = all(sum(g * c for g, c in zip(row, coeffs)) == 0 for row in gram)
            if norm > 0:
                sig_small, cap = Signature(1, 0, 0), 0
            elif norm < 0:
                sig_small, cap = Signature(0, 1, 0), 0
            else:
                sig_small, cap = Signature(0, 0, 1), (1 if in_radical else 0)
            inv = FlagInvariants(sig_big, sig_small, cap)

            samples = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                samples.append(_to_flag(basis, coeffs, n))

            vec = [sum(c * row[i] for c, row in zip(coeffs, basis)) for i in range(n)]
            d_plus = 1 if all(x == 0 for x in vec[p:]) else 0
            d_minus = 1 if all(x == 0 for x in vec[:p]) else 0
            d_pm = 1 if pm_rank and len(int_rref(list(pm_span) + [tuple(coeffs)])) == pm_rank else 0
            matsuki.add((c_plus, c_minus, c_zero,
                         d_plus, d_minus, 1 - d_plus - d_minus, d_pm))
    return FlagSurvey(p, q, len(seen), invariants, matsuki)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _standard_gram(sign, vectors):
    """Gram matrix of integer vectors under the diagonal form `sign`."""
    return [[sum(s * x * y for s, x, y in zip(sign, u, v)) for v in vectors]
            for u in vectors]


def _primitive_plucker(a, b, index_pairs):
    """Primitive Plucker coordinates of span(a, b) on `index_pairs`, first nonzero positive."""
    plucker = [a[i] * b[j] - a[j] * b[i] for i, j in index_pairs]
    g = gcd(*plucker)
    if next(x for x in plucker if x) < 0:
        g = -g
    return tuple(x // g for x in plucker)


def pair_walk_survey(p, q):
    """The dual survey over every plane span(a, b) of two pool vectors, each once."""
    n = p + q
    k = n - 2
    pool = small_int_pool(n)
    index_pairs = list(combinations(range(n), 2))
    lines = _coefficient_lines(k)
    invariants, matsuki = {}, set()
    seen = set()
    sign = [1] * p + [-1] * q

    for a, b in combinations(pool, 2):
        key = _primitive_plucker(a, b, index_pairs)
        if key in seen:
            continue
        seen.add(key)

        s, t, u = linalg.congruence_diagonalize(_standard_gram(sign, (a, b))).sign_counts()
        sig_big = Signature(p - s - u, q - t - u, u)
        c_plus = p - linalg.rank([a[:p], b[:p]])
        c_minus = q - linalg.rank([a[p:], b[p:]])
        c_zero = k - c_plus - c_minus

        basis = tuple(tuple(int(x) for x in v) for v in linalg.kernel([a, b]))
        gram = _standard_gram(sign, basis)

        for coeffs in lines:
            gram_coeffs = [_dot(row, coeffs) for row in gram]
            norm = _dot(coeffs, gram_coeffs)
            if norm > 0:
                sig_small, cap = Signature(1, 0, 0), 0
            elif norm < 0:
                sig_small, cap = Signature(0, 1, 0), 0
            else:
                sig_small, cap = Signature(0, 0, 1), (0 if any(gram_coeffs) else 1)
            inv = FlagInvariants(sig_big, sig_small, cap)

            samples = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                samples.append(_to_flag(basis, coeffs, n))

            vec = linalg.combine(coeffs, basis)
            d_plus = 0 if any(vec[p:]) else 1
            d_minus = 0 if any(vec[:p]) else 1
            d_pm = 0 if _dot(a[:p], vec) or _dot(b[:p], vec) else 1
            matsuki.add((c_plus, c_minus, c_zero,
                         d_plus, d_minus, 1 - d_plus - d_minus, d_pm))
    return FlagSurvey(p, q, len(seen), invariants, matsuki)


def _rekeyed_canonical(a, b, key, p, index_pairs):
    """Whether the survey keeps span(a, b): an initial-segment support, and a
    key no larger than the re-keyed pair of any sign flip of its support."""
    support = [i for i, (x, y) in enumerate(zip(a, b)) if x or y]
    plus = sum(1 for i in support if i < p)
    if support != [*range(plus), *range(p, p + len(support) - plus)]:
        return False
    for flips in product((1, -1), repeat=len(support) - 1):
        d = [1] * len(a)
        for i, s in zip(support[1:], flips):
            d[i] = s
        flipped = _primitive_plucker(tuple(s * x for s, x in zip(d, a)),
                                     tuple(s * x for s, x in zip(d, b)), index_pairs)
        if flipped < key:
            return False
    return True


def _dot_plane_lines(a, b, key, p, q, pool, index_pairs):
    """The plane's signature by congruence of its Gram matrix, and each pool
    line tested with full-length dot products."""
    sign = [1] * p + [-1] * q
    s, t, u = linalg.congruence_diagonalize(_standard_gram(sign, (a, b))).sign_counts()
    sig_big = Signature(p - s - u, q - t - u, u)
    plus_minor = any(x for (i, j), x in zip(index_pairs, key) if j < p)
    minus_minor = any(x for (i, j), x in zip(index_pairs, key) if i >= p)
    c_plus = p - (2 if plus_minor else int(any(a[:p]) or any(b[:p])))
    c_minus = q - (2 if minus_minor else int(any(a[p:]) or any(b[p:])))
    c_zero = p + q - 2 - c_plus - c_minus
    basis = [tuple(int(x) for x in w) for w in linalg.kernel([a, b])]

    lines = []
    for v in pool:
        if _dot(a, v) or _dot(b, v):
            continue
        signed = [e * x for e, x in zip(sign, v)]
        norm = _dot(v, signed)
        if norm > 0:
            sig_small, cap = Signature(1, 0, 0), 0
        elif norm < 0:
            sig_small, cap = Signature(0, 1, 0), 0
        else:
            sig_small, cap = Signature(0, 0, 1), (0 if any(_dot(w, signed) for w in basis) else 1)
        d_plus = 0 if any(v[p:]) else 1
        d_minus = 0 if any(v[:p]) else 1
        d_pm = 0 if _dot(a[:p], v) or _dot(b[:p], v) else 1
        lines.append((v, FlagInvariants(sig_big, sig_small, cap),
                      (c_plus, c_minus, c_zero, d_plus, d_minus, 1 - d_plus - d_minus, d_pm)))
    return basis, lines


def sum_plane_lines(a, b, key, p, q, pool, index_pairs):
    """The exact kernel basis of [a; b], built for every plane, and (v,
    invariants, seven counts) per pool line v, each product a generator sum
    over a's or b's nonzero entries, each <v, v> and d count read off slices
    of v and their zero counts."""
    sign = [1] * p + [-1] * q
    a_nz = [(i, x) for i, x in enumerate(a) if x]
    b_nz = [(i, x) for i, x in enumerate(b) if x]
    s, t, u = _plane_signature(sum(sign[i] * x * x for i, x in a_nz),
                               sum(sign[i] * x * b[i] for i, x in a_nz),
                               sum(sign[i] * x * x for i, x in b_nz))
    sig_big = Signature(p - s - u, q - t - u, u)
    spacelike = FlagInvariants(sig_big, Signature(1, 0, 0), 0)
    timelike = FlagInvariants(sig_big, Signature(0, 1, 0), 0)
    null = (FlagInvariants(sig_big, Signature(0, 0, 1), 0),
            FlagInvariants(sig_big, Signature(0, 0, 1), 1))
    plus_minor = any(x for (i, j), x in zip(index_pairs, key) if j < p)
    minus_minor = any(x for (i, j), x in zip(index_pairs, key) if i >= p)
    c_plus = p - (2 if plus_minor else int(any(a[:p]) or any(b[:p])))
    c_minus = q - (2 if minus_minor else int(any(a[p:]) or any(b[p:])))
    c_zero = p + q - 2 - c_plus - c_minus
    basis = linalg.kernel([a, b])
    support = {i for i, _ in a_nz} | {i for i, _ in b_nz}
    a_plus = [(i, x) for i, x in a_nz if i < p]
    b_plus = [(i, x) for i, x in b_nz if i < p]

    lines = []
    for v in pool:
        if sum(x * v[i] for i, x in a_nz) or sum(x * v[i] for i, x in b_nz):
            continue
        plus, minus = v[:p], v[p:]
        norm = minus.count(0) - plus.count(0) + p - q
        if norm > 0:
            inv = spacelike
        elif norm < 0:
            inv = timelike
        else:
            inside = sum(1 for i in support if v[i]) == len(v) - v.count(0)
            inv = null[inside and linalg.rank([a, b, [e * x for e, x in zip(sign, v)]]) == 2]
        d_plus = 0 if any(minus) else 1
        d_minus = 0 if any(plus) else 1
        d_pm = 0 if (sum(x * v[i] for i, x in a_plus)
                     or sum(x * v[i] for i, x in b_plus)) else 1
        lines.append((v, inv, (c_plus, c_minus, c_zero, d_plus, d_minus,
                               1 - d_plus - d_minus, d_pm)))
    return basis, lines


def _positioned_pool(n):
    """Each vector v of `integer_pool(n)`, in pool order, as (v, i, j, e) with
    v = e_i + e e_j, read off v: i its first nonzero position, j its last (j = i
    and e = 0 for a unit vector)."""
    out = []
    for v in integer_pool(n):
        i = v.index(1)
        j = next((k for k in range(n - 1, i, -1) if v[k]), i)
        out.append((v, i, j, v[j] if j > i else 0))
    return out


def full_pool_plane_lines(a, b, mask, key, p, q):
    """(v, invariants, seven counts) for each line v of the whole pool that lies in
    V = ker[a; b], in pool order, with the plane's support `mask` and nonzero key
    entries `key`, each (p_kl, k, l)."""
    sign = [1] * p + [-1] * q
    a_nz = [(i, x) for i, x in enumerate(a) if x]
    b_nz = [(i, x) for i, x in enumerate(b) if x]
    s, t, u = _plane_signature(sum(sign[i] * x * x for i, x in a_nz),
                               sum(sign[i] * x * b[i] for i, x in a_nz),
                               sum(sign[i] * x * x for i, x in b_nz))
    sig_big = Signature(p - s - u, q - t - u, u)
    by_type = {kind: kind.flag_invariants(sig_big) for kind in LineSignature}
    c_plus = p - (2 if any(l < p for _, _, l in key) else int(mask & ((1 << p) - 1) > 0))
    c_minus = q - (2 if any(k >= p for _, k, _ in key) else int(mask >> p > 0))
    c_zero = p + q - 2 - c_plus - c_minus

    lines = []
    for v, i, j, e in _positioned_pool(p + q):
        if a[i] + e * a[j] or b[i] + e * b[j]:
            continue
        norm = sign[i] + e * e * sign[j]
        inv = by_type[LineSignature.of(norm, not norm and all(
            i in (k, l) or j in (k, l) for _, k, l in key))]
        d_plus = int(j < p)
        d_minus = int(i >= p)
        d_pm = 0 if i < p <= j and mask >> i & 1 else 1
        lines.append((v, inv, (c_plus, c_minus, c_zero, d_plus, d_minus,
                               1 - d_plus - d_minus, d_pm)))
    return lines


def product_canonical(mask, key, n):
    """Whether the key is the least of its images under the sign flips of the
    support coordinates of `mask` but the first, walked as `product` sign vectors."""
    flips = [i for i in range(n) if mask >> i & 1][1:]
    values = [x for x, _, _ in key]
    for signs in product((1, -1), repeat=len(flips)):
        d = [1] * n
        for i, s in zip(flips, signs):
            d[i] = s
        flipped = [x * d[i] * d[j] for x, i, j in key]
        if flipped[0] < 0:
            flipped = [-x for x in flipped]
        if flipped < values:
            return False
    return True


def every_pair_survey(p, q):
    """The survey of one plane per signed-permutation class, keying every pair of pool vectors."""
    n = p + q
    pool = integer_pool(n)
    index_pairs = list(combinations(range(n), 2))
    invariants, matsuki = {}, set()
    seen = set()

    for a, b in combinations(pool, 2):
        key = _primitive_plucker(a, b, index_pairs)
        if key in seen or not _rekeyed_canonical(a, b, key, p, index_pairs):
            continue
        seen.add(key)
        basis, lines = _dot_plane_lines(a, b, key, p, q, pool, index_pairs)
        big = tuple(map(linalg.vec, basis))
        for v, inv, counts in lines:
            samples = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                samples.append(Flag(Subspace(n, (linalg.vec(v),)), Subspace(n, big)))
            matsuki.add(counts)
    return FlagSurvey(p, q, len(seen), invariants, matsuki)


def _left_kernel(rows):
    """Primitive integer basis of {c : c . rows = 0} (kernel of the transpose)."""
    k = len(rows)
    if k == 0:
        return []
    cols = len(rows[0])
    if cols == 0:
        return [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    # solve via fraction-free elimination on [rows^T | I] columns: use rational
    # kernel on the small transpose instead; sizes here are tiny
    transposed = [[Fraction(rows[i][c]) for i in range(k)] for c in range(cols)]
    out = []
    for v in linalg.kernel(transposed):
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append(_primitive([int(x * denom) for x in v]))
    return out


def congruence_radical(space, w=None):
    """rad(W) read off one congruence, in ambient coordinates.

    With P^T G_W P = diag(d) and P invertible, G_W P e_j = 0 exactly when
    d_j = 0, and the zero d_j number the nullity of G_W; so the columns of
    P with d_j = 0 are a basis of the kernel.  The basis is the canonical
    row space of the span.
    """
    if w is None:
        w = Subspace.full(space.dim)
    res = linalg.congruence_diagonalize(restrict(space, w))
    rad = [linalg.combine([row[j] for row in res.transform], w.basis)
           for j, d in enumerate(res.diagonal) if d == 0]
    return Subspace(space.dim, tuple(linalg.row_space(rad)))


def mpmath_assemble(frame1, frame2):
    """g = C1 . diag(sqrt(m2_j / m1_j)) . C2^{-1} in 256-bit mpmath arithmetic.

    Every rational is rounded to 256 bits on entry, the square roots and the
    running sums in mpmath, and each finished entry once more to binary64.
    mpmath is imported here, not at module level: the package no longer
    depends on it.
    """
    from mpmath import mp, mpf

    cols1, norms1, cols2, norms2 = frame1.vectors, frame1.norms, frame2.vectors, frame2.norms
    n = len(cols1)
    c1 = [[cols1[j][i] for j in range(n)] for i in range(n)]
    c2_inv = invert([[cols2[j][i] for j in range(n)] for i in range(n)])
    with mp.workprec(256):
        def hp(x):
            return mpf(x.numerator) / mpf(x.denominator)

        scale = [mp.sqrt(hp(Fraction(m2, m1))) for m1, m2 in zip(norms1, norms2)]
        g = np.empty((n, n), dtype=float)
        for i in range(n):
            for j in range(n):
                acc = mpf(0)
                for k in range(n):
                    if c1[i][k] and c2_inv[k][j]:
                        acc += hp(c1[i][k] * c2_inv[k][j]) * scale[k]
                g[i, j] = float(acc)
    return g


def fraction_assemble(p, frame1, frame2):
    """g = C1 . diag(sqrt(m2_k / m1_k)) . C2^{-1} with C2^{-1} = diag(m2)^{-1} C2^T I_pq,
    each row of it a `Fraction` multiple of c2_k, summed by `linalg.combine` over the
    frame's own entries; each entry, an `int` or a `Fraction`, is divided by
    2^SQRT_BITS and rounded to binary64 once."""
    rows = []  # row k of diag(sqrt(m2 / m1)) C2^{-1}, times 2^SQRT_BITS
    for c2, m1, m2 in zip(frame2.vectors, frame1.norms, frame2.norms):
        r = linalg.ratio(m2, m1)
        if r <= 0:
            raise WitnessFailureError("adapted frames disagree on norm signs")
        s = linalg.ratio(isqrt((r.numerator << 2 * SQRT_BITS) // r.denominator), m2)
        rows.append([s * x if j < p else -s * x for j, x in enumerate(c2)])
    g_cols = [linalg.combine(coeffs, frame1.vectors) for coeffs in zip(*rows)]
    return np.array([[float(Fraction(x, 1 << SQRT_BITS)) for x in row] for row in zip(*g_cols)])


def invert_assemble(frame1, frame2):
    """g = C1 . diag(sqrt(m2_j / m1_j)) . C2^{-1}, with C2^{-1} from a Gauss-Jordan inverse.

    The same integer square roots at SQRT_BITS fraction bits and the same
    one rounding per entry as `witness._assemble`, which reads C2^{-1} off
    the frame's norms instead.
    """
    cols1, norms1, cols2, norms2 = frame1.vectors, frame1.norms, frame2.vectors, frame2.norms
    n = len(cols1)
    c2_inv = invert([[cols2[j][i] for j in range(n)] for i in range(n)])
    scale = []
    for m1, m2 in zip(norms1, norms2):
        r = Fraction(m2, m1)
        if r <= 0:
            raise WitnessFailureError("adapted frames disagree on norm signs")
        scale.append(isqrt((r.numerator << 2 * SQRT_BITS) // r.denominator))
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = sum(cols1[k][i] * c2_inv[k][j] * scale[k]
                      for k in range(n) if cols1[k][i] and c2_inv[k][j])
            g[i, j] = float(Fraction(acc, 1 << SQRT_BITS))
    return g


def dense_mat_mul(a, b):
    """AB with every product summed, zeros included."""
    ra, ca = linalg.shape(a)
    rb, cb = linalg.shape(b)
    if ca != rb:
        raise linalg.ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = linalg.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dense_mat_vec(m, v):
    """Mv with every product summed, zeros included."""
    r, c = linalg.shape(m)
    if c != len(v):
        raise linalg.ShapeError(f"cannot apply {r}x{c} to vector of length {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def dense_inner(space, x, y):
    """<x, y> as the full double sum over every Gram entry."""
    if len(x) != space.dim or len(y) != space.dim:
        raise linalg.ShapeError("vector length does not match ambient dimension")
    return sum(xi * sum(g * yj for g, yj in zip(row, y))
               for xi, row in zip(x, space.gram))


def dense_restrict(space, w):
    """B G B^T for the basis rows B of W, as two dense `Fraction` matrix products."""
    if w.ambient_dim != space.dim:
        raise linalg.ShapeError("subspace ambient dimension mismatch")
    if w.dim == 0:
        return []
    rows = fraction_rows(w.basis)
    return _fraction_product(_fraction_product(rows, fraction_rows(space.gram)),
                             linalg.transpose(rows))


def _fraction_product(a, b):
    """AB for `Fraction` matrices, every entry a `Fraction` sum over every product."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def fraction_rows(m):
    """M read by `linalg.mat`, which names a malformed row or entry, with every entry
    boxed as a `Fraction`: the input of the `Fraction` oracles."""
    return [list(map(Fraction, row)) for row in linalg.mat(m)]


def fraction_combine(coeffs, vectors):
    """sum_k c_k v_k with each entry in its input type, zero coefficients skipped.

    An entry starts as 0 * (the first vector's entry) and is a Fraction as
    soon as one Fraction reaches it.
    """
    if len(coeffs) != len(vectors):
        raise linalg.ShapeError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    acc = [0 * x for x in vectors[0]] if vectors else []
    for c, v in zip(coeffs, vectors):
        if c:
            acc = [a + c * x for a, x in zip(acc, v)]
    return tuple(acc)


def fraction_primitive_vector(v):
    """Primitive integer rescaling of v by Fraction products, leading entry positive."""
    if linalg.is_zero_vector(v):
        return v
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if next(x for x in ints if x != 0) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


def fraction_pairing(space, xs, ys):
    """The matrix of <x, y> in the entries' own types: G y once per y, zeros
    skipped, each entry summed from a Fraction 0."""
    if any(len(v) != space.dim for v in (*xs, *ys)):
        raise linalg.ShapeError("vector length does not match ambient dimension")
    zero = Fraction(0)
    gys = []
    for y in ys:
        support = [(j, yj) for j, yj in enumerate(y) if yj]
        gys.append([sum(row[j] * yj for j, yj in support if row[j]) for row in space.gram])
    return [[sum((xi * gyi for xi, gyi in zip(x, gy) if xi and gyi), zero) for gy in gys]
            for x in xs]


_EXACT = frozenset((Fraction, int))  # the entry types whose denominators need no read


def hand_read_combine(coeffs, vectors):
    """`linalg.combine` with its own entry reader, as it was before `_int_rows` read
    for it: coefficient numerators and denominators read one at a time, each vector
    read off its own denominators, the vector of a zero coefficient read for its
    types alone (and its denominators unless every entry is an `int` or a
    `Fraction`), all inside one `try` that names a malformed entry."""
    k = linalg._vector_length(coeffs, "coeffs")
    rows, length = linalg.shape(vectors)
    if k != rows:
        raise linalg.ShapeError(f"{k} coefficients for {rows} vectors")
    try:
        ints = linalg._INTS.issuperset(map(type, coeffs))
        if ints and linalg._INTS.issuperset(map(type, chain.from_iterable(vectors))):
            return tuple(linalg._int_sum(coeffs, vectors, length))
        terms = []
        for c, v in zip(coeffs, vectors):
            n, d = (c, 1) if ints else (c.numerator, c.denominator)
            if linalg._INTS.issuperset(map(type, v)):
                if n:
                    terms.append((n, d, v))
            elif n:
                s = lcm(*(x.denominator for x in v))
                terms.append((n, d * s, [x.numerator * (s // x.denominator) for x in v]))
            elif not _EXACT.issuperset(map(type, v)):
                lcm(*(x.denominator for x in v))  # an entry with no denominator raises
    except (AttributeError, TypeError):
        raise linalg._entry_error([coeffs, *vectors]) from None
    den = lcm(*(d for _, d, _ in terms))
    acc = linalg._int_sum([n * (den // d) for n, d, _ in terms], [v for _, _, v in terms], length)
    return tuple(acc) if den == 1 else tuple(linalg.ratio(a, den) for a in acc)


def hand_read_mat(rows):
    """`linalg.mat` with its own entry reader: a row of `int`s copied, any other entry
    read as `ratio(x, 1)`, inside one `try` that names a malformed entry."""
    linalg.shape(rows)
    try:
        return [list(row) if linalg._INTS.issuperset(map(type, row))
                else [linalg.ratio(x, 1) for x in row] for row in rows]
    except (AttributeError, TypeError):
        raise linalg._entry_error(rows) from None


def invert(m):
    """The inverse, canonical, each row of `linalg._inverse_rows` over its own pivot:
    the library's old dense inverse, which reading only the columns a caller needs
    (the curvature report's two) or the `int` M / d of `integer_inverse` replaced."""
    return [[linalg.ratio(x, p) for x in row] for row, p in linalg._inverse_rows(m)]


def gauss_jordan_invert(m):
    """Inverse by Gauss-Jordan elimination on [M | I], failing at the first missing pivot."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise linalg.ShapeError("inverse requires a square matrix")
    a = [list(row) + ident_row for row, ident_row in zip(m, linalg.identity(n))]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            raise linalg.SingularMatrixError("matrix is singular")
        a[c], a[pr] = a[pr], a[c]
        inv = Fraction(1, a[c][c])
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def rank_loop_extend_to_independent(base, pool, target_rank):
    """Grow `base` from `pool`, one rank computation per candidate."""
    chosen = list(base)
    r = linalg.rank([list(v) for v in chosen]) if chosen else 0
    for cand in pool:
        if r == target_rank:
            break
        if linalg.rank([list(v) for v in chosen] + [list(cand)]) > r:
            chosen.append(cand)
            r += 1
    if r != target_rank:
        raise linalg.ShapeError("pool does not span enough directions")
    return chosen


def per_vector_contains_subspace(big, small):
    """Containment by one linear solve per basis vector of `small`."""
    return all(in_span(v, big.basis) for v in small.basis)


def recomputing_lll_reduce(vectors, delta=Fraction(3, 4)):
    """LLL reduction that recomputes the whole Gram-Schmidt basis after every step."""
    b = [list(linalg.primitive_vector(v)) for v in vectors]
    n = len(b)
    if n <= 1:
        return [tuple(row) for row in b]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            w = list(b[i])
            for j in range(i):
                mu[i][j] = Fraction(dot(b[i], star[j]), norms[j])
                w = [x - mu[i][j] * y for x, y in zip(w, star[j])]
            star.append(w)
            norms.append(dot(w, w))
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return [linalg.primitive_vector(tuple(row)) for row in b]


def _is_symmetric(m):
    """True iff m is square and m[i][j] == m[j][i] for every i < j."""
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def row_column_congruence(s):
    """(P, D) with P^T S P = diag(D): a column pass, a row pass and a P pass per multiplier.

    The full-matrix symmetric elimination that `linalg.congruence_diagonalize`
    replaced, with the same zero-pivot moves: swap with a later direction of
    nonzero norm, else the hyperbolic pair (e_k+e_j, e_k-e_j), else null.
    """
    n = len(s)
    if any(len(row) != n for row in s):
        raise linalg.ShapeError("congruence requires a square matrix")
    if not _is_symmetric(s):
        raise linalg.ShapeError("congruence requires a symmetric matrix")
    a = [list(row) for row in s]
    p = linalg.identity(n)

    def add_col(dst, src, factor):
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for j in range(n):
            a[dst][j] += factor * a[src][j]
        for i in range(n):
            p[i][dst] += factor * p[i][src]

    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                continue
            if a[j][j] != 0:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                a[k], a[j] = a[j], a[k]
                for row in p:
                    row[k], row[j] = row[j], row[k]
            else:
                for i in range(n):
                    aik, aij = a[i][k], a[i][j]
                    a[i][k], a[i][j] = aik + aij, aik - aij
                for c in range(n):
                    akc, ajc = a[k][c], a[j][c]
                    a[k][c], a[j][c] = akc + ajc, akc - ajc
                for i in range(n):
                    pik, pij = p[i][k], p[i][j]
                    p[i][k], p[i][j] = pik + pij, pik - pij
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[k][i] != 0:
                add_col(i, k, Fraction(-a[k][i], pivot))
    return p, tuple(a[i][i] for i in range(n))


@dataclass(frozen=True)
class FractionCongruence:
    """The four reads of a `linalg.CongruenceResult`, all held as built."""

    diagonal: tuple
    leading_counts: tuple
    moves: tuple
    transform: Matrix


def fraction_congruence(s, leading=None):
    """`linalg.congruence_diagonalize` as a Schur elimination on `Fraction` entries.

    The routine that the elimination on content-reduced integer rows
    replaced: each nonzero pivot a_kk updates the not yet eliminated block
    by a_ij -= a_ik * a_kj / a_kk over the nonzero entries of row k, with
    the same zero-pivot moves, `leading` handling and recorded moves.  It
    applies each move to the columns of P as it makes it, where the library
    keeps an `int` record and builds the diagonal, the moves and P on read.
    """
    n = len(s)
    if any(len(row) != n for row in s):
        raise linalg.ShapeError("congruence_diagonalize requires a square matrix")
    if not _is_symmetric(s):
        raise linalg.ShapeError("congruence_diagonalize requires a symmetric matrix")
    m = n if leading is None else leading
    if not 0 <= m <= n:
        raise linalg.ShapeError(f"leading block size {m} outside 0..{n}")

    a = fraction_rows(s)
    moves = []
    cols = linalg.identity(n)  # cols[j] is column j of P

    def eliminate(k, partners, rest):
        row = a[k]
        if row[k] == 0:
            j = next((j for j in partners if row[j] != 0), None)
            if j is None:
                return False
            if a[j][j] != 0:
                a[k], a[j] = a[j], a[k]
                for r in a:
                    r[k], r[j] = r[j], r[k]
                cols[k], cols[j] = cols[j], cols[k]
                moves.append(("swap", k, j))
            else:
                akj = row[j]
                rj = a[j]
                for i in rest:
                    if i != j:
                        x, y = row[i], rj[i]
                        a[i][k] = row[i] = x + y
                        a[i][j] = rj[i] = x - y
                row[k], rj[j] = 2 * akj, -2 * akj
                row[j] = rj[k] = Fraction(0)
                ck, cj = cols[k], cols[j]
                cols[k], cols[j] = [x + y for x, y in zip(ck, cj)], [x - y for x, y in zip(ck, cj)]
                moves.append(("pair", k, j))
            row = a[k]
        pivot = row[k]
        nonzero = [(i, row[i]) for i in rest if row[i]]
        factors = tuple((i, Fraction(-aki, pivot)) for i, aki in nonzero)
        for t, (i, f) in enumerate(factors):
            ai = a[i]
            for j, akj in nonzero[t:]:
                a[j][i] = ai[j] = ai[j] + f * akj
            cols[i] = [x + f * y for x, y in zip(cols[i], cols[k])]
        if factors:
            moves.append(("clear", k, factors))
        return True

    deferred = []
    for k in range(m):
        if not eliminate(k, range(k + 1, m), range(k + 1, n)):
            deferred.append(k)
    leading_counts = linalg.sign_counts(a[k][k] for k in range(m))
    tail = deferred + list(range(m, n))
    for t, k in enumerate(tail):
        rest = tail[t + 1:]
        eliminate(k, rest, rest)
    return FractionCongruence(tuple(a[k][k] for k in range(n)), leading_counts, tuple(moves),
                              linalg.transpose(cols))


def fraction_moves(res):
    """The basis changes of a `linalg.CongruenceResult` in order, each clear with its
    `Fraction` factors: ("swap", k, j), ("pair", k, j) for b_k + b_j and b_k - b_j, and
    ("clear", k, ((i, f), ...)) adding f * b_k to each b_i, f = -x_i / p."""
    return tuple(("clear", move[1], tuple((i, Fraction(x, move[2])) for i, x in move[3]))
                 if move[0] == "clear" else move for move in res._record)


def fraction_transform(res):
    """P of a `linalg.CongruenceResult`, replayed from `fraction_moves` on `Fraction`
    columns, each entry read back canonical: the replay that the `int` columns replaced."""
    n = len(res.diagonal)
    cols = [[Fraction(int(r == j)) for r in range(n)] for j in range(n)]  # cols[j] is column j of P
    for kind, k, arg in fraction_moves(res):
        if kind == "swap":
            cols[k], cols[arg] = cols[arg], cols[k]
        elif kind == "pair":
            ck, cj = cols[k], cols[arg]
            cols[k] = [x + y for x, y in zip(ck, cj)]
            cols[arg] = [x - y for x, y in zip(ck, cj)]
        else:
            support = [(r, y) for r, y in enumerate(cols[k]) if y]
            for i, f in arg:
                ci = cols[i]
                for r, y in support:
                    ci[r] += f * y
    return linalg.transpose([[linalg.ratio(y, 1) for y in col] for col in cols])


def oracle_sign_counts(s):
    """(positive, negative, zero) counts of the oracle congruence's diagonal."""
    d = row_column_congruence(s)[1]
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    return pos, neg, len(d) - pos - neg


def mat_mul_act_on_metric(g, gram):
    """g . A = g^{-T} A g^{-1} as two `Fraction` matrix products."""
    g_inv = invert(g)
    return linalg.mat_mul(linalg.transpose(g_inv), linalg.mat_mul(gram, g_inv))


def det_is_scaled_automorphism(g, n):
    """Block upper triangular (1, n-3, 2) with a nonzero n x n determinant."""
    if len(g) != n or any(len(row) != n for row in g):
        return False
    if any(g[i][0] != 0 for i in range(1, n)):
        return False
    if any(g[i][j] != 0 for i in (n - 2, n - 1) for j in range(1, n - 2)):
        return False
    return forward_det(g) != 0


def parabolic_sample(n, rng):
    """`heisenberg.parabolic_sample`'s draws, tested with a full determinant."""
    def draw():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    while True:
        m = linalg.zeros(n, n)
        m[0][0] = draw()
        for j in range(1, n):
            m[0][j] = draw()
        for i in range(1, n - 2):
            for j in range(1, n):
                m[i][j] = draw()
        for i in (n - 2, n - 1):
            for j in (n - 2, n - 1):
                m[i][j] = draw()
        if det_is_scaled_automorphism(m, n):
            c = Fraction(m[n - 2][n - 2] * m[n - 1][n - 1] - m[n - 2][n - 1] * m[n - 1][n - 2],
                         m[0][0])
            return ScaledAutomorphism(tuple(tuple(row) for row in m), c)


def two_call_classify(alg, gram):
    """`classify_metric` from two congruences: the whole Gram matrix, then the center block.

    Inputs with p < q are negated before the center block is read.
    """
    n = alg.n
    if len(gram) != n or any(len(row) != n for row in gram):
        raise PreconditionError(f"Gram matrix must be {n}x{n}")
    if not _is_symmetric(gram):
        raise PreconditionError("Gram matrix must be symmetric")
    sig = Signature(*oracle_sign_counts(gram))
    if sig.nul:
        raise PreconditionError(f"Gram matrix is degenerate: signature {sig}")
    if sig.pos == 0 or sig.neg == 0:
        raise UnsupportedSignatureError(
            "definite (Riemannian) inner products are out of scope here")
    swapped = sig.pos < sig.neg
    work = [[-x for x in row] for row in gram] if swapped else gram
    p, q = max(sig.pos, sig.neg), min(sig.pos, sig.neg)
    center_sig = Signature(*oracle_sign_counts([row[: n - 2] for row in work[: n - 2]]))
    norm = work[0][0]
    if norm > 0:
        refined = LineSignature.SPACELIKE
    elif norm < 0:
        refined = LineSignature.TIMELIKE
    elif all(work[0][j] == 0 for j in range(n - 2)):
        refined = LineSignature.RADICAL
    else:
        refined = LineSignature.LIGHTLIKE
    for row in admissible_classes(p, q).classes:
        if row.center_signature(p, q) == center_sig and row.refined == refined:
            return Classification(p, q, swapped, row, center_sig, refined)
    raise AssertionError(f"no taxonomy row matches center signature {center_sig}, {refined}")


def intersect(span_a, span_b):
    """Basis of span(A) cap span(B): the kernel of [A | -B], combined, as a row space."""
    if not span_a or not span_b:
        return []
    dims = {len(v) for v in span_a} | {len(v) for v in span_b}
    if len(dims) != 1:
        raise linalg.ShapeError("intersect requires vectors of a common ambient dimension")
    a = list(span_a)
    b = list(span_b)
    # columns of [A | -B]; kernel elements give x with A x = B y
    stacked = [[av[i] for av in a] + [-bv[i] for bv in b] for i in range(dims.pop())]
    result = [linalg.combine(k[: len(a)], a) for k in linalg.kernel(stacked)]
    return linalg.row_space([v for v in result if not linalg.is_zero_vector(v)])


def in_span(v, vectors):
    """Membership by one linear solve against the given vectors."""
    if linalg.is_zero_vector(v):
        return True
    if not vectors:
        return False
    basis = list(vectors)
    cols = [[bv[i] for bv in basis] for i in range(len(v))]
    return linalg.solve(cols, v) is not None


def intersect_flag_invariants(space, f):
    """Flag invariants with dim(small cap rad big) from `intersect` and the radical of big."""
    if f.big.ambient_dim != space.dim:
        raise linalg.ShapeError("flag ambient dimension mismatch")
    if not space.is_nondegenerate():
        raise PreconditionError("flag invariants require a nondegenerate ambient form")
    rad_big = congruence_radical(space, f.big)
    return FlagInvariants(signature(space, f.big), signature(space, f.small),
                          len(intersect(list(f.small.basis), list(rad_big.basis))))


def intersect_matsuki_data(f, p, q):
    """The seven counts from intersections with the coordinate subspaces U+ and U-."""
    n = p + q
    if f.shape != (1, n - 2):
        raise linalg.ShapeError("seven-count data is defined for flags of type (1, n-2)")
    u_plus = Subspace.coordinate(n, range(p))
    u_minus = Subspace.coordinate(n, range(p, n))
    big, small = list(f.big.basis), list(f.small.basis)
    big_plus = intersect(big, list(u_plus.basis))
    big_minus = intersect(big, list(u_minus.basis))
    c_plus, c_minus = len(big_plus), len(big_minus)
    d_plus = len(intersect(small, list(u_plus.basis)))
    d_minus = len(intersect(small, list(u_minus.basis)))
    direct_sum = big_plus + big_minus
    d_pm = len(intersect(small, direct_sum)) if direct_sum else 0
    return MatsukiData(c_plus, c_minus, n - 2 - c_plus - c_minus,
                       d_plus, d_minus, 1 - d_plus - d_minus, d_pm)


def intersect_subspaces_equivalent(space, u_sub, w_sub):
    """Equal signatures and equal intersection dimensions with the ambient radical."""
    if signature(space, u_sub) != signature(space, w_sub):
        return False
    rad_v = space.ambient_radical()
    if not rad_v.dim:
        return True
    cap_u = len(intersect(list(u_sub.basis), list(rad_v.basis)))
    cap_w = len(intersect(list(w_sub.basis), list(rad_v.basis)))
    return cap_u == cap_w


def intersect_frame_cap(space, big, nulls):
    """span(nulls) cap rad(big) as `intersect` of the nulls with the radical of big."""
    rad_big = congruence_radical(space, big)
    return intersect(nulls, list(rad_big.basis)) if rad_big.dim else []


def split_loop_extend_nullsystem(space, nulls):
    """Extend orthogonal null vectors by splitting each inside the full space, one by one.

    The nulls are refused with `extend_basis`'s messages, in its order: each
    row of their Gram matrix for a nonzero norm and then a pairing, then a
    rank of the nulls.
    """
    nulls = [linalg.vec(v) for v in nulls]
    if not space.is_nondegenerate():
        raise PreconditionError("ambient form must be nondegenerate")
    for i, row in enumerate(space.pairing(nulls, nulls)):
        if row[i]:
            raise PreconditionError(f"vector {i} has wrong norm")
        j = next((j for j in range(i + 1, len(row)) if row[j]), None)
        if j is not None:
            raise PreconditionError(f"vectors {i}, {j} are not orthogonal")
    if nulls and linalg.rank([list(v) for v in nulls]) != len(nulls):
        raise PreconditionError("system vectors must be linearly independent")
    current = Subspace.full(space.dim)
    pairs = []
    for i, w in enumerate(nulls):
        arena = _perp_within(space, current, nulls[i + 1:])
        plus, minus = inner_lightlike_split(space, arena, w)
        pairs.append((plus, minus))
        current = _perp_within(space, current, [plus, minus])
    fill = scaled_system(space, current) if current.dim else ScaledSystem((), ())
    if fill.signature.nul:
        raise PreconditionError("ambient form must be nondegenerate")
    xs = [p for p, _ in pairs] + fill.positives()
    ys = [m for _, m in pairs] + fill.negatives()
    pos_norms = [space.inner(p, p) for p, _ in pairs] + [m for m in fill.norms if m > 0]
    neg_norms = [space.inner(m, m) for _, m in pairs] + [m for m in fill.norms if m < 0]
    return ScaledSystem(tuple(xs + ys), tuple(pos_norms + neg_norms))


def rank_first_nullsystem_refusal(space, nulls):
    """The message with which `extend_nullsystem` refused nulls before it handed its
    checks to `extend_basis`, or None: a rank of the nulls first, then their pairings."""
    nulls = [linalg.vec(v) for v in nulls]
    if not space.is_nondegenerate():
        return "ambient form must be nondegenerate"
    if nulls and linalg.rank(nulls) != len(nulls):
        return "null vectors must be independent"
    if nulls and any(x for row in space.pairing(nulls, nulls) for x in row):
        return "null vectors must be pairwise orthogonal and null"
    return None


def inner_lightlike_split(space, v_sub, v):
    """`forms.lightlike_split` with one `inner` per pairing: <v, v>, <v, b> for the
    basis vectors b up to the first that pairs with v, <w, w>, and <v, h> to orient h."""
    if not v_sub.contains(v):
        raise PreconditionError("vector does not lie in the subspace")
    if linalg.is_zero_vector(v):
        raise PreconditionError("cannot split the zero vector")
    if space.inner(v, v) != 0:
        raise PreconditionError("vector is not null")
    w = next((b for b in v_sub.basis if space.inner(v, b) != 0), None)
    if w is None:
        raise PreconditionError("vector lies in the radical of the subspace")
    c = space.inner(v, w)
    d = space.inner(w, w)
    h = linalg.primitive_vector(linalg.combine((2 * c, -d), (w, v)))
    if space.inner(v, h) < 0:
        h = linalg.vec_scale(-1, h)
    half = linalg.ratio(1, 2)
    plus = linalg.combine((half, half), (v, h))
    return plus, linalg.vec_sub(v, plus)


def extend_basis_with_complement(space, w_system):
    """`forms.extend_basis` with its complement search on every space.

    The null vectors are tested against the ambient radical one rank each
    (`Subspace.contains`), where the library reads G z = 0 off one pairing,
    and the complement U of the radical is grown from the system by one
    elimination, even when the radical is zero and U is the whole space,
    where the library takes U's unit basis.  Each null is split by
    `inner_lightlike_split`, and both norms of each split pair are paired.
    """
    n = space.dim
    w_system.check(space)
    xs, ys, zs = w_system.positives(), w_system.negatives(), w_system.nulls()
    if zs and linalg.rank(zs) != len(zs):
        raise PreconditionError("system vectors must be linearly independent")
    u = len(zs)
    rad_v = space.ambient_radical()
    in_rad = [rad_v.contains(z) for z in zs]
    k = sum(in_rad)
    if in_rad != [False] * (u - k) + [True] * k:
        raise PreconditionError("ambient-radical null vectors must come last")
    z_split, z_rad = zs[: u - k], zs[u - k:]
    head = xs + ys + z_split
    u_basis = linalg.extend_to_independent(
        list(rad_v.basis), head + [tuple(row) for row in linalg.identity(n)], n)[rad_v.dim:]
    if u_basis[:len(head)] != head:
        raise PreconditionError(
            "null vectors outside the ambient radical must be independent modulo it")
    arena = _perp_within(space, Subspace._independent(n, tuple(u_basis)), xs + ys)
    pairs = []
    for i, z in enumerate(z_split):
        pairs.append(inner_lightlike_split(space, _perp_within(space, arena, z_split[i + 1:]), z))
        arena = _perp_within(space, arena, pairs[-1])
    fill = scaled_system(space, arena)
    if fill.signature.nul:
        raise PreconditionError("complement of the radical is unexpectedly degenerate")
    gammas = linalg.extend_to_independent(z_rad, list(rad_v.basis), rad_v.dim)
    alphas = xs + [a for a, _ in pairs] + fill.positives()
    betas = ys + [b for _, b in pairs] + fill.negatives()
    pos_norms = ([m for m in w_system.norms if m > 0] + [space.inner(a, a) for a, _ in pairs]
                 + [m for m in fill.norms if m > 0])
    neg_norms = ([m for m in w_system.norms if m < 0] + [space.inner(b, b) for _, b in pairs]
                 + [m for m in fill.norms if m < 0])
    return ScaledSystem(tuple(alphas + betas + gammas),
                        tuple(pos_norms + neg_norms + [0] * len(gammas)))


def gauss_jordan_echelon(m):
    """Reduced row echelon form and pivot columns by Gauss-Jordan elimination.

    Each pivot row is normalized and clears its column above and below at once.
    Each pivot is inverted as `Fraction(1, p)`, so `int` input stays exact.
    """
    a = fraction_rows(m)
    rows, cols = linalg.shape(a)
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = Fraction(1, a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def fraction_forward(m):
    """The `Fraction` forward elimination that the integer rows of `linalg._forward` replaced.

    Each row below a pivot subtracts (entry / pivot) times the pivot row,
    with the same pivot choice; returns the rows and the pivot columns.
    """
    a = fraction_rows(m)
    rows, cols = linalg.shape(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        pivot = prow[c]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f = Fraction(a[i][c], pivot)
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], prow[c:])]
        pivots.append(c)
    return a, pivots


def fraction_echelon(m):
    """`fraction_forward`, then `Fraction` back substitution: the reduced echelon
    form as `linalg` computed it before its rows became integers."""
    a, pivots = fraction_forward(m)
    for r, c in reversed(list(enumerate(pivots))):
        inv = Fraction(1, a[r][c])
        prow = a[r] = [x * inv for x in a[r]]
        for i in range(r):
            f = a[i][c]
            if f != 0:
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], prow[c:])]
    return a, pivots


def integer_rows(echelon):
    """The routine m -> `echelon(m)` with each row scaled by the lcm of its
    denominators: integer rows in the form `linalg._reduce` returns, for the
    routines that read them (`kernel`, `row_space`, `solve`, `invert`)."""
    def reduce(m):
        ech, pivots = echelon(m)
        scaled = []
        for row in ech:
            d = lcm(*(x.denominator for x in row))
            scaled.append([x.numerator * (d // x.denominator) for x in row])
        return scaled, pivots
    return reduce


fraction_reduce = integer_rows(fraction_echelon)


def gauss_jordan_rank(m):
    """The pivot count of the full Gauss-Jordan echelon form."""
    if not m:
        return 0
    return len(gauss_jordan_echelon(m)[1])


def forward_det(m):
    """Determinant by its own `Fraction` forward elimination, stopping at the first
    missing pivot: the tests' exact determinant, a `Fraction` for `int` input too."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise linalg.ShapeError("determinant requires a square matrix")
    a = fraction_rows(m)
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        result *= a[c][c]
        inv = Fraction(1, a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def lll_scaled_system(space, w):
    """`scaled_system` that LLL-reduces W's basis before diagonalizing it."""
    basis = linalg.lll_reduce(list(w.basis)) if w.dim else []
    res = linalg.congruence_diagonalize(
        restrict(space, Subspace(space.dim, tuple(basis))) if basis else [])
    k = w.dim
    cols = []
    for j in range(k):
        coeffs = [res.transform[i][j] for i in range(k)]
        reduced = linalg.primitive_vector(linalg.combine(coeffs, basis))
        cols.append((reduced, space.inner(reduced, reduced)))
    ordered = sorted(
        cols,
        key=lambda vm: (0 if vm[1] > 0 else (1 if vm[1] < 0 else 2),
                        _first_nonzero_index(vm[0])),
    )
    return ScaledSystem(tuple(v for v, _ in ordered), tuple(m for _, m in ordered))


def rescale_frame(vectors, norms, pair_slots):
    """Rescale frame columns to primitive integer vectors, norms adjusted.

    Hyperbolic-pair slots are rescaled by a common factor so that the fixed
    sum patterns spanning the flag parts survive.
    """
    vecs = list(vectors)
    ms = list(norms)
    paired = set()

    def factor(old, new):
        idx = next(i for i, x in enumerate(old) if x != 0)
        return Fraction(old[idx], new[idx])

    for ia, ib in pair_slots:
        joint = vecs[ia] + vecs[ib]
        prim = linalg.primitive_vector(joint)
        rho = factor(joint, prim)
        n = len(vecs[ia])
        vecs[ia], vecs[ib] = prim[:n], prim[n:]
        ms[ia] = Fraction(ms[ia], rho ** 2)
        ms[ib] = Fraction(ms[ib], rho ** 2)
        paired.update((ia, ib))
    for i, v in enumerate(vecs):
        if i in paired:
            continue
        prim = linalg.primitive_vector(v)
        rho = factor(v, prim)
        vecs[i] = prim
        ms[i] = Fraction(ms[i], rho ** 2)
    return ScaledSystem(tuple(vecs), tuple(ms))


def cursor_representative(class_id, p, q):
    """`representative` as a cursor over the center with a `take` closure.

    Entries are 0 and +-1 only: the center gets a diagonal block realizing
    the pattern (with the derived direction placed per the refined type, a
    light-like derived direction pairing hyperbolically inside the center),
    and each center-radical direction pairs hyperbolically with one of the
    last two basis vectors.
    """
    want_swap = p < q
    pp, qq = max(p, q), min(p, q)
    row = _admissible_row(class_id, pp, qq)
    n = pp + qq
    s, t, u = row.center_signature(pp, qq).as_tuple()
    g = linalg.zeros(n, n)

    center = list(range(n - 2))
    radical_dirs: list[int] = []
    cursor = 0

    def take() -> int:
        nonlocal cursor
        idx = center[cursor]
        cursor += 1
        return idx

    used_s = used_t = used_u = 0
    if row.refined is LineSignature.SPACELIKE:
        g[take()][0] = Fraction(1)
        used_s = 1
    elif row.refined is LineSignature.TIMELIKE:
        g[take()][0] = Fraction(-1)
        used_t = 1
    elif row.refined is LineSignature.LIGHTLIKE:
        i, j = take(), take()
        g[i][j] = g[j][i] = Fraction(1)
        used_s = used_t = 1
    else:  # RADICAL: pair the derived direction out of the center later
        radical_dirs.append(take())
        used_u = 1

    for _ in range(s - used_s):
        i = take()
        g[i][i] = Fraction(1)
    for _ in range(t - used_t):
        i = take()
        g[i][i] = Fraction(-1)
    for _ in range(u - used_u):
        radical_dirs.append(take())

    # center-radical directions pair with the last non-center slots
    noncenter = [n - 2, n - 1]
    for k, i in enumerate(radical_dirs):
        j = noncenter[2 - u + k]
        g[i][j] = g[j][i] = Fraction(1)
    free = noncenter[: 2 - u]
    fill = [Fraction(1)] * (pp - s - u) + [Fraction(-1)] * (qq - t - u)
    if len(fill) != len(free):
        raise AssertionError("representative budget mismatch")
    for i, val in zip(free, fill):
        g[i][i] = val

    if want_swap:
        g = [[-x for x in row_] for row_ in g]
    return g


def axis_pop_representative_flag(class_id, p, q):
    """`representative_flag` popping axes block by block, for p >= q only.

    It builds the flag of the (max, min) space at either order.
    """
    p, q = max(p, q), min(p, q)
    row = _admissible_row(class_id, p, q)
    n = p + q
    s, t, u = row.center_signature(p, q).as_tuple()
    pos = [i for i in range(p)]
    neg = [i for i in range(p, n)]
    big = []

    def unit(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))

    for _ in range(s):
        big.append(unit(pos.pop(0)))
    for _ in range(t):
        big.append(unit(neg.pop(0)))
    nulls = []
    for _ in range(u):
        v = linalg.vec_add(unit(pos.pop(0)), unit(neg.pop(0)))
        nulls.append(v)
        big.append(v)
    if row.refined is LineSignature.SPACELIKE:
        small = big[0]
    elif row.refined is LineSignature.TIMELIKE:
        small = big[s]
    elif row.refined is LineSignature.LIGHTLIKE:
        small = linalg.vec_add(big[0], big[s])
    else:
        small = nulls[0]
    return Flag(Subspace.spanned_by([small], n), Subspace(n, tuple(big)))
