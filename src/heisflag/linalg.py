"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists and vectors are tuples, with every entry a
`fractions.Fraction`.  All routines are pure and exact: no floating point,
no tolerances.  Signatures of symmetric matrices are obtained by congruence
(never from eigenvalues), using a symmetric Gaussian elimination that stays
inside Q by trading zero pivots for hyperbolic-pair congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


class ShapeError(ValueError):
    """Malformed input: wrong dimensions or missing symmetry."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular."""


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[frac(x) for x in row] for row in rows]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def diag(values: Iterable) -> Matrix:
    vals = [frac(x) for x in values]
    m = zeros(len(vals), len(vals))
    for i, v in enumerate(vals):
        m[i][i] = v
    return m


def copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    r, c = shape(m)
    if c != len(v):
        raise ShapeError(f"cannot apply {r}x{c} to vector of length {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = frac(c)
    return tuple(c * x for x in v)


def combine(coeffs: Sequence, vectors: Sequence[Sequence]) -> tuple:
    """The combination sum_k c_k v_k, skipping zero coefficients.

    Entries keep the number type of the input: integer coefficients on
    integer vectors give integers, and any Fraction gives Fractions.
    """
    if len(coeffs) != len(vectors):
        raise ShapeError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    acc = [0 * x for x in vectors[0]] if vectors else []
    for c, v in zip(coeffs, vectors):
        if c:
            acc = [a + c * x for a, x in zip(acc, v)]
    return tuple(acc)


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


def primitive_vector(v: Vector) -> Vector:
    """Rational rescaling of v to coprime integer entries, leading entry positive."""
    if is_zero_vector(v):
        return v
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if next(x for x in ints if x != 0) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


@dataclass(frozen=True)
class CongruenceResult:
    """Invertible P and diagonal D with P^T S P = diag(D), exactly."""

    transform: Matrix
    diagonal: tuple[Fraction, ...]

    def sign_counts(self) -> tuple[int, int, int]:
        pos = sum(1 for d in self.diagonal if d > 0)
        neg = sum(1 for d in self.diagonal if d < 0)
        return pos, neg, len(self.diagonal) - pos - neg


def congruence_diagonalize(s: Matrix) -> CongruenceResult:
    """Diagonalize a symmetric matrix by a rational congruence.

    Zero pivots never force square roots: if basis vectors i, j are both
    null but pair nontrivially, the congruence (e_i, e_j) -> (e_i+e_j,
    e_i-e_j) manufactures pivots +-2*s_ij.  Diagonal entries are left
    unnormalized; only their signs carry the signature.
    """
    n = len(s)
    if any(len(row) != n for row in s):
        raise ShapeError("congruence_diagonalize requires a square matrix")
    if not is_symmetric(s):
        raise ShapeError("congruence_diagonalize requires a symmetric matrix")

    a = copy(s)
    p = identity(n)

    def add_col(dst: int, src: int, factor: Fraction) -> None:
        # basis change b_dst += factor * b_src, applied congruently to a
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for j in range(n):
            a[dst][j] += factor * a[src][j]
        for i in range(n):
            p[i][dst] += factor * p[i][src]

    def swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        for row in p:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                continue  # orthogonal to the whole trailing block: null direction
            if a[j][j] != 0:
                swap(k, j)
            else:
                # hyperbolic pair: (e_k, e_j) -> (e_k+e_j, e_k-e_j)
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
                add_col(i, k, -a[k][i] / pivot)

    return CongruenceResult(p, tuple(a[i][i] for i in range(n)))


def _echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = copy(m)
    rows, cols = shape(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
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


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(_echelon(m)[1])


def kernel(m: Matrix) -> list[Vector]:
    """Basis of the exact null space {v : M v = 0}.

    Empty iff M has full column rank.  Basis vectors are normalized to
    coprime integer entries with positive leading entry.
    """
    rows, cols = shape(m)
    if rows == 0 or cols == 0:
        return [vec(e) for e in identity(cols)] if cols else []
    ech, pivots = _echelon(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -ech[r][f]
        basis.append(primitive_vector(tuple(v)))
    return basis


def det(m: Matrix) -> Fraction:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("determinant requires a square matrix")
    a = copy(m)
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def invert(m: Matrix) -> Matrix:
    """Inverse read off the reduced echelon form of [M | I]."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("inverse requires a square matrix")
    ech, pivots = _echelon([list(row) + e for row, e in zip(m, identity(n))])
    if pivots and pivots[-1] >= n:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in ech]


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if the system is inconsistent."""
    rows, cols = shape(a)
    if len(b) != rows:
        raise ShapeError("right-hand side length does not match row count")
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    ech, pivots = _echelon(aug)
    for r in range(len(pivots), rows):
        if ech[r][cols] != 0:
            return None
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = ech[r][cols]
    return tuple(x)


def row_space(vectors: Sequence[Vector]) -> list[Vector]:
    """Canonical basis of the span: RREF rows rescaled to coprime integers."""
    if not vectors:
        return []
    ech, pivots = _echelon([list(v) for v in vectors])
    return [primitive_vector(tuple(ech[r])) for r in range(len(pivots))]


def intersect(span_a: Sequence[Vector], span_b: Sequence[Vector]) -> list[Vector]:
    """Basis of span(A) cap span(B), independent of the bases chosen."""
    if not span_a or not span_b:
        return []
    dims = {len(v) for v in span_a} | {len(v) for v in span_b}
    if len(dims) != 1:
        raise ShapeError("intersect requires vectors of a common ambient dimension")
    a = list(span_a)
    b = list(span_b)
    # columns of [A | -B]; kernel elements give x with A x = B y
    stacked = [[av[i] for av in a] + [-bv[i] for bv in b] for i in range(dims.pop())]
    result = [combine(k[: len(a)], a) for k in kernel(stacked)]
    return row_space([v for v in result if not is_zero_vector(v)])


def in_span(v: Vector, vectors: Sequence[Vector]) -> bool:
    if is_zero_vector(v):
        return True
    if not vectors:
        return False
    basis = list(vectors)
    cols = [[bv[i] for bv in basis] for i in range(len(v))]
    return solve(cols, v) is not None


def lll_reduce(vectors: Sequence[Vector], delta: Fraction = Fraction(3, 4)) -> list[Vector]:
    """Lattice-reduced integer basis with the same rational span.

    Classic Lenstra-Lenstra-Lovasz reduction in exact arithmetic, applied to
    the primitive integer forms of the input vectors.  Used to keep entries
    small before expensive exact constructions; any basis of the span is as
    good as any other for the callers.
    """
    b = [list(primitive_vector(v)) for v in vectors]
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
                mu[i][j] = dot(b[i], star[j]) / norms[j]
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
                # b_k -= q b_j leaves every b*_i alone and shifts row k of mu
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return [primitive_vector(tuple(row)) for row in b]


def extend_to_independent(base: Sequence[Vector], pool: Sequence[Vector],
                          target_rank: int) -> list[Vector]:
    """Grow `base` by vectors from `pool` until the span has the target rank.

    Takes the first pool pivots of one echelon of the columns [base | pool]:
    each pool vector outside the span of all the columns before it, in order.
    """
    pivots = _echelon(transpose(list(base) + list(pool)))[1]
    from_pool = [c - len(base) for c in pivots if c >= len(base)]
    need = target_rank - (len(pivots) - len(from_pool))
    if need < 0 or need > len(from_pool):
        raise ShapeError("pool does not span enough directions")
    return list(base) + [pool[c] for c in from_pool[:need]]
