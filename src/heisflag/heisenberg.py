"""Classification of inner products on h3 + R^(n-3) up to scaling and automorphisms.

The Lie algebra is spanned by e_0, ..., e_{n-1} (indices 0-based) with the
single nonzero bracket [e_{n-2}, e_{n-1}] = e_0.  Its center is spanned by
the first n-2 basis vectors and its derived ideal by e_0.  An inner product
of signature (p, q) with p + q = n >= 4 is classified, up to a nonzero scale
and a Lie algebra automorphism, by the signature of its restriction to the
center together with the refined line signature of the derived ideal inside
the center.  The admissible pairs form a fixed 21-row taxonomy; which rows
occur for a given (p, q) is derived from the possible-signature sets, never
hardcoded.  What a line type contributes is read off `LineSignature`: the
rows of a center pattern are the types whose null cell fits its radical,
and a row's flag invariants are its type's `flag_invariants` (of the
negated type when p < q).

The scaling-and-automorphism group acts through the invertible block upper
triangular matrices of block sizes (1, n-3, 2); `parabolic_sample` draws
exact rational elements and splits them into scale times automorphism.

Each row has one cell layout of the center, `_center_cells`: +1, -1 and
radical cells and hyperbolic pairs in basis order, e_0 in the first, which
fills its type's `cells`.
`representative` writes it as a Gram matrix and `representative_flag` as a
flag of the standard space.  These and `MetricClass.center_signature` and
`flag_invariants` answer for the (p, q) given (p < q negates the form);
`classify_metric`, `admissible_classes` and `Classification` report in (max, min).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .forms import (
    CODIM2_PATTERNS,
    Flag,
    FlagInvariants,
    LineSignature,
    Signature,
    Subspace,
    possible_line_signatures,
)
from .linalg import Matrix, PreconditionError, Vector


class UnsupportedSignatureError(PreconditionError):
    """Signature outside the scope of the classification (p = 0, q = 0 or n < 4)."""


@dataclass(frozen=True)
class HeisenbergAlgebra:
    """h3 + R^(n-3): two-step nilpotent, one bracket [e_{n-2}, e_{n-1}] = e_0."""

    n: int

    def __post_init__(self):
        linalg.require_ints(n=self.n)
        if self.n < 4:
            raise UnsupportedSignatureError(
                f"n = {self.n} is out of scope: the algebra h3 + R^(n-3) needs n >= 4")


# ---------------------------------------------------------------------------
# the 21-row taxonomy

@dataclass(frozen=True)
class MetricClass:
    """One row of the taxonomy: a center-signature pattern plus a refined line type."""

    id: int
    pattern: tuple[int, int, int]  # (dp, dq, u): center signature (p+dp, q+dq, u)
    refined: LineSignature

    def center_signature(self, p: int, q: int) -> Signature:
        """The center's signature in the (p, q) space; p < q swaps pos and neg."""
        dp, dq, u = self.pattern
        if p < q:
            dp, dq = dq, dp
        return Signature(p + dp, q + dq, u)

    def flag_invariants(self, p: int, q: int) -> FlagInvariants:
        """The orbit invariants of the flag (derived line, center) this row names in (p, q);
        p < q negates the form, and with it the line's type."""
        refined = self.refined if p >= q else self.refined.negated()
        return refined.flag_invariants(self.center_signature(p, q))

    def pattern_str(self) -> str:
        dp, dq, u = self.pattern
        ps = "p" if dp == 0 else f"p{dp:+d}"
        qs = "q" if dq == 0 else f"q{dq:+d}"
        return f"({ps}, {qs}, {u})"


def _build_rows() -> tuple[MetricClass, ...]:
    rows = []
    next_id = 1
    for pattern in CODIM2_PATTERNS:
        for refined in LineSignature:
            if refined.cells[2] <= pattern[2]:
                rows.append(MetricClass(next_id, pattern, refined))
                next_id += 1
    return tuple(rows)


CLASS_ROWS: tuple[MetricClass, ...] = _build_rows()
assert len(CLASS_ROWS) == 21


@dataclass(frozen=True)
class ClassTable:
    """The admissible classes for one signature, in taxonomy order."""

    p: int
    q: int
    classes: tuple[MetricClass, ...]

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.classes)

    @property
    def count(self) -> int:
        return len(self.classes)


def admissible_classes(p: int, q: int) -> ClassTable:
    """Derive the admissible taxonomy rows for signature (p, q).

    Canonicalizes to p >= q (the two orders have identical tables).  A row is
    admissible iff its concrete center signature has no negative entry (the
    rows follow `CODIM2_PATTERNS`, so it is then a possible codimension-two
    signature) and its refined line type can occur inside that signature.
    Needs `int`s p, q (else `PreconditionError`, before the cache sees them);
    cached per signature.
    """
    linalg.require_ints(p=p, q=q)
    return _admissible_cached(p, q)[0]


@lru_cache(maxsize=None, typed=True)  # typed: a bool never meets the table of its int
def _admissible_cached(p: int, q: int) -> tuple[
        ClassTable, dict[tuple[Signature, LineSignature], MetricClass]]:
    """The table for (p, q) and its rows keyed by (center signature, refined line type)."""
    if p < 1 or q < 1:
        raise UnsupportedSignatureError("need p, q >= 1 (definite metrics are out of scope)")
    if p + q < 4:
        raise UnsupportedSignatureError("need p + q >= 4; lower dimensions are out of scope")
    p, q = max(p, q), min(p, q)
    rows = []
    by_invariants = {}
    for row in CLASS_ROWS:
        dp, dq, u = row.pattern
        if p + dp < 0 or q + dq < 0:
            continue
        sig = row.center_signature(p, q)
        if row.refined not in possible_line_signatures(sig.pos, sig.neg, sig.nul):
            continue
        rows.append(row)
        by_invariants[sig, row.refined] = row
    if len(by_invariants) != len(rows):
        raise AssertionError("admissible rows must have distinct concrete invariants")
    return ClassTable(p, q, tuple(rows)), by_invariants


@dataclass(frozen=True)
class Classification:
    """Result of classifying one Gram matrix: a taxonomy row in (max, min) convention."""

    p: int
    q: int
    swapped: bool
    metric_class: MetricClass
    center_signature: Signature
    refined: LineSignature

    @property
    def class_id(self) -> int:
        return self.metric_class.id


def classify_metric(alg: HeisenbergAlgebra, gram: Matrix) -> Classification:
    """Map a nondegenerate signature-(p, q) Gram matrix to its taxonomy row.

    Inputs with p < q are classified as their negation (the signature-swap
    correspondence); the result records the swap and reports in the p >= q
    convention.  One congruence gives both signatures: the center is the
    leading coordinate block, so its signature is the leading block's, and
    negation just exchanges positive and negative counts.  The refined type
    of e_0 is `LineSignature.of` its norm (negated when swapped) and its
    pairings with the center, the leading n - 2 entries of row 0.
    """
    n = alg.n
    if linalg.shape(gram)[0] != n:
        raise PreconditionError(f"Gram matrix must be {n}x{n}")
    res = linalg.congruence_diagonalize(gram, leading=n - 2)
    sig = Signature(*res.sign_counts())
    if sig.nul:
        raise PreconditionError(f"Gram matrix is degenerate: signature {sig}")
    if sig.pos == 0 or sig.neg == 0:
        raise UnsupportedSignatureError(
            "definite (Riemannian) inner products are out of scope here")
    swapped = sig.pos < sig.neg
    p, q = max(sig.pos, sig.neg), min(sig.pos, sig.neg)
    pos, neg, nul = res.leading_counts
    center_sig = Signature(neg, pos, nul) if swapped else Signature(pos, neg, nul)

    # row 0 of the Gram matrix holds e_0's norm and its pairings with the center,
    # which `refined_line_signature` of e_0 inside the center reads too
    e0 = gram[0][:n - 2]
    refined = LineSignature.of(-e0[0] if swapped else e0[0], not any(e0))
    row = _admissible_cached(p, q)[1].get((center_sig, refined))
    if row is None:
        raise AssertionError(
            f"no taxonomy row matches center signature {center_sig}, {refined}")
    return Classification(p, q, swapped, row, center_sig, refined)


def _admissible_row(class_id: int, p: int, q: int) -> MetricClass:
    """The taxonomy row `class_id` of the admissible table for (p, q)."""
    linalg.require_ints(class_id=class_id)
    row = next((r for r in admissible_classes(p, q).classes if r.id == class_id), None)
    if row is None:
        raise PreconditionError(f"class {class_id} is not admissible for signature ({p}, {q})")
    return row


def _center_cells(row: MetricClass, p: int, q: int) -> tuple[LineSignature, ...]:
    """The center's cells in basis order, for p >= q.

    A cell is a +1 (SPACELIKE), -1 (TIMELIKE) or radical (RADICAL) direction or
    a hyperbolic pair (LIGHTLIKE); e_0 lies in the first, of the refined type,
    and the others fill what that type's `cells` leave of the center.
    """
    s, t, u = (x - c for x, c in zip(row.center_signature(p, q).as_tuple(), row.refined.cells))
    return ((row.refined,) + (LineSignature.SPACELIKE,) * s
            + (LineSignature.TIMELIKE,) * t + (LineSignature.RADICAL,) * u)


def representative(class_id: int, p: int, q: int) -> Matrix:
    """A canonical signature-(p, q) Gram matrix classifying to the given row.

    Entries are the `int`s 0 and +-1: the cells put +-1 on the diagonal and
    a pair's 1 off it, the free trailing slots get +1 then -1, and each
    radical cell pairs with the next trailing slot.
    """
    row = _admissible_row(class_id, p, q)
    pp, qq = max(p, q), min(p, q)
    n = pp + qq
    s, t, u = row.center_signature(pp, qq).as_tuple()
    g = linalg.zeros(n, n)
    radical_dirs: list[int] = []
    i = 0
    for cell in _center_cells(row, pp, qq):
        if cell is LineSignature.LIGHTLIKE:
            g[i][i + 1] = g[i + 1][i] = 1
            i += 1
        elif cell is LineSignature.RADICAL:
            radical_dirs.append(i)
        else:
            g[i][i] = 1 if cell is LineSignature.SPACELIKE else -1
        i += 1
    fill = [1] * (pp - s - u) + [-1] * (qq - t - u)
    for j, val in enumerate(fill, n - 2):
        g[j][j] = val
    for j, k in enumerate(radical_dirs, n - 2 + len(fill)):
        g[k][j] = g[j][k] = 1
    if p < q:
        g = [[-x for x in row_] for row_ in g]
    return g


def representative_flag(class_id: int, p: int, q: int) -> Flag:
    """A flag in the standard (p, q) space realizing `row.flag_invariants(p, q)`.

    +-1 cells take the leading axes of their block (a pair one of each), and
    radical cells e+ + e- on the next axes.  p < q moves the first max(p, q)
    axes to the back, which negates the form.
    """
    row = _admissible_row(class_id, p, q)
    pp, qq = max(p, q), min(p, q)
    n = pp + qq
    s, t, _ = row.center_signature(pp, qq).as_tuple()
    axes = [r[pp:] + r[:pp] if p < q else r for r in map(tuple, linalg.identity(n))]
    plus, minus = iter(axes[:s]), iter(axes[pp:pp + t])
    null_axes = zip(axes[s:pp], axes[pp + t:])
    big: list[Vector] = []
    for cell in _center_cells(row, pp, qq):
        if cell is LineSignature.RADICAL:
            big.append(linalg.vec_add(*next(null_axes)))
            continue
        if cell is not LineSignature.TIMELIKE:
            big.append(next(plus))
        if cell is not LineSignature.SPACELIKE:
            big.append(next(minus))
    small = linalg.vec_add(big[0], big[1]) if row.refined is LineSignature.LIGHTLIKE else big[0]
    return Flag(Subspace.spanned_by([small], n), Subspace(n, tuple(big)))


# ---------------------------------------------------------------------------
# the scaling-and-automorphism group


@dataclass(frozen=True, repr=False)
class ScaledAutomorphism:
    """An invertible (1, n-3, 2) block upper triangular matrix, split as scale * automorphism.

    The (0, 0) entry a and the trailing 2x2 block D of any such matrix
    satisfy a * c = det D for the scale c = det(D) / a, and matrix / c
    preserves the bracket.  The matrix, the scale and the automorphism are
    canonical, each quotient built by `linalg.ratio`.
    """

    matrix: tuple[tuple[int | Fraction, ...], ...]
    scale: int | Fraction

    @classmethod
    def from_matrix(cls, m: Matrix) -> "ScaledAutomorphism":
        m = linalg.mat(m)  # read once, canonical
        det_d = _block_det_d(m, len(m))
        if not det_d:
            raise PreconditionError("matrix is not invertible block upper triangular (1, n-3, 2)")
        return cls(tuple(tuple(row) for row in m), linalg.ratio(det_d, m[0][0]))

    @cached_property
    def automorphism(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """matrix / scale, divided out when first read; the group action reads the matrix."""
        return tuple(tuple(linalg.ratio(x, self.scale) for x in row) for row in self.matrix)

    def __repr__(self) -> str:
        return (f"ScaledAutomorphism(matrix={self.matrix!r}, scale={self.scale!r}, "
                f"automorphism={self.automorphism!r})")

    def preserves_bracket(self, alg: HeisenbergAlgebra) -> bool:
        """phi([x, y]) = [phi x, phi y] for phi = `automorphism`, read off phi in closed form.

        With a, b = n-2, n-1, [x, y] = (x_a y_b - x_b y_a) e_0, so
        [phi e_i, phi e_j] is the (i, j) minor of phi's rows a and b times
        e_0, and phi [e_i, e_j] is phi e_0 for (i, j) = (a, b) and 0 for every
        other pair i < j.  So phi preserves the bracket iff column 0 of phi is
        that minor at (a, b) times e_0 and the minor vanishes at every other
        pair of columns.
        """
        n = alg.n
        a, b = n - 2, n - 1
        phi = self.automorphism
        ra, rb = phi[a], phi[b]
        if [row[0] for row in phi] != [ra[a] * rb[b] - ra[b] * rb[a]] + [0] * (n - 1):
            return False
        return all(ra[i] * rb[j] == ra[j] * rb[i]
                   for j in range(n) for i in range(j) if (i, j) != (a, b))


def is_scaled_automorphism(g: Matrix, n: int) -> bool:
    """True iff g is invertible and block upper triangular with block sizes (1, n-3, 2).

    A block triangular g has det g = a * det(middle) * det(D), with a the
    (0, 0) entry, so it is invertible iff a and det D are nonzero and the
    (n-3) x (n-3) middle block has full rank.
    """
    linalg.require_ints(n=n)
    return _block_det_d(linalg.mat(g), n) != 0


def _block_det_d(g: Matrix, n: int) -> Fraction | int:
    """det D of the read matrix g when `is_scaled_automorphism(g, n)` holds, and 0 otherwise."""
    if n < 3 or linalg.shape(g) != (n, n):
        return 0
    for i in range(1, n):
        if g[i][0] != 0:
            return 0
    for i in (n - 2, n - 1):
        for j in range(1, n - 2):
            if g[i][j] != 0:
                return 0
    det_d = g[n - 2][n - 2] * g[n - 1][n - 1] - g[n - 2][n - 1] * g[n - 1][n - 2]
    if g[0][0] != 0 and det_d != 0 and linalg.rank([row[1:n - 2] for row in g[1:n - 2]]) == n - 3:
        return det_d
    return 0


def parabolic_sample(n: int, seed: int | random.Random) -> ScaledAutomorphism:
    """A random exact rational element of the scaling-and-automorphism group.

    Entries are drawn from a small pool of fractions; singular draws, which
    `ScaledAutomorphism.from_matrix` rejects, are resampled.
    """
    HeisenbergAlgebra(n)  # n must name an algebra: an int >= 4
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def draw() -> int | Fraction:
        return linalg.ratio(rng.randint(-3, 3), rng.randint(1, 3))

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
        try:
            return ScaledAutomorphism.from_matrix(m)
        except PreconditionError:
            continue


def act_on_metric(g: Matrix, gram: Matrix) -> Matrix:
    """The pullback action on Gram matrices: g . A = g^{-T} A g^{-1}, exactly.

    Computed in `int`: with g^{-1} = M / d from `linalg.integer_inverse` and
    L A from `linalg.read_gram` (L the lcm of A's denominators),
    g . A = M^T (L A) M / (d^2 L), each product summed by `linalg._int_sum`.
    The product is symmetric, so only its lower triangle is summed (row i
    up to column i), and `linalg.ratio` divides each entry once, shared
    with its mirror.
    """
    m, d = linalg.integer_inverse(g)
    a, scale = linalg.read_gram(gram)
    n = len(m)
    if len(a) != n:
        raise linalg.ShapeError("matrix sizes do not match")
    am = [linalg._int_sum(row, m, n) for row in a]  # row i of L A M
    den = d * d * scale
    out: Matrix = [[0] * n for _ in range(n)]
    for i, col in enumerate(zip(*m)):  # row i of M^T (L A M), up to column i
        for j, s in enumerate(linalg._int_sum(col, am, i + 1)):
            if s:
                out[i][j] = out[j][i] = linalg.ratio(s, den)
    return out
