"""Exact rational samplers for isometries, flags and Gram matrices.

Invariance tests want exact group elements, not floating-point ones.  The
Cayley transform g = (I - S)(I + S)^{-1} of a rational S that is skew with
respect to the standard form lands in O(p, q) exactly; composing with signed
block permutations reaches beyond the identity component.  Flags and Gram
matrices are sampled from small integer vectors so that degenerate
configurations, which carry the interesting orbit types, actually occur.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from functools import lru_cache

from . import linalg
from .forms import Flag, PreconditionError, QuadraticSpace, Subspace
from .linalg import Matrix


def _cayley(p: int, q: int, draw_k: Callable[[], Matrix]) -> Matrix:
    """(I - S)(I + S)^{-1} for S = I_{p,q} K (K with its last q rows negated),
    with K redrawn by `draw_k` until I + S is invertible.

    For skew-symmetric K, S satisfies S^T I_{p,q} + I_{p,q} S = 0, and then
    the transform preserves the standard form exactly.  It is computed as
    2 (I + S)^{-1} - I, which is the same matrix because I - S = 2I - (I + S).
    This is the one rejection loop of the Cayley samplers; each passes only
    its own draw of K, so their draw order is the loop's.
    """
    while True:
        i_plus_s = [[(x if i < p else -x) + (1 if i == j else 0) for j, x in enumerate(row)]
                    for i, row in enumerate(draw_k())]
        try:
            inverse, d = linalg.integer_inverse(i_plus_s)  # (I + S)^{-1} = M / d
        except linalg.SingularMatrixError:
            continue
        return [[linalg.ratio(2 * x - (d if i == j else 0), d) for j, x in enumerate(row)]
                for i, row in enumerate(inverse)]


def cayley_opq(p: int, q: int, rng: random.Random) -> Matrix:
    """Exact element of O(p, q) via the Cayley transform of a random
    skew-symmetric K."""
    n = p + q

    def draw_k() -> Matrix:
        k = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                x = linalg.ratio(rng.randint(-2, 2), rng.randint(1, 3))
                k[i][j] = x
                k[j][i] = -x
        return k

    return _cayley(p, q, draw_k)


def _draw_signed_permutation(p: int, q: int, rng: random.Random) -> list[tuple[int, int]]:
    """(perm[j], sign_j) for each column j: the first p axes are permuted among
    themselves, the last q among themselves, with arbitrary signs."""
    n = p + q
    perm = list(range(p))
    rng.shuffle(perm)
    tail = list(range(p, n))
    rng.shuffle(tail)
    perm += tail
    return [(i, rng.choice((1, -1))) for i in perm]


def _permute_rows(perm: list[tuple[int, int]], g: Matrix) -> Matrix:
    """P g for the signed permutation P drawn as `perm`, by moving and
    negating rows: row perm[j] of P g is sign_j times row j of g."""
    out: Matrix = [[]] * len(g)
    for j, (i, sign) in enumerate(perm):
        out[i] = list(g[j]) if sign == 1 else [-x for x in g[j]]
    return out


def random_opq(p: int, q: int, rng: random.Random) -> Matrix:
    """Signed permutation composed with a Cayley element: exact, beyond the identity component."""
    perm = _draw_signed_permutation(p, q, rng)  # drawn first: seeded callers rely on the order
    return _permute_rows(perm, cayley_opq(p, q, rng))


def plane_cayley_opq(p: int, q: int, rng: random.Random) -> Matrix:
    """Cayley element supported on one coordinate plane: exact and small.

    Entries stay bounded independently of the dimension, which keeps
    downstream floating-point work well conditioned; useful wherever group
    images feed the numerical witness rather than exact invariant checks.
    """
    n = p + q

    def draw_k() -> Matrix:
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        k = linalg.zeros(n, n)
        x = linalg.ratio(rng.randint(1, 2), rng.randint(1, 3))
        k[i][j] = x
        k[j][i] = -x
        return k

    return _cayley(p, q, draw_k)


def mild_opq(p: int, q: int, rng: random.Random) -> Matrix:
    """Signed permutation times two plane Cayley rotations: exact, well conditioned."""
    g = linalg.mat_mul(plane_cayley_opq(p, q, rng), plane_cayley_opq(p, q, rng))
    return _permute_rows(_draw_signed_permutation(p, q, rng), g)


def apply_to_flag(g: Matrix, f: Flag) -> Flag:
    """The flag (g . small, g . big), with basis vectors rescaled to primitive
    integer form (spans are unchanged; later exact arithmetic stays cheap).

    g is scaled once to integers by `linalg.scaled_to_int`, so each image
    is a combination of `int` columns; the primitive rescale makes that
    positive scale irrelevant.
    """
    cols = list(zip(*linalg.scaled_to_int(g)[0]))
    small = [linalg.primitive_vector(linalg.combine(v, cols)) for v in f.small.basis]
    big = [linalg.primitive_vector(linalg.combine(v, cols)) for v in f.big.basis]
    n = f.big.ambient_dim
    return Flag(Subspace(n, tuple(small)), Subspace(n, tuple(big)))


def positioned_pool(n: int, coords: Sequence[int]) -> list[tuple[tuple[int, ...], int, int, int]]:
    """The vectors of `integer_pool(n)` on the ascending coordinates `coords`, in pool
    order, each as (v, i, j, e) with v = e_i + e e_j: i its first nonzero position,
    whose entry is +1, and j its second, with entry e = +-1, or j = i and e = 0
    for a unit vector."""
    out = []
    for k, i in enumerate(coords):
        for j, e in [(i, 0), *((j, e) for j in coords[k + 1:] for e in (1, -1))]:
            v = [0] * n
            v[j] = e
            v[i] = 1
            out.append((tuple(v), i, j, e))
    return out


@lru_cache(maxsize=None)
def integer_pool(n: int) -> tuple[tuple[int, ...], ...]:
    """All {-1, 0, 1} vectors with at most two nonzero entries, first nonzero +1, as `int`s:
    e_i, then e_i + e_j and e_i - e_j for each j > i, for i = 0, 1, ..."""
    return tuple(v for v, _, _, _ in positioned_pool(n, range(n)))


def random_flag(p: int, q: int, rng: random.Random) -> Flag:
    """Random line in a codimension-two subspace, spanned by small integer vectors;
    degenerate types occur often.

    The big part's basis is drawn from the cached `integer_pool` and ranked
    as `int` rows, which are the basis as drawn.  Both parts are
    independent by construction (independent picks, and a small part
    spanned by one nonzero combination of them), so neither is ranked
    again; `Flag` still checks that the small part lies in the big one.
    """
    n = p + q
    if n < 4:
        raise PreconditionError(f"flag shape (1, {n - 2}) needs 0 <= k1 < k2 <= n = {n}")
    pool = integer_pool(n)
    while True:
        picks: list[tuple[int, ...]] = []
        while len(picks) < n - 2:
            cand = rng.choice(pool)
            if linalg.rank(picks + [cand]) == len(picks) + 1:
                picks.append(cand)
        big = Subspace._independent(n, tuple(picks))
        coeffs_pool = [-1, 0, 1]
        for _ in range(20):
            coeffs = [rng.choice(coeffs_pool) for _ in range(n - 2)]
            if any(coeffs):
                return Flag(Subspace._independent(n, (linalg.combine(coeffs, big.basis),)), big)


def random_gram(p: int, q: int, rng: random.Random) -> Matrix:
    """Random Gram matrix h^T I_{p,q} h of signature (p, q), for an invertible h with
    columns from the small-vector pool: one standard-form pairing of those columns.

    The columns are drawn from the cached `integer_pool`, h is invertible
    iff they have full `linalg.rank`, and the pairing takes them as `int`s.
    A draw that repeats a column is singular, so it is refused before any
    rank; the draws stay the same.
    """
    n = p + q
    pool = integer_pool(n)
    while True:
        cols = [rng.choice(pool) for _ in range(n)]
        if len(set(cols)) == n and linalg.rank(cols) == n:
            return QuadraticSpace.standard(p, q).pairing(cols, cols)
