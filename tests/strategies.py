"""Hypothesis strategies for flags and null systems, biased toward degenerate cases.

Generic random inputs almost never have a degenerate big part, a line in its
radical or a part supported on one coordinate block, yet those are the cases
where intersection counts are nonzero.  These strategies build them on
purpose in the standard space of signature (p, q).  The seeded helpers
`random_symmetric` and `random_nondegenerate_symmetric` draw rational
symmetric matrices for the congruence and curvature tests.
`canonical_entries` is the one entry-type check of the tests: every exact
result of the library (the readers `mat` and `vec`, the products, spans,
constructors and `solve`, the congruence's rationals, the samplers, the
group action and the curvature builders) holds an `int` where a value is
integral and a `Fraction` where it is not.  `as_fractions` writes each exact
entry as a `Fraction`, for the digested pins that were taken when the
library returned `Fraction`s: they are kept by value.
"""

import random
from fractions import Fraction as F

from hypothesis import strategies as st

import oracles
from heisflag import linalg, sampling
from heisflag.forms import Flag, QuadraticSpace, Subspace

COEFFS = st.sampled_from([0, 0, 1, -1, 2])


def canonical_entries(x) -> bool:
    """True iff every leaf of nested lists and tuples is an `int` (not a `bool`) or a
    `Fraction` whose denominator is not 1."""
    if isinstance(x, (list, tuple)):
        return all(canonical_entries(y) for y in x)
    return type(x) is int or type(x) is F and x.denominator != 1


def as_fractions(x):
    """x with every `int` leaf of nested lists and tuples written as a `Fraction`; a `bool`,
    None or any other leaf stays as it is."""
    if isinstance(x, (list, tuple)):
        return type(x)(map(as_fractions, x))
    return F(x) if type(x) is int else x


def fraction_vector(entries) -> tuple:
    """The entries, a sequence or an iterator, as a tuple of `Fraction`s: rational test
    input, an integral entry included, where `linalg.vec` would make it canonical."""
    return tuple(map(F, entries))


def unit(n, i):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def random_symmetric(n, rng, num_range=(-9, 9), den_range=(1, 9)):
    """Random symmetric rational matrix with bounded numerators and denominators."""
    m = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            x = F(rng.randint(*num_range), rng.randint(*den_range))
            m[i][j] = x
            m[j][i] = x
    return m


def random_nondegenerate_symmetric(n, rng):
    """`random_symmetric` with entries a/b, |a| <= 4, 1 <= b <= 3, redrawn until nonsingular."""
    while True:
        m = random_symmetric(n, rng, (-4, 4), (1, 3))
        if linalg.rank(m) == len(m):
            return m


def _grow(draw, base, candidates, fallback, target):
    """Add drawn candidates that raise the rank, then complete from `fallback`."""
    chosen = list(base)
    for _ in range(2 * target):
        if len(chosen) == target:
            break
        cand = draw(candidates)
        if linalg.rank([list(v) for v in chosen] + [list(cand)]) > len(chosen):
            chosen.append(cand)
    if len(chosen) < target:
        chosen = linalg.extend_to_independent(chosen, fallback, target)
    return chosen


@st.composite
def degenerate_flags(draw, codim_two=False):
    """(p, q, flag) with n = p + q in 4..7.

    The big part is built inside the orthogonal complement of zero, one or
    two disjoint null vectors e_i +- e_{p+j}, which then lie in its radical.
    Its other vectors are unit vectors (supported on one block) or small
    combinations of a basis of that complement.  In an indefinite space one
    draw in three also puts a hyperbolic plane of unit vectors e_i, e_{p+j}
    in the big part, with at most n - 4 radical null vectors to leave room
    for it; the small part then starts with a lightlike line, e_i +- e_{p+j}
    plus a radical vector.  The small part's other vectors are radical
    lines, big basis vectors and combinations of them.  With `codim_two`
    the shape is (1, n-2); otherwise any shape (k1, k2) with 1 <= k1 < k2.
    Some flags are then moved by an exact isometry.
    """
    n = draw(st.integers(4, 7))
    p = draw(st.sampled_from([0, n] + 3 * list(range(1, n))))
    q = n - p
    space = QuadraticSpace.standard(p, q)
    # a hyperbolic plane e_i, e_{p+j} in the big part, outside its radical
    hyperbolic = 0 < p < n and draw(st.integers(0, 2)) == 0
    rad_dim = min(draw(st.sampled_from([0, 1, 1, 2, 2])), p, q)
    if hyperbolic:
        rad_dim = min(rad_dim, p - 1, q - 1, n - 4)
    order_plus, order_minus = draw(st.permutations(range(p))), draw(st.permutations(range(p, n)))
    plus, minus = order_plus[:rad_dim], order_minus[:rad_dim]
    rs = [linalg.vec_add(unit(n, i), linalg.vec_scale(draw(st.sampled_from([1, -1])), unit(n, j)))
          for i, j in zip(plus, minus)]
    units = [unit(n, i) for i in range(n)]
    perp = linalg.kernel(space.pairing(rs, units)) if rs else units
    if codim_two:
        k2 = n - 2
    else:
        k2 = draw(st.integers(max(2, rad_dim + 2 * hyperbolic), n - rad_dim))
    outside = [u for i, u in enumerate(units) if i not in plus and i not in minus]
    combos = st.lists(COEFFS, min_size=len(perp), max_size=len(perp)).map(
        lambda c: linalg.combine(c, perp))
    plane = [unit(n, order_plus[rad_dim]), unit(n, order_minus[rad_dim])] if hyperbolic else []
    big_basis = _grow(draw, rs + plane, st.sampled_from(outside) | combos if outside else combos,
                      perp, k2)
    big = Subspace(n, tuple(big_basis))

    k1 = 1 if codim_two else draw(st.integers(1, k2 - 1))
    line_choices = [st.sampled_from(big_basis),
                    st.lists(COEFFS, min_size=k2, max_size=k2).map(
                        lambda c: linalg.combine(c, big_basis))]
    if rs:
        line_choices.append(st.lists(COEFFS, min_size=len(rs), max_size=len(rs)).map(
            lambda c: linalg.combine(c, rs)))
    first = []
    if plane:
        # null, and pairs with the plane: a lightlike line of the big part
        coeffs = draw(st.lists(COEFFS, min_size=len(rs), max_size=len(rs)))
        first = [linalg.combine([1, draw(st.sampled_from([1, -1]))] + coeffs, plane + rs)]
    small_basis = _grow(draw, first, st.one_of(line_choices), big_basis, k1)
    f = Flag(Subspace(n, tuple(small_basis)), big)
    if p and q and draw(st.integers(0, 3)) == 0:
        g = sampling.mild_opq(p, q, random.Random(draw(st.integers(0, 99))))
        f = sampling.apply_to_flag(g, f)
    return p, q, f


@st.composite
def null_systems(draw):
    """(space, nulls): pairwise orthogonal null vectors, and some invalid inputs.

    The space is the standard one or its pullback by an invertible integer
    matrix h, whose nulls are h^-1 of standard ones.  A fraction of draws is
    made invalid on purpose: a repeated null, two nulls that pair, a non-null
    vector, or a degenerate ambient form.
    """
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    n = p + q
    k = min(p, q, draw(st.sampled_from([0, 1, 2, 2, 3, 4])))
    plus = draw(st.permutations(range(p)))[:k]
    minus = draw(st.permutations(range(p, n)))[:k]
    signs = [draw(st.sampled_from([1, -1])) for _ in range(k)]
    nulls = [linalg.vec_scale(draw(st.sampled_from([1, 2, -3])),
                              linalg.vec_add(unit(n, i), linalg.vec_scale(s, unit(n, j))))
             for i, j, s in zip(plus, minus, signs)]
    fault = draw(st.sampled_from([None, None, None, "repeat", "pairing", "non-null", "degenerate"]))
    if fault == "repeat" and nulls:
        nulls.append(nulls[0])
    elif fault == "pairing" and nulls:
        # the other null of the hyperbolic plane pairs to 2 with the first
        partner = linalg.vec_scale(signs[0], unit(n, minus[0]))
        nulls.append(linalg.vec_sub(unit(n, plus[0]), partner))
    elif fault == "non-null":
        nulls.append(unit(n, 0))
    space = QuadraticSpace.standard(p, q)
    kind = draw(st.sampled_from(["standard", "moved", "pulled back"]))
    if kind == "moved":
        g = sampling.mild_opq(p, q, random.Random(draw(st.integers(0, 99))))
        nulls = [linalg.mat_vec(g, v) for v in nulls]
    elif kind == "pulled back":
        rng = random.Random(draw(st.integers(0, 99)))
        pool = oracles.fraction_pool(n)
        while True:
            cols = [rng.choice(pool) for _ in range(n)]
            h = [[cols[j][i] for j in range(n)] for i in range(n)]
            if linalg.rank(h) == len(h):
                break
        nulls = [linalg.solve(h, v) for v in nulls]
        space = QuadraticSpace.from_matrix(space.pairing(cols, cols))
    if fault == "degenerate":
        gram = linalg.mat(space.gram)
        gram[0] = [F(0)] * n
        for row in gram:
            row[0] = F(0)
        space = QuadraticSpace.from_matrix(gram)
    return space, nulls


@st.composite
def degenerate_spaces_and_subspaces(draw):
    """(space, subspaces) for a Gram matrix diag(+1 x a, -1 x b, 0 x z), z = 0..2,
    possibly pulled back by an invertible integer matrix h.

    The subspaces are spanned by unit vectors, radical units and lightlike
    vectors e_i +- e_{a+j}; a radical line and a lightlike one, which share a
    signature but not their radical intersection, are always among them
    when the form has both.
    """
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 3))
    z = draw(st.sampled_from([0, 1, 1, 2, 2]))
    n = a + b + z
    if n == 0:
        a = 1
        n = 1
    gram = linalg.diag([1] * a + [-1] * b + [0] * (n - a - b))
    candidates = [unit(n, i) for i in range(n)]
    candidates += [linalg.vec_add(unit(n, i), linalg.vec_scale(s, unit(n, j)))
                   for i in range(a) for j in range(a, a + b) for s in (1, -1)]
    candidates += [linalg.vec_add(u, unit(n, k)) for u in candidates[n:] for k in range(a + b, n)]
    vector_lists = st.lists(st.sampled_from(candidates), min_size=1, max_size=min(n, 3))
    spans = [draw(vector_lists) for _ in range(draw(st.integers(2, 5)))]
    if a and b and n > a + b:
        # same signature, radical intersections 1 and 0
        rad, light = unit(n, n - 1), linalg.vec_add(unit(n, 0), unit(n, a))
        spans += [[rad], [light]] + ([[rad, unit(n, 1)], [light, unit(n, 1)]] if a > 1 else [])
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 99)))
        pool = oracles.fraction_pool(n)
        while True:
            cols = [rng.choice(pool) for _ in range(n)]
            h = [[cols[j][i] for j in range(n)] for i in range(n)]
            if linalg.rank(h) == len(h):
                break
        gram = QuadraticSpace.from_matrix(gram).pairing(cols, cols)
        spans = [[linalg.solve(h, v) for v in span] for span in spans]
    return QuadraticSpace.from_matrix(gram), [Subspace.spanned_by(span, n) for span in spans]
