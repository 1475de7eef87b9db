"""Exact linear algebra: congruence diagonalization, kernels, the intersection oracle."""

import hashlib
import random
import re
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction as F
from math import gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from heisflag import linalg, sampling
from heisflag.curvature import curvature_report, riemann
from heisflag.forms import QuadraticSpace, Subspace, lightlike_split, restrict
from heisflag.heisenberg import (
    HeisenbergAlgebra,
    act_on_metric,
    admissible_classes,
    parabolic_sample,
    representative,
)
from heisflag.linalg import (
    ShapeError,
    SingularMatrixError,
    congruence_diagonalize,
    diag,
    identity,
    integer_inverse,
    kernel,
    mat,
    mat_mul,
    rank,
    transpose,
    zeros,
)
from heisflag.sampling import random_flag
import strategies
from strategies import as_fractions, canonical_entries, fraction_vector, random_symmetric

invert = oracles.invert  # the dense inverse oracle: the library returns no `Fraction` inverse


def random_invertible(rng, n):
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if rank(m) == len(m):
            return m


def test_congruence_already_diagonal_stays_put():
    res = congruence_diagonalize(diag([3, 0, -5]))
    assert res.diagonal == (F(3), F(0), F(-5))
    assert res.transform == identity(3)


def test_congruence_hyperbolic_plane():
    s = mat([[0, 1], [1, 0]])
    res = congruence_diagonalize(s)
    assert res.diagonal == (F(2), F(-2))
    assert res.transform == mat([[1, 1], [1, -1]])
    assert mat_mul(transpose(res.transform), mat_mul(s, res.transform)) == diag([2, -2])


def test_congruence_standard_form():
    res = congruence_diagonalize(diag([1, 1, 1, -1, -1]))
    assert res.sign_counts() == (3, 2, 0)
    assert res.transform == identity(5)


def test_congruence_rejects_bad_input():
    with pytest.raises(ShapeError):
        congruence_diagonalize(mat([[1, 2, 3], [2, 1, 0]]))
    with pytest.raises(ShapeError):
        congruence_diagonalize(mat([[1, 2], [3, 4]]))


def test_congruence_random_exact():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 8)
        s = random_symmetric(n, rng)
        res = congruence_diagonalize(s)
        assert rank(res.transform) == n
        product = mat_mul(transpose(res.transform), mat_mul(s, res.transform))
        assert product == diag(res.diagonal)
        assert len(kernel(s)) + rank(s) == n


def test_sylvester_sign_stability():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        s = random_symmetric(n, rng, (-5, 5), (1, 4))
        q = random_invertible(rng, n)
        transported = mat_mul(transpose(q), mat_mul(s, q))
        assert congruence_diagonalize(transported).sign_counts() == \
            congruence_diagonalize(s).sign_counts()


def test_kernel_examples():
    assert kernel(identity(3)) == []
    assert kernel(mat([[1, 1], [1, 1]])) == [(F(1), F(-1))]
    assert kernel(zeros(2, 2)) == [(F(1), F(0)), (F(0), F(1))]


def test_invert_rank_examples():
    assert invert(diag([2, 2, 2])) == diag([F(1, 2)] * 3)
    assert invert(mat([[0, 1], [1, 0]])) == mat([[0, 1], [1, 0]])
    two_planes = mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert rank(two_planes) == 4
    with pytest.raises(SingularMatrixError):
        invert(mat([[1, 1], [1, 1]]))


def test_invert_random_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = random_invertible(rng, n)
        assert mat_mul(m, invert(m)) == identity(n)


def test_intersect_examples():
    e = [fraction_vector([1 if i == j else 0 for j in range(3)]) for i in range(3)]
    assert oracles.intersect([e[0], e[1]], [e[1], e[2]]) == [e[1]]
    assert oracles.intersect([e[0]], [e[1]]) == []
    v = fraction_vector([1, 1, 0])
    got = oracles.intersect([v, e[2]], [v])
    assert len(got) == 1 and oracles.in_span(v, got)


def test_intersect_dimension_mismatch():
    with pytest.raises(ShapeError):
        oracles.intersect([fraction_vector([1, 0])], [fraction_vector([1, 0, 0])])


def test_intersect_basis_independent():
    rng = random.Random(9)
    e = [fraction_vector([1 if i == j else 0 for j in range(4)]) for i in range(4)]
    span_a = [e[0], e[1], e[2]]
    span_b = [e[1], e[2], e[3]]
    expected = linalg.row_space(oracles.intersect(span_a, span_b))
    for _ in range(25):
        qa = random_invertible(rng, 3)
        mixed_a = [tuple(sum(qa[r][c] * span_a[c][i] for c in range(3)) for i in range(4))
                   for r in range(3)]
        assert linalg.row_space(oracles.intersect(mixed_a, span_b)) == expected


def test_lll_reduce_names_dependent_input():
    # a vector that depends on earlier ones makes d_k zero: the integral
    # recurrence must stop there, before a later row divides by it
    for vectors in ([(1, 0), (2, 0)], [(0, 0), (1, 1)], [(0, 0)],
                    [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(1, 2), (3, 4), (5, 6)],
                    [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]):
        with pytest.raises(ShapeError, match="linearly independent"):
            linalg.lll_reduce([fraction_vector(v) for v in vectors])


def test_ragged_input_is_rejected():
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        for f in (rank, kernel, linalg.row_space):
            with pytest.raises(ShapeError, match="rows of lengths"):
                f(ragged)
        with pytest.raises(ShapeError, match="rows of lengths"):
            linalg.solve(ragged, (1, 2))
    with pytest.raises(ShapeError, match="one length"):
        linalg.extend_to_independent([(1, 0)], [(0, 1, 2)], 2)
    with pytest.raises(ShapeError, match="base has rank 2, above the target rank 1"):
        linalg.extend_to_independent([(1, 0), (0, 1)], [], 1)


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 2], [2, 4]])
    assert linalg.solve(a, fraction_vector([1, 2])) is not None
    assert linalg.solve(a, fraction_vector([1, 3])) is None


def seeded_invertible(rng, n, den):
    """A random invertible n x n matrix: `int` entries for den = 1, else `Fraction`s with
    denominators up to den."""
    while True:
        m = [[rng.randint(-5, 5) if den == 1 else F(rng.randint(-5, 5), rng.randint(1, den))
              for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return m


def two_columns(m, units):
    """The columns `units` of M^{-1} as `Fraction` rows, off `linalg._inverse_rows`."""
    return [[F(x, p) for x in row] for row, p in linalg._inverse_rows(m, units)]


def test_two_column_inverse_agrees_with_the_oracle_inverse():
    # the curvature report appends e_a and e_b alone; any two units read their two columns
    rng = random.Random(38)
    for k in range(300):
        n = rng.randint(2, 8)
        m = seeded_invertible(rng, n, 1 if k % 2 else 4)
        want = oracles.gauss_jordan_invert(m)
        for units in ((n - 2, n - 1), tuple(sorted(rng.sample(range(n), 2))), (n - 1, 0)):
            assert two_columns(m, units) == [[row[u] for u in units] for row in want]


def test_two_column_inverse_refuses_a_singular_matrix_with_the_units_in_its_range():
    # M = S diag(0, 1, ..., 1) S^T, S invertible with e_a and e_b as its last two
    # columns: M is singular and symmetric, and e_a, e_b lie in its range, so
    # [M | e_a e_b] reduces with no pivot in the right half and `solve` finds
    # both consistent; only the count of the left half's pivots sees it
    rng = random.Random(39)
    for k in range(100):
        n = rng.randint(3, 8)
        a, b = n - 2, n - 1
        while True:
            s = [[rng.randint(-3, 3) if j < a else int(i == j) for j in range(n)] for i in range(n)]
            if rank(s) == n:
                break
        scale = 1 if k % 2 else F(rng.randint(1, 5), rng.randint(2, 5))
        m = [[scale * sum(s[i][t] * s[j][t] for t in range(1, n)) for j in range(n)]
             for i in range(n)]
        assert rank(m) == n - 1
        for u in (a, b):
            unit = tuple(int(i == u) for i in range(n))
            assert linalg.solve(m, unit) is not None
        with pytest.raises(SingularMatrixError):
            linalg._inverse_rows(m, (a, b))
        with pytest.raises(SingularMatrixError):
            integer_inverse(m)


def test_int_input_stays_exact():
    singular = [[3, 1, 4], [1, 3, 4], [4, 4, 8]]
    assert rank(singular) == 2
    with pytest.raises(SingularMatrixError):
        invert(singular)
    res = congruence_diagonalize(singular)
    assert res.diagonal == (F(3), F(8, 3), F(0)) and res.sign_counts() == (2, 0, 1)
    assert canonical_entries((res.diagonal, res.transform))
    assert kernel([[1, 2], [2, 4]]) == [(F(2), F(-1))]
    assert canonical_entries(kernel([[1, 2], [2, 4]]))


# ---------------------------------------------------------------------------
# differential tests against the replaced routines in `oracles`

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3)])


@st.composite
def degenerate_vectors(draw, n, count):
    """`count` vectors of length n: zero, repeated, dependent or drawn entry by entry."""
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(["zero", "copy", "mix", "new", "new"]))
        if kind == "zero":
            out.append(fraction_vector([0] * n))
        elif kind == "copy" and out:
            out.append(draw(st.sampled_from(out)))
        elif kind == "mix" and len(out) >= 2:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(linalg.combine([draw(ENTRIES), draw(ENTRIES)], [a, b]))
        else:
            out.append(fraction_vector(draw(ENTRIES) for _ in range(n)))
    return out


@st.composite
def degenerate_symmetric(draw, max_n=8):
    """A symmetric n x n matrix, n <= max_n, biased toward degenerate input.

    A base block, drawn entry by entry, with a null diagonal that forces
    hyperbolic pairs, or of rank <= 2, is spread over the n slots; slots may
    repeat a base index (repeated rows) or hold none (zero rows).
    """
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(min(n, 1), n))
    kind = draw(st.sampled_from(["entries", "null-diagonal", "rank-two"]))
    if kind == "rank-two":
        u, v = (fraction_vector(draw(ENTRIES) for _ in range(k)) for _ in range(2))
        c = draw(ENTRIES)
        base = [[u[i] * v[j] + v[i] * u[j] + c * u[i] * u[j] for j in range(k)]
                for i in range(k)]
    else:
        base = zeros(k, k)
        for i in range(k):
            for j in range(i, k):
                x = 0 if kind == "null-diagonal" and i == j else draw(ENTRIES)
                base[i][j] = base[j][i] = F(x)
    extra = st.one_of(st.none(), st.integers(0, k - 1)) if k else st.none()
    slots = draw(st.permutations(list(range(k)) + draw(st.lists(extra, min_size=n - k,
                                                                 max_size=n - k))))
    return [[base[a][b] if a is not None and b is not None else F(0) for b in slots]
            for a in slots]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(s=degenerate_symmetric())
def test_congruence_agrees_with_row_column_oracle(s):
    n = len(s)
    want_transform, want_diagonal = oracles.row_column_congruence(s)
    res = congruence_diagonalize(s)
    assert res.diagonal == want_diagonal
    assert res.transform == want_transform
    full = oracles.oracle_sign_counts(s)
    for m in range(n + 1):
        res = congruence_diagonalize(s, leading=m)
        assert res.leading_counts == oracles.oracle_sign_counts([row[:m] for row in s[:m]])
        assert res.sign_counts() == full
        p = res.transform
        assert mat_mul(transpose(p), mat_mul(s, p)) == diag(res.diagonal)
        assert rank(p) == n
    with pytest.raises(ShapeError):
        congruence_diagonalize(s, leading=n + 1)


def moved_gram(p, q, class_id, rng, moves=2):
    """The row's representative moved `moves` times by `parabolic_sample`."""
    n = p + q
    g = representative(class_id, p, q)
    for _ in range(moves):
        g = act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix], g)
    return g


@st.composite
def moved_representatives(draw):
    """An admissible row's representative at n <= 12, in either order, moved twice."""
    n = draw(st.integers(4, 12))
    q = draw(st.integers(1, n - 1))
    rows = admissible_classes(max(n - q, q), min(n - q, q)).classes
    row = draw(st.sampled_from(rows))
    return moved_gram(n - q, q, row.id, random.Random(draw(st.integers(0, 2 ** 32 - 1))))


def scaled_to_int(s):
    """The matrix times the lcm of its denominators, every entry an `int`."""
    scale = lcm(*(x.denominator for row in s for x in row))
    return [[int(x * scale) for x in row] for row in s]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=degenerate_symmetric() | degenerate_symmetric().map(scaled_to_int)
       | moved_representatives())
def test_congruence_agrees_with_fraction_oracle(s):
    # the elimination on integer rows keeps the Schur routine's diagonal,
    # leading counts, moves and transform for every leading block
    for m in range(len(s) + 1):
        got, want = congruence_diagonalize(s, m), oracles.fraction_congruence(s, m)
        assert got.diagonal == want.diagonal
        assert got.leading_counts == want.leading_counts
        assert oracles.fraction_moves(got) == want.moves
        assert got.transform == want.transform


def test_int_columns_agree_with_the_fraction_replay():
    # seeded symmetric matrices whose zero diagonal entries and zero rows
    # force swap and pair moves; the `int` column replay gives the P of the
    # `Fraction` replay, with and without a leading block, each column (a / b) C
    # with C content-free, its leading entry positive, and a / b in lowest terms
    rng = random.Random(41)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        s = random_symmetric(n, rng, (-3, 3), (1, 4))
        for i in range(n):
            if rng.random() < 0.5:
                s[i][i] = F(0)
            if rng.random() < 0.1:
                for j in range(n):
                    s[i][j] = s[j][i] = F(0)
        for m in (None, rng.randint(0, n)):
            res = congruence_diagonalize(s, m)
            kinds.update(move[0] for move in res._record)
            assert res.transform == oracles.fraction_transform(res)
            for c, a, b in res.columns:
                assert all(type(x) is int for x in (*c, a, b))
                assert gcd(*c) == 1 and next(x for x in c if x) > 0
                assert b > 0 and gcd(a, b) == 1
    assert kinds == {"swap", "pair", "clear"}


PINNED_CONGRUENCES = {
    "(11,5) class 1 seed 0": "466ed92b18f9a775",
    "(5,11) class 6 seed 1": "ae65604eadd7e9cc",
    "(11,5) class 13 seed 2": "a4fd4c87bdd5b14d",
    "(16,8) class 1 seed 3": "dc245f07d0534adc",
    "(8,16) class 10 seed 4": "b4016455ed22dc68",
    "(16,8) class 21 seed 5": "74fcbd386a8fecb1",
    # the n = 64 classify input, 650-bit entries, at its center block and whole
    "(40,24) class 1 seed 64 moved 1": "f8b3cb2e410057c1",
    "(40,24) class 1 seed 64 moved 1 whole": "1b22e17e6b4ae83b",
}


def congruence_digest(s, leading):
    """Digest of the diagonal and the leading counts of `leading` of one congruence."""
    res = congruence_diagonalize(s, leading)
    text = " ".join(map(str, res.diagonal)) + f" {res.leading_counts}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_congruence_outcomes_are_pinned():
    # moved representatives beyond the oracle test's n <= 12, with entries of
    # hundreds of bits, keep their diagonal and center counts (a label's
    # optional fifth number is its number of moves, else 2; "whole" pins the
    # whole matrix's diagonal, with no leading block)
    got = {}
    for label in PINNED_CONGRUENCES:
        p, q, class_id, seed, *moves = map(int, re.findall(r"\d+", label))
        s = moved_gram(p, q, class_id, random.Random(seed), *moves)
        got[label] = congruence_digest(s, None if label.endswith("whole") else p + q - 2)
    assert got == PINNED_CONGRUENCES


@st.composite
def degenerate_matrices(draw, square=False):
    """A matrix with 0..5 rows, mostly zero, repeated or dependent ones; square on request."""
    rows = draw(st.sampled_from([0, 1, 1, 2, 3, 4, 5]))
    cols = rows if square else draw(st.integers(0, 6))
    return [list(v) for v in draw(degenerate_vectors(cols, rows))]


@st.composite
def singular_int_rows(draw, n, count):
    """`count` integer rows of length n: zero, repeated, a sum of two earlier rows, or new."""
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(["zero", "copy", "sum", "new", "new"]))
        if kind == "zero":
            out.append([0] * n)
        elif kind == "copy" and out:
            out.append(list(draw(st.sampled_from(out))))
        elif kind == "sum" and len(out) >= 2:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append([x + y for x, y in zip(a, b)])
        else:
            out.append([draw(st.integers(-9, 9)) for _ in range(n)])
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_int_input_gives_the_fraction_results(data):
    rows = data.draw(st.integers(0, 5))
    square = data.draw(st.booleans())
    cols = rows if square else data.draw(st.integers(1, 6))
    m = data.draw(singular_int_rows(cols, rows))
    fm = as_fractions(m)
    b = data.draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
    got = (kernel(m), linalg.row_space(m), linalg.solve(m, tuple(b)))
    assert got == (kernel(fm), linalg.row_space(fm), linalg.solve(fm, fraction_vector(b)))
    assert rank(m) == rank(fm) and canonical_entries(got[:2])
    assert got[2] is None or canonical_entries(got[2])
    if square:
        try:
            inverse = invert(m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                invert(fm)
        else:
            assert inverse == invert(fm) and canonical_entries(inverse)
        # a symmetric B^T diag(d) B is singular whenever B is
        d = [data.draw(st.integers(-1, 1)) for _ in range(cols)]
        s = [[sum(d[k] * m[k][i] * m[k][j] for k in range(cols)) for j in range(cols)]
             for i in range(cols)]
        leading = data.draw(st.integers(0, cols))
        res, want = congruence_diagonalize(s, leading), congruence_diagonalize(as_fractions(s), leading)
        assert (res.diagonal, res.leading_counts) == (want.diagonal, want.leading_counts)
        assert res.transform == want.transform
        assert canonical_entries((res.diagonal, res.transform))


def int_rows(m):
    """M read as a public routine of `linalg` reads it for an elimination: `shape`,
    then `_int_rows`, each row scaled to integers."""
    linalg.shape(m)
    return linalg._int_rows(m)[0]


def reduced_echelon(m):
    """The reduced row echelon form as `Fraction`s, and pivot columns: each
    `linalg._reduce` row over its pivot, the rows past the rank zero."""
    a, pivots = linalg._reduce(int_rows(m))
    ech = [[F(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    return ech + [[F(0)] * len(row) for row in a[len(pivots):]], pivots


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(m=degenerate_matrices(), data=st.data())
def test_forward_elimination_agrees_with_gauss_jordan_oracle(m, data):
    assert reduced_echelon(m) == oracles.gauss_jordan_echelon(m)
    assert rank(m) == oracles.gauss_jordan_rank(m)
    cols = len(m[0]) if m else 0
    b = data.draw(st.one_of(
        st.lists(ENTRIES, min_size=len(m), max_size=len(m)).map(fraction_vector),
        st.lists(ENTRIES, min_size=cols, max_size=cols).map(
            lambda x: tuple(sum((a * y for a, y in zip(row, x)), F(0)) for row in m))))
    rows = [tuple(row) for row in m]
    got = (kernel(m), linalg.row_space(rows), linalg.solve(m, b))
    assert linalg.solve(rows, b) == got[2]
    with patch.object(linalg, "_reduce", oracles.integer_rows(oracles.gauss_jordan_echelon)):
        assert got == (kernel(m), linalg.row_space(rows), linalg.solve(m, b))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(m=degenerate_matrices(square=True))
def test_invert_agrees_with_the_replaced_eliminations(m):
    det = oracles.forward_det(m)
    assert det == oracles.leibniz_det(m) and type(det) is F
    rows = tuple(tuple(row) for row in m)
    assert (rank(rows), linalg._reduce(int_rows(rows))) == (rank(m), linalg._reduce(int_rows(m)))
    try:
        got = invert(m)
    except SingularMatrixError:
        got = None
    with patch.object(linalg, "_reduce", oracles.integer_rows(oracles.gauss_jordan_echelon)):
        if got is None:
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            assert invert(m) == got
    assert (got is None) == (det == 0)


def test_forward_det_is_exact_on_int_input():
    got = oracles.forward_det([[1, 2], [3, 4]])
    assert got == -2 and type(got) is F


def all_fractions(x) -> bool:
    """True iff every leaf of nested lists and tuples is a `Fraction`."""
    if isinstance(x, (list, tuple)):
        return all(all_fractions(y) for y in x)
    return type(x) is F


def test_fraction_oracles_return_fractions_on_int_input():
    # each `Fraction` oracle boxes its input, so it computes, and answers, in `Fraction`s
    m = [[2, 1, 0, 4], [4, 2, 1, 0], [0, 1, 3, 1], [6, 3, 1, 4]]
    gram = [[1, 0, 2, 0], [0, -1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]
    space = QuadraticSpace.from_matrix(gram)
    w = Subspace(4, ((1, 0, 1, 0), (0, 2, 0, 1)))
    answers = {
        "gauss_jordan_echelon": oracles.gauss_jordan_echelon(m)[0],
        "fraction_forward": oracles.fraction_forward(m)[0],
        "fraction_echelon": oracles.fraction_echelon(m)[0],
        "forward_det": [oracles.forward_det(m)],
        "_checked_inverse": oracles._checked_inverse(4, gram),
        "dense_restrict": oracles.dense_restrict(space, w),
    }
    for name, answer in answers.items():
        assert answer and all_fractions(answer), name
    assert oracles.dense_restrict(space, w) == restrict(space, w)


class CountedRow(list):
    """A matrix row that counts the passes over its entries."""

    passes = 0

    def __iter__(self):
        CountedRow.passes += 1
        return super().__iter__()


def entry_passes(call, m):
    """The passes over the entries of m that call(m') makes, m' m with counted rows."""
    counted = [CountedRow(row) for row in m]
    CountedRow.passes = 0
    call(counted)
    return CountedRow.passes


def test_each_public_routine_reads_each_operand_once():
    m = [[1, F(1, 2), 0], [2, 1, F(-1, 3)], [0, 3, 1]]
    s = [[2, F(1, 2), 0], [F(1, 2), 0, 3], [0, 3, F(-1, 4)]]
    xs = [(1, F(1, 3), 0), (0, 2, -1)]
    one_matrix = {
        "rank": (linalg.rank, (m,)),
        "kernel": (kernel, (m,)),
        "row_space": (linalg.row_space, (m,)),
        "solve": (linalg.solve, (m, (1, F(1, 2), 0))),
        "integer_inverse": (integer_inverse, (m,)),
        "lll_reduce": (linalg.lll_reduce, (m,)),
        "primitive_vector": (linalg.primitive_vector, (xs[0],)),
        "scaled_to_int": (linalg.scaled_to_int, (m,)),
        "read_gram": (linalg.read_gram, (s,)),
        "congruence_diagonalize": (congruence_diagonalize, (s, 2)),
        "combine": (linalg.combine, ((1, F(2, 3), 0), m)),
        "bilinear": (linalg.bilinear, (xs, s, xs[::-1])),
    }
    for name, (func, args) in one_matrix.items():
        with patch.object(linalg, "shape", wraps=linalg.shape) as shape:
            func(*args)
        assert shape.call_count == (3 if name == "bilinear" else 1), name
    # `mat`, and `combine` on `Fraction` input, read the entries through `_int_rows` once
    for name, (func, args) in {"mat": (mat, (m,)), "combine": one_matrix["combine"]}.items():
        with patch.object(linalg, "_int_rows", wraps=linalg._int_rows) as reader:
            func(*args)
        assert reader.call_count == 1, name
    # `bilinear` reads M's entries as often as `scaled_to_int` does, whatever len(xs) is
    once = entry_passes(linalg.scaled_to_int, s)
    for k in range(1, 5):
        rows = [(k, F(1, k), i) for i in range(k)]
        assert entry_passes(lambda g: linalg.bilinear(rows, g, xs), s) == once, k
    # a space reads its Gram matrix once, when it is made: a pairing reads xs and
    # ys alone, a diagonal Gram matrix too
    for gram in (s, diag([2, F(-1, 3), 0])):
        counted = tuple(CountedRow(row) for row in gram)
        space = QuadraticSpace(counted)
        CountedRow.passes = 0
        with patch.object(linalg, "shape", wraps=linalg.shape) as shape:
            got = space.pairing(xs, xs[::-1])
        assert shape.call_count == 2 and got == linalg.bilinear(xs, gram, xs[::-1])
        assert space.inner(xs[0], xs[1]) == linalg.bilinear(xs[:1], gram, xs[1:])[0][0]
        assert CountedRow.passes == 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_invert_agrees_with_gauss_jordan_oracle(data):
    n = data.draw(st.integers(0, 5))
    m = [list(v) for v in data.draw(degenerate_vectors(n, n))]
    try:
        want = oracles.gauss_jordan_invert(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            invert(m)
        with pytest.raises(SingularMatrixError):
            integer_inverse(m)
        return
    assert invert(m) == want
    inverse, d = integer_inverse(m)
    assert d > 0 and all(type(x) is int for row in inverse for x in row)
    assert [[F(x, d) for x in row] for row in inverse] == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_extend_to_independent_agrees_with_rank_loop_oracle(data):
    n = data.draw(st.integers(1, 5))
    base = data.draw(degenerate_vectors(n, data.draw(st.integers(0, n))))
    pool = data.draw(degenerate_vectors(n, data.draw(st.integers(0, 2 * n))))
    target = data.draw(st.integers(0, n + 1))
    try:
        want = oracles.rank_loop_extend_to_independent(base, pool, target)
    except ShapeError:
        with pytest.raises(ShapeError):
            linalg.extend_to_independent(base, pool, target)
        return
    assert linalg.extend_to_independent(base, pool, target) == want


@st.composite
def large_entries(draw):
    """0, a small entry, or +-a/b with a of 100 to 600 bits and b = 1 or of 1 to
    600 bits, drawn apart from a; integral values come as `int` or `Fraction`."""
    kind = draw(st.sampled_from(["zero", "small", "large", "large", "large"]))
    if kind == "zero":
        return draw(st.sampled_from([0, F(0)]))
    if kind == "small":
        x = draw(ENTRIES)
    else:
        bits = draw(st.integers(100, 600))
        num = draw(st.integers(2 ** (bits - 1), 2 ** bits)) * draw(st.sampled_from([1, -1]))
        integral = draw(st.integers(0, 2)) == 0
        den_bits = draw(st.integers(1, 600))
        den = 1 if integral else draw(st.integers(2 ** (den_bits - 1), 2 ** den_bits)) + 1
        x = F(num, den)
    return int(x) if x.denominator == 1 and draw(st.booleans()) else F(x)


@st.composite
def elimination_inputs(draw):
    """Rows of large entries with unrelated denominators: zero rows, multiples and
    combinations of earlier rows, leading entries made negative, list and tuple
    rows, and in one draw of four a square M widened to [M | I]."""
    n = draw(st.integers(0, 6))
    wide = n > 0 and draw(st.integers(0, 3)) == 0
    cols = n if wide else draw(st.integers(0, 7))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "multiple", "mix", "new", "new", "new"]))
        if kind == "zero":
            row = [draw(st.sampled_from([0, F(0)]))] * cols
        elif kind == "multiple" and out:
            c = draw(large_entries().filter(bool))
            row = [c * x for x in draw(st.sampled_from(out))]
        elif kind == "mix" and len(out) >= 2:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            c, d = draw(large_entries()), draw(large_entries())
            row = [c * x + d * y for x, y in zip(a, b)]
        else:
            row = [draw(large_entries()) for _ in range(cols)]
        lead = next((x for x in row if x), 0)
        if lead > 0 and draw(st.booleans()):
            row = [-x for x in row]
        out.append(row)
    if wide:
        out = [row + [draw(st.sampled_from([1, F(1)])) if j == i else 0 for j in range(n)]
               for i, row in enumerate(out)]
    return [tuple(row) if draw(st.booleans()) else row for row in out]


@contextmanager
def replaced_elimination():
    """`linalg`'s integer elimination swapped for the `Fraction` one it replaced."""
    with patch.object(linalg, "_forward", oracles.fraction_forward), \
            patch.object(linalg, "_reduce", oracles.fraction_reduce):
        yield


def elimination_results(m, b, split, target):
    """Every public result built on the elimination, with errors as their type."""
    def outcome(f, *args):
        try:
            return f(*args)
        except (ShapeError, SingularMatrixError) as error:
            return type(error)
    results = [rank(m), kernel(m), linalg.row_space(m), linalg.solve(m, b),
               outcome(linalg.extend_to_independent, m[:split], m[split:], target)]
    if all(len(row) == len(m) for row in m):
        results.append(outcome(invert, m))
    return results


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=elimination_inputs(), data=st.data())
def test_integer_elimination_agrees_with_the_fraction_oracle(m, data):
    rows = len(m)
    cols = len(m[0]) if m else 0
    b = data.draw(st.one_of(
        st.lists(large_entries(), min_size=rows, max_size=rows).map(tuple),
        st.lists(large_entries(), min_size=cols, max_size=cols).map(
            lambda x: tuple(sum((a * y for a, y in zip(row, x)), F(0)) for row in m))))
    split = data.draw(st.integers(0, rows))
    target = data.draw(st.integers(0, cols + 1))
    got = elimination_results(m, b, split, target)
    with replaced_elimination():
        assert got == elimination_results(m, b, split, target)
    # extend_to_independent (got[4]) returns input vectors; kernel, row_space,
    # solve and the invert oracle are canonical
    assert canonical_entries(got[1:3]) and (got[3] is None or canonical_entries(got[3]))
    assert canonical_entries([x for x in got[5:] if isinstance(x, (F, list, tuple))])
    # each integer row is a nonzero rational multiple of the rational row
    a, pivots = linalg._forward(int_rows(m))
    want, want_pivots = oracles.fraction_forward(m)
    assert pivots == want_pivots
    for row, want_row in zip(a, want):
        assert all(type(x) is int for x in row)
        k = next((k for k, y in enumerate(want_row) if y), None)
        scale = F(0) if k is None else F(row[k]) / want_row[k]
        assert (scale != 0) == (k is not None)
        assert row == [scale * y for y in want_row]
    assert reduced_echelon(m) == oracles.fraction_echelon(m)


def test_large_entry_gram_agrees_with_the_fraction_oracle():
    # a (20,12) Gram moved twice by the scaling-and-automorphism group has
    # entries of several hundred bits over unrelated denominators
    g = moved_gram(20, 12, 1, random.Random(23))
    assert max(abs(x.numerator).bit_length() for row in g for x in row) > 400
    top = g[:20]  # rank 20 with a 12-dimensional kernel
    got = (invert(g), rank(g), kernel(g), rank(top), kernel(top))
    assert len(got[4]) == 12 and got[2] == []
    with replaced_elimination():
        assert got == (invert(g), rank(g), kernel(g), rank(top), kernel(top))
    assert got[0] == oracles.gauss_jordan_invert(g)


@pytest.mark.parametrize("p, q", [(20, 12), (40, 24)])
def test_integer_inverse_and_action_agree_with_oracles_on_large_entries(p, q):
    # row 1's representative moved once at n = 32 and 64: entries of 290 and
    # 650 bits over unrelated denominators
    n = p + q
    g = [list(r) for r in parabolic_sample(n, random.Random(n)).matrix]
    gram = representative(admissible_classes(p, q).classes[0].id, p, q)
    moved = act_on_metric(g, gram)
    assert moved == oracles.mat_mul_act_on_metric(g, gram)
    assert max(abs(x.numerator).bit_length() for row in moved for x in row) > 250
    inverse, d = integer_inverse(moved)
    assert d > 0 and all(type(x) is int for row in inverse for x in row)
    want = oracles.gauss_jordan_invert(moved)
    assert [[F(x, d) for x in row] for row in inverse] == want
    assert invert(moved) == want
    singular = moved[:-1] + [[x + y for x, y in zip(moved[0], moved[1])]]
    for inverse_of in (integer_inverse, invert):
        with pytest.raises(SingularMatrixError):
            inverse_of(singular)


def independent_subsequence(vectors):
    """Each vector that is independent of the ones kept before it."""
    kept = []
    for v in vectors:
        if rank([list(u) for u in kept + [v]]) == len(kept) + 1:
            kept.append(v)
    return kept


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lll_reduce_agrees_with_recomputing_oracle(data):
    n = data.draw(st.integers(1, 6))
    wide = st.one_of(ENTRIES, st.integers(-40, 40))
    drawn = [fraction_vector(data.draw(wide) for _ in range(n))
             for _ in range(data.draw(st.integers(0, n)))]
    independent = independent_subsequence(drawn)
    assert linalg.lll_reduce(independent) == oracles.recomputing_lll_reduce(independent)


def test_lll_reduce_ties_and_boundaries():
    """A half-integer mu rounds to even, and Lovasz equality keeps the order."""
    cases = [
        ([(1, 1), (4, 1)], [(1, 1), (2, -1)]),  # mu = 5/2 -> 2; half up gives (1, -2)
        ([(1, 1), (1, -2)], [(1, 1), (1, -2)]),  # mu = -1/2 -> 0
        # |b_1*|^2 = 3 = (3/4 - mu^2) |b_0|^2 with mu = 1/4: no swap
        ([(1, 1, 1, 1), (1, 1, -1, 0)], [(1, 1, 1, 1), (1, 1, -1, 0)]),
    ]
    for vectors, want in cases:
        vectors = [fraction_vector(v) for v in vectors]
        assert linalg.lll_reduce(vectors) == [fraction_vector(v) for v in want]
        assert oracles.recomputing_lll_reduce(vectors) == [fraction_vector(v) for v in want]


@st.composite
def near_parallel_bases(draw):
    """n - 1 or n vectors of length n <= 8 with entries of up to 200 bits,
    many of them an earlier vector plus or minus a unit vector, which
    forces many swaps."""
    n = draw(st.integers(2, 8))
    bits = draw(st.sampled_from([200, 64, 8, 2]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    out = []
    for _ in range(draw(st.sampled_from([n, n, n - 1]))):
        if out and draw(st.booleans()):
            v = list(draw(st.sampled_from(out)))
            v[draw(st.integers(0, n - 1))] += draw(st.sampled_from([1, -1]))
        else:
            v = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
        out.append(fraction_vector(v))
    return out


@st.composite
def flag_big_bases(draw):
    """The `row_space` basis of a `random_flag` big part, as the witness frame reduces it."""
    p, q = draw(st.sampled_from([(3, 3), (4, 4), (5, 3)]))
    flag = random_flag(p, q, random.Random(draw(st.integers(0, 2 ** 32))))
    return linalg.row_space(list(flag.big.basis))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vectors=st.one_of(near_parallel_bases(), flag_big_bases()))
def test_lll_reduce_agrees_with_recomputing_oracle_on_hard_bases(vectors):
    independent = independent_subsequence(vectors)
    if len(independent) < len(vectors):
        with pytest.raises(ShapeError, match="linearly independent"):
            linalg.lll_reduce(vectors)
    assert linalg.lll_reduce(independent) == oracles.recomputing_lll_reduce(independent)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_combine_agrees_with_the_written_out_sum(data):
    n = data.draw(st.integers(1, 5))
    vectors = data.draw(degenerate_vectors(n, data.draw(st.integers(1, 4))))
    coeffs = [data.draw(ENTRIES) for _ in vectors]
    combined = linalg.combine(coeffs, vectors)
    assert combined == tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n))
    ints = [tuple(int(x) for x in v) for v in vectors]
    int_coeffs = [int(c) for c in coeffs]
    assert canonical_entries(combined) and canonical_entries(linalg.combine(int_coeffs, ints))
    with pytest.raises(ShapeError):
        linalg.combine(coeffs + [1], vectors)


READ_ENTRIES = st.sampled_from([0, 0, 1, -2, F(0), F(3), F(-4), F(1, 2), F(-2, 3), True, False])
MALFORMED_ENTRIES = st.sampled_from([0.5, 0.0, "1", None, 1j, [], Decimal("0.5")])


@st.composite
def read_rows(draw, count, n):
    """count rows of n entries: all `int` rows (the fast path) or ones that mix `int`,
    integral and proper `Fraction` and `bool`, and in one draw of three a malformed entry."""
    rows = [[draw(READ_ENTRIES) for _ in range(n)] for _ in range(count)]
    rows = [[int(x) for x in row] if draw(st.booleans()) else row for row in rows]
    if count and n and draw(st.integers(0, 2)) == 0:
        rows[draw(st.integers(0, count - 1))][draw(st.integers(0, n - 1))] = draw(MALFORMED_ENTRIES)
    return [draw(st.sampled_from([list, tuple]))(row) for row in rows]


def read_outcome(call, *args):
    """The repr of the result, which shows each entry's type, or the error's type and
    message."""
    try:
        return repr(call(*args))
    except ShapeError as ex:
        return type(ex).__name__, str(ex)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_combine_and_mat_read_entries_as_their_own_readers_did(data):
    # `_int_rows` is the one entry reader: values, entry types, and the error's
    # type and position equal those of the hand-written readers it replaced, on
    # zero coefficients, zero-length vectors and malformed entries too
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    coeffs = data.draw(read_rows(1, k))[0]
    vectors = data.draw(read_rows(k, n))
    assert (read_outcome(linalg.combine, coeffs, vectors)
            == read_outcome(oracles.hand_read_combine, coeffs, vectors))
    for rows in (vectors, [coeffs]):
        assert read_outcome(mat, rows) == read_outcome(oracles.hand_read_mat, rows)


@st.composite
def product_operand(draw, rows, cols, kind):
    """A rows x cols matrix of `int` or of `Fraction` entries, with zero and dependent rows."""
    if kind == "int":
        return draw(singular_int_rows(cols, rows))
    return [list(v) for v in draw(degenerate_vectors(cols, rows))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kinds=st.sampled_from([("int", "int"), ("fraction", "fraction"),
                                              ("int", "fraction"), ("fraction", "int")]))
def test_products_agree_with_the_dense_oracles(data, kinds):
    # kinds = (coefficient side, vector side); r x 0 operands give r empty
    # rows and r zeros
    r = data.draw(st.integers(0, 4))
    k = data.draw(st.integers(0, 4)) if r else 0
    c = data.draw(st.integers(0, 4)) if k else 0
    a = data.draw(product_operand(r, k, kinds[0]))
    b = data.draw(product_operand(k, c, kinds[1]))
    product, want = mat_mul(a, b), oracles.dense_mat_mul(a, b)
    assert product == want
    # M v combines the columns of M with the entries of v
    m = data.draw(product_operand(r, k, kinds[1]))
    v = tuple(data.draw(product_operand(1, k, kinds[0]))[0])
    image, want = linalg.mat_vec(m, v), oracles.dense_mat_vec(m, v)
    assert image == want and len(image) == r
    assert canonical_entries(product) and canonical_entries(image)
    with pytest.raises(ShapeError, match=f"cannot multiply {r}x{k} by {k + 1}x"):
        mat_mul(a, b + [[0] * c])
    with pytest.raises(ShapeError, match=f"to vector of length {k + 1}"):
        linalg.mat_vec(m, v + (0,))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=strategies.degenerate_spaces_and_subspaces(), data=st.data())
def test_switched_routines_are_canonical_and_agree_with_oracles(drawn, data):
    # every product and span returns canonical entries, equal by value to its
    # Fraction or dense oracle, on `int`, integral `Fraction` and rational input
    space, subspaces = drawn
    n = space.dim
    vectors = [strategies.unit(n, i) for i in range(n)] + [v for w in subspaces for v in w.basis]
    vectors += data.draw(st.lists(st.tuples(*[ENTRIES] * n), min_size=1, max_size=3))
    coeffs = [data.draw(ENTRIES) for _ in vectors]
    c = data.draw(ENTRIES)
    u, v = data.draw(st.sampled_from(vectors)), data.draw(st.sampled_from(vectors))
    fraction_space = QuadraticSpace(as_fractions(space.gram))
    gram = [list(row) for row in space.gram]
    with replaced_elimination():
        spans = [(kernel(gram), linalg.row_space(vectors))]
        spans += [(kernel(restrict(space, w)), linalg.row_space(w.basis)) for w in subspaces]
    results = {
        "combine": (linalg.combine(coeffs, vectors), oracles.fraction_combine(coeffs, vectors)),
        "vec_add": (linalg.vec_add(u, v), oracles.fraction_combine((1, 1), (u, v))),
        "vec_sub": (linalg.vec_sub(u, v), oracles.fraction_combine((1, -1), (u, v))),
        "vec_scale": (linalg.vec_scale(c, u), oracles.fraction_combine((c,), (u,))),
        "mat_mul": (mat_mul(vectors, gram), oracles.dense_mat_mul(vectors, gram)),
        "mat_vec": (linalg.mat_vec(gram, u), oracles.dense_mat_vec(gram, u)),
        "pairing": ([s.pairing(vectors, vectors[::-1]) for s in (space, fraction_space)],
                    [oracles.fraction_pairing(s, vectors, vectors[::-1])
                     for s in (space, fraction_space)]),
        "inner": (space.inner(u, v), oracles.dense_inner(space, u, v)),
        "restrict": ([restrict(s, w) for s in (space, fraction_space) for w in subspaces],
                     [oracles.dense_restrict(s, w) for s in (space, fraction_space)
                      for w in subspaces]),
        "primitive_vector": ([linalg.primitive_vector(x) for x in vectors],
                             [oracles.fraction_primitive_vector(x) for x in vectors]),
        "kernel, row_space": ([(kernel(gram), linalg.row_space(vectors))]
                              + [(kernel(restrict(space, w)), linalg.row_space(w.basis))
                                 for w in subspaces], spans),
        "lll_reduce": ([linalg.lll_reduce(w.basis) for w in subspaces],
                       [oracles.recomputing_lll_reduce(w.basis) for w in subspaces]),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        assert canonical_entries(got), name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_every_builder_returns_canonical_entries(n, seed):
    # each exact result holds an `int` where a value is integral, whatever its input's
    # types: here a Gram matrix of `Fraction`s, the integral ones included
    rng = random.Random(seed)
    q = rng.randint(1, n - 1)
    p = n - q
    alg = HeisenbergAlgebra(n)
    sa = parabolic_sample(n, rng)
    row = rng.choice(admissible_classes(p, q).classes)
    gram = act_on_metric([list(r) for r in sa.matrix], representative(row.id, p, q))
    boxed = as_fractions(gram)
    res = congruence_diagonalize(boxed)
    flag = random_flag(p, q, rng)
    report = curvature_report(alg, boxed)
    null = tuple(int(i in (0, p)) for i in range(n))  # e_0 + e_p has norm 1 - 1
    built = {
        "mat, vec, diag": (mat(boxed), linalg.vec(boxed[0]), diag(boxed[0])),
        "combine": linalg.combine((F(1, 2), F(1, 2)), (boxed[0], boxed[1])),
        "solve": linalg.solve(boxed, boxed[0]),
        "congruence": (res.diagonal, res.transform),
        "scaled automorphism": (sa.matrix, sa.scale, sa.automorphism),
        "act_on_metric": gram,
        "samplers": [getattr(sampling, name)(p, q, rng) for name in
                     ("cayley_opq", "plane_cayley_opq", "random_opq", "mild_opq", "random_gram")],
        "random_flag": (flag.small.basis, flag.big.basis),
        "riemann": riemann(alg, boxed),
        "curvature_report": (report.ricci, report.scalar_curv, report.soliton),
        "lll_reduce": linalg.lll_reduce(flag.big.basis),
        "lightlike_split": lightlike_split(QuadraticSpace.standard(p, q), Subspace.full(n), null),
    }
    assert [name for name, x in built.items() if not canonical_entries(x)] == []

