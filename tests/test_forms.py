"""Quadratic space invariants: signatures, radicals, flags, seven-count data."""

import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import strategies
from heisflag import forms, linalg, sampling
from heisflag.forms import (
    Flag,
    FlagInvariants,
    LineSignature,
    PreconditionError,
    QuadraticSpace,
    Signature,
    Subspace,
    flag_invariants,
    flags_equivalent,
    matsuki_data,
    possible_codim2_signatures,
    possible_line_signatures,
    radical,
    refined_line_signature,
    restrict,
    signature,
    subspaces_equivalent,
)

SP22 = QuadraticSpace.standard(2, 2)
SP33 = QuadraticSpace.standard(3, 3)


def unit(i, n=4):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def test_restrict_examples():
    w = Subspace(4, (unit(0), unit(1)))
    assert restrict(SP22, w) == linalg.diag([1, 1])
    null_line = Subspace(4, (linalg.vec_add(unit(0), unit(2)),))
    assert restrict(SP22, null_line) == [[F(0)]]
    plane = Subspace(4, (linalg.vec_add(unit(0), unit(2)),
                         linalg.vec_add(unit(1), unit(3))))
    assert restrict(SP22, plane) == linalg.zeros(2, 2)


def test_restrict_dimension_mismatch():
    with pytest.raises(linalg.ShapeError):
        restrict(SP22, Subspace(3, (unit(0, 3),)))


def test_signature_examples():
    assert signature(SP22) == Signature(2, 2, 0)
    plane = Subspace(4, (linalg.vec_add(unit(0), unit(2)),
                         linalg.vec_add(unit(1), unit(3))))
    assert signature(SP22, plane) == Signature(0, 0, 2)
    w = Subspace(6, tuple(unit(i, 6) for i in range(4)))
    assert signature(SP33, w) == Signature(3, 1, 0)


def test_radical_examples():
    sp = QuadraticSpace.from_matrix(linalg.diag([1, 0, -1]))
    r = radical(sp)
    assert r.dim == 1 and r.contains(unit(1, 3))
    assert radical(SP22, Subspace(4, (unit(0), unit(1)))).dim == 0
    w = Subspace(4, (unit(0), linalg.vec_add(unit(1), unit(3))))
    r = radical(SP22, w)
    assert r.dim == 1 and r.contains(linalg.vec_add(unit(1), unit(3)))


@st.composite
def degenerate_spaces_and_flags(draw):
    """A Gram matrix sum_r s_r x_r x_r^T and a flag, both with mostly zero entries.

    Half the spaces are diagonal +-1 (nondegenerate), the rest of random,
    often deficient rank; the line lies in rad(big) whenever it can.
    """
    n = draw(st.integers(2, 6))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)])
    if draw(st.booleans()):
        factor = linalg.identity(n)
    else:
        factor = [[draw(entries) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
    signs = [draw(st.sampled_from([1, -1])) for _ in factor]
    gram = [[sum(s * r[i] * r[j] for s, r in zip(signs, factor)) for j in range(n)]
            for i in range(n)]
    space = QuadraticSpace.from_matrix(gram)
    vectors = [strategies.fraction_vector(draw(entries) for _ in range(n))
               for _ in range(draw(st.integers(2, n)))]
    big = Subspace.spanned_by(vectors, n)
    if big.dim < 2:
        big = Subspace.full(n)
    line = (oracles.congruence_radical(space, big).basis + big.basis)[0]
    return space, Flag(Subspace(n, (line,)), big)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=degenerate_spaces_and_flags())
def test_radical_agrees_with_congruence_oracle(data):
    # the same subspace, not the same basis: the oracle's basis is a row space
    space, f = data
    for w in (f.small, f.big, None):
        got, want = radical(space, w), oracles.congruence_radical(space, w)
        assert got.dim == want.dim and got.contains_subspace(want)
    if space.is_nondegenerate():
        rad_big = oracles.congruence_radical(space, f.big)
        assert flag_invariants(space, f) == FlagInvariants(
            signature(space, f.big), signature(space, f.small),
            len(oracles.intersect(list(f.small.basis), list(rad_big.basis))))


def test_refined_line_signature_examples():
    w = Subspace(4, (unit(0), linalg.vec_add(unit(1), unit(3))))
    rad_line = Subspace(4, (linalg.vec_add(unit(1), unit(3)),))
    assert refined_line_signature(SP22, w, rad_line) == LineSignature.RADICAL
    assert refined_line_signature(SP22, w, Subspace(4, (unit(0),))) == LineSignature.SPACELIKE
    v = Subspace(4, (unit(0), unit(2)))
    light = Subspace(4, (linalg.vec_add(unit(0), unit(2)),))
    assert refined_line_signature(SP22, v, light) == LineSignature.LIGHTLIKE


def test_refined_line_signature_preconditions():
    v = Subspace(4, (unit(0), unit(1)))
    with pytest.raises(PreconditionError):
        refined_line_signature(SP22, v, Subspace(4, (unit(2),)))
    # lines inside a one-dimensional subspace are rejected, not guessed
    with pytest.raises(PreconditionError):
        refined_line_signature(SP22, Subspace(4, (unit(0),)), Subspace(4, (unit(0),)))


def test_flag_invariants_examples():
    f = Flag(Subspace(6, (unit(0, 6),)), Subspace(6, tuple(unit(i, 6) for i in range(4))))
    assert flag_invariants(SP33, f) == FlagInvariants(Signature(3, 1, 0), Signature(1, 0, 0), 0)
    f = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    assert flag_invariants(SP22, f) == FlagInvariants(Signature(2, 0, 0), Signature(1, 0, 0), 0)
    iso = linalg.vec_add(unit(0), unit(2))
    f = Flag(Subspace(4, (iso,)), Subspace(4, (iso, linalg.vec_add(unit(1), unit(3)))))
    assert flag_invariants(SP22, f) == FlagInvariants(Signature(0, 0, 2), Signature(0, 0, 1), 1)


def test_flag_invariants_needs_nondegenerate_ambient():
    sp = QuadraticSpace.from_matrix(linalg.diag([1, 1, 0, -1]))
    f = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    with pytest.raises(PreconditionError):
        flag_invariants(sp, f)


def test_flags_equivalent_examples():
    f1 = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    f2 = Flag(Subspace(4, (unit(2),)), Subspace(4, (unit(2), unit(3))))
    f3 = Flag(Subspace(4, (unit(1),)), Subspace(4, (unit(0), unit(1))))
    assert flags_equivalent(SP22, f1, f1)
    assert not flags_equivalent(SP22, f1, f2)
    assert flags_equivalent(SP22, f1, f3)
    with pytest.raises(linalg.ShapeError):
        flags_equivalent(SP22, f1, Flag(Subspace(4, (unit(0),)),
                                        Subspace(4, (unit(0), unit(1), unit(2)))))


def test_matsuki_examples():
    f = Flag(Subspace(6, (unit(0, 6),)), Subspace(6, tuple(unit(i, 6) for i in range(4))))
    assert matsuki_data(f, 3, 3).as_tuple() == (3, 1, 0, 1, 0, 0, 1)
    iso1 = linalg.vec_add(unit(0), unit(2))
    iso2 = linalg.vec_add(unit(1), unit(3))
    f = Flag(Subspace(4, (iso1,)), Subspace(4, (iso1, iso2)))
    assert matsuki_data(f, 2, 2).as_tuple() == (0, 0, 2, 0, 0, 1, 0)
    f = Flag(Subspace(4, (unit(2),)), Subspace(4, (unit(2), unit(3))))
    assert matsuki_data(f, 2, 2).as_tuple() == (0, 2, 0, 0, 1, 0, 1)


def test_possible_codim2_signatures():
    assert possible_codim2_signatures(3, 3) == {
        Signature(1, 3, 0), Signature(2, 2, 0), Signature(3, 1, 0),
        Signature(1, 2, 1), Signature(2, 1, 1), Signature(1, 1, 2)}
    assert possible_codim2_signatures(2, 1) == {
        Signature(0, 1, 0), Signature(1, 0, 0), Signature(0, 0, 1)}
    assert possible_codim2_signatures(3, 1) == {
        Signature(1, 1, 0), Signature(2, 0, 0), Signature(1, 0, 1)}


def test_possible_line_signatures():
    assert possible_line_signatures(2, 0, 1) == {LineSignature.SPACELIKE, LineSignature.RADICAL}
    assert possible_line_signatures(1, 1, 0) == {
        LineSignature.SPACELIKE, LineSignature.TIMELIKE, LineSignature.LIGHTLIKE}
    assert possible_line_signatures(0, 0, 1) == {LineSignature.RADICAL}


def test_the_line_type_table_agrees_with_the_general_code():
    # V of signature (s, t, u) sits in the standard (s + u, t + u) space on the
    # first s + and t - axes, each null direction e+ + e- on the next pair, so
    # V's Gram in that basis is diag(+1^s, -1^t, 0^u).  A type is possible in V
    # exactly when a pool line of V (a pool vector in V's basis) has it, and
    # each such flag's invariants, also under the negated form, are the type's
    for s, t, u in itertools.product(range(7), repeat=3):
        if not 1 <= s + t + u <= 6:
            continue
        possible = possible_line_signatures(s, t, u)
        if s + t + u == 1:  # V is its one line, of V's own sign or radical
            assert possible == {LineSignature.of(s - t, True)}, (s, t, u)
            continue
        p, q = s + u, t + u
        axes = linalg.identity(p + q)
        basis = ([axes[i] for i in range(s)] + [axes[p + i] for i in range(t)]
                 + [linalg.vec_add(axes[s + k], axes[p + t + k]) for k in range(u)])
        v_sub = Subspace(p + q, tuple(map(tuple, basis)))
        space = QuadraticSpace.standard(p, q)
        negated = QuadraticSpace.from_matrix(linalg.diag([-1] * p + [1] * q))
        found = set()
        for c in sampling.integer_pool(s + t + u):
            line = Subspace(p + q, (linalg.combine(c, basis),))
            kind = refined_line_signature(space, v_sub, line)
            found.add(kind)
            flag = Flag(line, v_sub)
            assert flag_invariants(space, flag) == kind.flag_invariants(Signature(s, t, u))
            assert refined_line_signature(negated, v_sub, line) is kind.negated()
            assert (flag_invariants(negated, flag)
                    == kind.negated().flag_invariants(Signature(t, s, u))), (s, t, u, c)
        assert found == possible, (s, t, u)


def test_basis_independence():
    rng = random.Random(17)
    for _ in range(60):
        p, q = rng.choice([(2, 2), (3, 2), (3, 1)])
        sp = QuadraticSpace.standard(p, q)
        f = sampling.random_flag(p, q, rng)
        base_inv = flag_invariants(sp, f)
        base_refined = refined_line_signature(sp, f.big, f.small)
        k = f.big.dim
        while True:
            change = [[F(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if linalg.rank(change) == len(change):
                break
        mixed = [tuple(sum(change[r][c] * f.big.basis[c][i] for c in range(k))
                       for i in range(p + q)) for r in range(k)]
        scale = F(rng.choice([1, 2, -3]))
        scaled_line = tuple(scale * x for x in f.small.basis[0])
        f_mixed = Flag(Subspace(p + q, (scaled_line,)), Subspace(p + q, tuple(mixed)))
        assert flag_invariants(sp, f_mixed) == base_inv
        assert refined_line_signature(sp, f_mixed.big, f_mixed.small) == base_refined


def test_opq_invariance():
    rng = random.Random(23)
    for p, q in [(2, 2), (3, 2), (3, 3), (3, 1)]:
        sp = QuadraticSpace.standard(p, q)
        ipq = linalg.diag([1] * p + [-1] * q)
        for _ in range(60):
            g = sampling.random_opq(p, q, rng)
            assert linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(ipq, g)) == ipq
            f = sampling.random_flag(p, q, rng)
            assert flag_invariants(sp, sampling.apply_to_flag(g, f)) == flag_invariants(sp, f)


# ---------------------------------------------------------------------------
# one pairing: differential tests against the dense oracles

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 4)])


@st.composite
def degenerate_gram_and_vectors(draw):
    """A Gram matrix with zero rows, zero entries or low rank, and vectors that
    are zero, repeated or dependent."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["diagonal", "fraction diagonal", "low_rank", "entries"]))
    if kind == "diagonal":
        gram = linalg.diag([draw(st.sampled_from([1, -1, 0])) for _ in range(n)])
    elif kind == "fraction diagonal":
        gram = [[F(draw(ENTRIES)) if i == j else F(0) for j in range(n)] for i in range(n)]
    elif kind == "low_rank":
        factor = [[draw(ENTRIES) for _ in range(n)] for _ in range(draw(st.integers(0, 2)))]
        signs = [draw(st.sampled_from([1, -1])) for _ in factor]
        gram = [[sum(s * r[i] * r[j] for s, r in zip(signs, factor)) for j in range(n)]
                for i in range(n)]
    else:
        gram = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = F(draw(ENTRIES))
    vectors = []
    for _ in range(draw(st.integers(0, n + 2))):
        pick = draw(st.sampled_from(["zero", "copy", "sum", "new", "new"]))
        if pick == "zero":
            vectors.append(strategies.fraction_vector([0] * n))
        elif pick == "copy" and vectors:
            vectors.append(draw(st.sampled_from(vectors)))
        elif pick == "sum" and len(vectors) >= 2:
            vectors.append(linalg.vec_add(vectors[-1], vectors[-2]))
        else:
            vectors.append(strategies.fraction_vector(draw(ENTRIES) for _ in range(n)))
    return QuadraticSpace.from_matrix(gram), vectors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=degenerate_gram_and_vectors())
def test_pairing_restrict_inner_agree_with_dense_oracles(data):
    space, vectors = data
    xs, ys = vectors[: len(vectors) // 2 + 1], vectors[len(vectors) // 2:]
    assert space.pairing(xs, ys) == [[oracles.dense_inner(space, x, y) for y in ys] for x in xs]
    for x in vectors:
        assert space.inner(x, x) == oracles.dense_inner(space, x, x)
    w = Subspace.spanned_by(vectors, space.dim)
    assert restrict(space, w) == oracles.dense_restrict(space, w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=degenerate_gram_and_vectors())
def test_pairing_and_inner_agree_with_bilinear(data):
    # the space's one read of its Gram matrix, diagonal or not, gives the sums
    # of `bilinear`, which reads the Gram matrix on every call, entry types included
    space, vectors = data
    xs, ys = vectors[: len(vectors) // 2 + 1], vectors[len(vectors) // 2:]
    want = linalg.bilinear(xs, space.gram, ys)
    assert repr(space.pairing(xs, ys)) == repr(want)
    for x, y in zip(xs, ys[::-1]):
        assert repr(space.inner(x, y)) == repr(linalg.bilinear([x], space.gram, [y])[0][0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=degenerate_gram_and_vectors(), cut=st.integers(0, 8))
def test_contains_subspace_agrees_with_per_vector_oracle(data, cut):
    space, vectors = data
    n = space.dim
    big = Subspace.spanned_by(vectors, n)
    small = Subspace.spanned_by(vectors[:cut], n)
    for a, b in [(big, small), (small, big), (big, big), (small, Subspace(n, ()))]:
        assert a.contains_subspace(b) == oracles.per_vector_contains_subspace(a, b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=degenerate_gram_and_vectors())
def test_exact_kernels_return_canonical_entries_on_fraction_input(data):
    # the products are canonical; `integer_inverse` is an `int` matrix over an `int`
    space, vectors = data
    entries = [x for row in space.pairing(vectors, vectors) for x in row]
    entries += [x for row in restrict(space, Subspace.spanned_by(vectors, space.dim)) for x in row]
    entries += linalg.combine([(1, 0, F(1, 2))[i % 3] for i in range(len(vectors))], vectors)
    entries += linalg.combine([0] * len(vectors), vectors)
    assert strategies.canonical_entries(entries)
    try:
        inverse, d = linalg.integer_inverse(space.gram)
    except linalg.SingularMatrixError:
        inverse, d = [], 1
    assert type(d) is int and all(type(x) is int for row in inverse for x in row)


# entry kinds for the int arithmetic of combine, primitive_vector and pairing:
# integral entries as int or as Fraction, half-integers, Fractions with large
# unrelated denominators, and zeros of both types
ENTRY_KINDS = (
    st.integers(-3, 3),
    st.integers(-3, 3).map(F),
    st.integers(-3, 2).map(lambda k: F(2 * k + 1, 2)),
    st.builds(F, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80)),
    st.sampled_from([0, F(0)]),
)
MIXED_ENTRIES = st.one_of(*ENTRY_KINDS)


@st.composite
def hard_vectors(draw, n):
    """A length-n vector of one entry kind, or of mixed kinds."""
    entries = draw(st.sampled_from([*ENTRY_KINDS, MIXED_ENTRIES, MIXED_ENTRIES]))
    return tuple(draw(entries) for _ in range(n))


@st.composite
def hard_grams(draw, n):
    """A symmetric n x n Gram matrix of one entry kind or of mixed kinds, some rows zero."""
    entries = draw(st.sampled_from([*ENTRY_KINDS, MIXED_ENTRIES]))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entries)
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    for i in zero_rows:
        zero = draw(st.sampled_from([0, F(0)]))
        for j in range(n):
            gram[i][j] = gram[j][i] = zero
    return tuple(tuple(row) for row in gram)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_int_arithmetic_agrees_with_the_fraction_oracles(data):
    # equal values, and canonical entries; empty and zero inputs included
    n = data.draw(st.integers(0, 6))
    vectors = data.draw(st.lists(hard_vectors(n), max_size=5))
    coeff = data.draw(st.sampled_from([*ENTRY_KINDS, MIXED_ENTRIES]))
    coeffs = [data.draw(coeff) for _ in vectors]
    combined = linalg.combine(coeffs, vectors)
    assert combined == oracles.fraction_combine(coeffs, vectors)
    assert strategies.canonical_entries(combined)
    for v in vectors:
        primitive = linalg.primitive_vector(v)
        assert primitive == oracles.fraction_primitive_vector(v)
        assert all(type(x) is int for x in primitive)
    space = QuadraticSpace(data.draw(hard_grams(n)))
    got = space.pairing(vectors, vectors[::-1])
    assert got == oracles.fraction_pairing(space, vectors, vectors[::-1])
    assert strategies.canonical_entries(got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces())
def test_cached_radical_is_one_kernel_of_the_gram(data):
    # the space's own radical, one kernel of its Gram matrix, is the radical
    # of the whole space that `forms.radical` maps through the unit vectors,
    # and the one `radical` returns when it is given no subspace
    space, _ = data
    fresh = QuadraticSpace.from_matrix(space.gram)
    assert fresh._radical == radical(fresh, Subspace.full(fresh.dim))
    assert fresh._radical == radical(fresh) and space.ambient_radical() == radical(space)
    assert strategies.canonical_entries(fresh._radical.basis)


def test_standard_space_is_built_once_and_keeps_refusing_floats():
    assert QuadraticSpace.standard(3, 2) is QuadraticSpace.standard(3, 2)
    assert QuadraticSpace.standard(3, 2) == QuadraticSpace.from_matrix(
        linalg.diag([1, 1, 1, -1, -1]))
    assert QuadraticSpace.standard(2, 2).is_nondegenerate()
    for p in (2.0, F(2), "2"):
        with pytest.raises(PreconditionError, match="p must be an int"):
            QuadraticSpace.standard(p, 2)
    with pytest.raises(PreconditionError, match="q must be an int, not a list"):
        QuadraticSpace.standard(2, [])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags(codim_two=True) | strategies.degenerate_flags())
def test_bases_independent_by_construction_pass_the_rank_check(data):
    # the private constructor skips the rank check; made to run it, the frame
    # builder raises nothing and builds the same frame
    p, q, f = data
    frame = forms.adapted_frame(QuadraticSpace.standard(p, q), f)
    spanned = Subspace.spanned_by([*f.big.basis, *f.small.basis], p + q)
    calls = []

    def validating(cls, ambient_dim, basis):
        calls.append(len(basis))
        return cls(ambient_dim, basis)

    with mock.patch.object(Subspace, "_independent", classmethod(validating)):
        # a fresh space, not the cached standard one, so that its radical is
        # built under the patch too
        fresh = QuadraticSpace.from_matrix(QuadraticSpace.standard(p, q).gram)
        assert forms.adapted_frame(fresh, f) == frame
        assert Subspace.spanned_by([*f.big.basis, *f.small.basis], p + q) == spanned
    assert calls


def test_public_subspace_constructors_check_independence():
    with pytest.raises(PreconditionError, match="linearly independent"):
        Subspace(4, (unit(0), unit(1), linalg.vec_add(unit(0), unit(1))))
    with pytest.raises(PreconditionError, match="linearly independent"):
        Subspace.coordinate(4, [2, 2])
    for index in (-1, 5):
        with pytest.raises(linalg.ShapeError, match=f"index {index} outside 0..3"):
            Subspace.coordinate(4, [index])
    with pytest.raises(linalg.ShapeError, match="wrong length"):
        Subspace._independent(4, (unit(0), unit(0, 3)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags(codim_two=True) | strategies.degenerate_flags())
def test_frame_extensions_pass_the_rank_check(data):
    # adapted_frame's two basis extensions rank only their null blocks; made
    # to rank whole systems, the frame builder raises nothing and builds the
    # same frame.  A flag of another ambient dimension and a degenerate space
    # are refused by name before any extension
    p, q, f = data
    frame = forms.adapted_frame(QuadraticSpace.standard(p, q), f)
    extend = forms.extend_basis
    ranks = []

    def checking(space, w_system, within=None):
        ranks.append((linalg.rank(w_system.vectors), len(w_system.vectors)))
        return extend(space, w_system, within)

    with mock.patch.object(forms, "extend_basis", checking):
        assert forms.adapted_frame(QuadraticSpace.standard(p, q), f) == frame
        assert len(ranks) == 2 and all(r == k for r, k in ranks)
        with pytest.raises(linalg.ShapeError, match="flag ambient dimension mismatch"):
            forms.adapted_frame(QuadraticSpace.standard(p + 1, q), f)
        degenerate = QuadraticSpace.from_matrix(linalg.diag([*([1] * p + [-1] * q)[:-1], 0]))
        with pytest.raises(PreconditionError, match="ambient form must be nondegenerate"):
            forms.adapted_frame(degenerate, f)
    assert len(ranks) == 2


def extension_outcome(extend, space, w_system, within=None):
    """repr of extend(space, w_system, within), or the message of the PreconditionError
    it raises."""
    try:
        return repr(extend(space, w_system, within))
    except PreconditionError as ex:
        return str(ex)


def compared_extensions(call):
    """(W nondegenerate, agrees) for each `forms.extend_basis` call that call() makes,
    agrees when its outcome equals the complement search oracle's; call() may raise."""
    extend = forms.extend_basis
    seen = []

    def both(space, w_system, within=None):
        got, want = (extension_outcome(e, space, w_system, within)
                     for e in (extend, oracles.extend_basis_with_complement))
        seen.append((radical(space, within).dim == 0, got == want))
        return extend(space, w_system, within)

    with mock.patch.object(forms, "extend_basis", both):
        try:
            call()
        except PreconditionError:
            pass
    return seen


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags(codim_two=True) | strategies.degenerate_flags())
def test_frame_extensions_agree_with_the_complement_search_oracle(data):
    # a nondegenerate W skips the complement search; the frame's first
    # extension is inside the big part, degenerate or not, its last in the
    # whole space, which is nondegenerate, and both keep their bytes
    p, q, f = data
    seen = compared_extensions(lambda: forms.adapted_frame(QuadraticSpace.standard(p, q), f))
    assert len(seen) == 2 and seen[-1][0] and all(agrees for _, agrees in seen)


def frame_layout(frame, pair_slots, f):
    """The facts about a frame that `witness._assemble` relies on: its norm signs in
    order, its pair slots, and the canonical row space of each flag part's
    coefficients in the frame's columns."""
    cols = linalg.transpose(frame.vectors)
    patterns = [linalg.row_space([linalg.solve(cols, v) for v in part.basis])
                for part in (f.small, f.big)]
    return [m > 0 for m in frame.norms], pair_slots, patterns


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags(codim_two=True) | strategies.degenerate_flags())
def test_ambient_frames_lay_flags_out_as_big_coordinate_frames(data):
    # the frame's first extension runs inside the big part in ambient
    # coordinates; the frame it replaced, extended in big coordinates, has
    # the same norm signs, pair slots and flag patterns, though not its bytes
    p, q, f = data
    space = QuadraticSpace.standard(p, q)
    orient = forms._orient_frame
    slots = []

    def spy(vectors, pair_slots):
        slots.append(pair_slots)
        return orient(vectors, pair_slots)

    with mock.patch.object(forms, "_orient_frame", spy):
        frame = forms.adapted_frame(space, f)
    old, old_slots = oracles.big_coordinate_frame(space, f)
    assert frame_layout(frame, slots[0], f) == frame_layout(old, old_slots, f)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.null_systems())
def test_null_system_extensions_agree_with_the_complement_search_oracle(data):
    # standard, moved and pulled-back spaces, each nondegenerate
    space, nulls = data
    seen = compared_extensions(lambda: forms.extend_nullsystem(space, nulls))
    assert all(nondegenerate and agrees for nondegenerate, agrees in seen)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces(), pick=st.integers(0, 4))
def test_scaled_system_extensions_agree_with_the_complement_search_oracle(data, pick):
    # diagonal and pulled-back Gram matrices, with and without a radical
    space, parts = data
    system = forms.scaled_system(space, parts[pick % len(parts)])
    assert (extension_outcome(forms.extend_basis, space, system)
            == extension_outcome(oracles.extend_basis_with_complement, space, system))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces(), pick=st.integers(0, 4))
def test_extensions_within_a_subspace_agree_with_the_complement_search_oracle(data, pick):
    # W is spanned by two of the parts and the system is the first's, so W and
    # the space are each degenerate or not; an extension the oracle accepts is
    # a scaled basis of W
    space, parts = data
    u, v = parts[pick % len(parts)], parts[(pick + 1) % len(parts)]
    w = Subspace.spanned_by([*u.basis, *v.basis], space.dim)
    system = forms.scaled_system(space, u)
    got = extension_outcome(forms.extend_basis, space, system, w)
    assert got == extension_outcome(oracles.extend_basis_with_complement, space, system, w)
    try:
        basis = forms.extend_basis(space, system, within=w)
    except PreconditionError:
        return
    basis.check(space)
    assert len(basis.vectors) == w.dim
    assert linalg.row_space(basis.vectors) == linalg.row_space(w.basis)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces(), extra=st.sampled_from(
    ["none", "repeat", "scale", "zero", "meet", "meet"]), pick=st.integers(0, 4))
def test_null_block_rank_agrees_with_the_full_rank_check(data, extra, pick):
    # extend_basis ranks only the null block of a checked system; it must
    # refuse exactly the dependent systems that a rank of all vectors finds.
    # "meet" (listed twice, to be drawn more often) puts z + r right after a
    # null z outside the ambient radical, r in that radical: z + r is null and
    # orthogonal to the system, and the span of z and z + r meets the radical,
    # so an independent system must be refused by name
    space, parts = data
    system = forms.scaled_system(space, parts[pick % len(parts)])
    nulls = system.nulls()
    rad = space.ambient_radical()
    outside = [i for i, (v, m) in enumerate(zip(system.vectors, system.norms))
               if m == 0 and not rad.contains(v)]
    meets = extra == "meet" and bool(outside) and rad.dim > 0
    if meets:
        i = outside[pick % len(outside)]
        null = linalg.vec_add(system.vectors[i], rad.basis[pick % rad.dim])
        system = forms.ScaledSystem((*system.vectors[:i + 1], null, *system.vectors[i + 1:]),
                                    (*system.norms[:i + 1], F(0), *system.norms[i + 1:]))
    elif extra == "zero" or (extra in ("repeat", "scale") and nulls):
        null = (nulls[pick % len(nulls)] if extra != "zero"
                else strategies.fraction_vector([0] * space.dim))
        null = linalg.vec_scale(-2, null) if extra == "scale" else null
        system = forms.ScaledSystem((*system.vectors, null), (*system.norms, F(0)))
    vectors = system.vectors
    try:
        forms.extend_basis(space, system)
        message = None
    except PreconditionError as ex:
        message = str(ex)
    dependent = linalg.rank(vectors) < len(vectors)
    assert (message == "system vectors must be linearly independent") == dependent
    if meets and not dependent:
        assert message == "null vectors outside the ambient radical must be independent modulo it"


def test_public_extensions_check_independence():
    space = QuadraticSpace.standard(2, 2)
    null = linalg.vec_add(unit(1), unit(3))
    # each system passes the norm and orthogonality check but is dependent
    for system in (forms.ScaledSystem((null, null), (F(0), F(0))),
                   forms.ScaledSystem((unit(0), null, linalg.vec_scale(2, null)),
                                      (F(1), F(0), F(0))),
                   forms.ScaledSystem((unit(0), linalg.vec_scale(0, null)), (F(1), F(0)))):
        system.check(space)
        with pytest.raises(PreconditionError, match="linearly independent"):
            forms.extend_basis(space, system)
    # extend_nullsystem hands its nulls to extend_basis, whose null-block rank names them
    with pytest.raises(PreconditionError, match="system vectors must be linearly independent"):
        forms.extend_nullsystem(space, [null, linalg.vec_scale(-3, null)])


def test_extension_names_nulls_that_meet_the_ambient_radical():
    # z1 and z2 are independent null vectors outside rad(V) = <e2>, but
    # z2 - z1 = e2 lies in it, so no complement of rad(V) holds both
    space = QuadraticSpace.from_matrix(linalg.diag([1, -1, 0]))
    z1, z2 = strategies.fraction_vector([1, 1, 0]), strategies.fraction_vector([1, 1, 1])
    system = forms.ScaledSystem((z1, z2), (F(0), F(0)))
    system.check(space)
    with pytest.raises(PreconditionError,
                       match="null vectors outside the ambient radical must be independent "
                             "modulo it"):
        forms.extend_basis(space, system)


def split_outcome(split, space, v_sub, v):
    """repr of split(space, v_sub, v), or the type and message of the named error it raises."""
    try:
        return repr(split(space, v_sub, v))
    except (PreconditionError, linalg.ShapeError) as ex:
        return type(ex).__name__, str(ex)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces())
def test_lightlike_split_agrees_with_the_inner_oracle_on_degenerate_spaces(data):
    # one pairing row, and h oriented by the leading sign of 2c w - d v, against a
    # pairing per inner product: W's basis and system, the sum of each pair of
    # system vectors with opposite norms (a null vector outside rad W), the units
    # and zero
    space, parts = data
    n = space.dim
    for w in parts:
        system = forms.scaled_system(space, w)
        pairs = zip(system.vectors, system.norms)
        sums = [linalg.vec_add(x, y) for (x, a), (y, b) in itertools.combinations(pairs, 2)
                if a == -b != 0]
        units = [strategies.unit(n, i) for i in range(n)]
        for v in (*w.basis, *system.vectors, *sums, *units, (0,) * n):
            assert (split_outcome(forms.lightlike_split, space, w, v)
                    == split_outcome(oracles.inner_lightlike_split, space, w, v))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.null_systems())
def test_lightlike_split_agrees_with_the_inner_oracle_on_null_systems(data):
    # each null split in the whole space and in the perp of the other nulls, as the
    # split loop does; the strategy's faults make some of them refusals
    space, nulls = data
    full = Subspace.full(space.dim)
    for i, v in enumerate(nulls):
        others = nulls[:i] + nulls[i + 1:]
        for v_sub in (full, forms._perp_within(space, full, others)):
            assert (split_outcome(forms.lightlike_split, space, v_sub, v)
                    == split_outcome(oracles.inner_lightlike_split, space, v_sub, v))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces(), pick=st.integers(0, 4),
       order=st.sampled_from(["as made", "reversed", "radical first", "radical last"]))
def test_radical_nulls_read_off_one_pairing_agree_with_the_contains_oracle(data, pick, order):
    # extend_basis reads z in rad V as G z = 0 off one pairing with the units; the
    # oracle ranks each z against the radical.  The null block is reversed, or a
    # radical basis vector joins it first or last, so that both meet misordered and
    # dependent null blocks and must refuse them by the same name
    space, parts = data
    system = forms.scaled_system(space, parts[pick % len(parts)])
    rad = space.ambient_radical()
    nulls = system.nulls()
    if order == "reversed":
        nulls = nulls[::-1]
    elif rad.dim and order != "as made":
        r = rad.basis[pick % rad.dim]
        nulls = [r, *nulls] if order == "radical first" else [*nulls, r]
    system = forms.ScaledSystem((*system.positives(), *system.negatives(), *nulls),
                                (*system.norms, *[0] * (len(nulls) - len(system.nulls()))))
    assert (extension_outcome(forms.extend_basis, space, system)
            == extension_outcome(oracles.extend_basis_with_complement, space, system))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=strategies.null_systems())
def test_null_systems_reach_the_radical_test_as_the_contains_oracle_does(data):
    # the all-null system of the nulls, in the strategy's degenerate spaces too
    space, nulls = data
    system = forms.ScaledSystem(tuple(nulls), (0,) * len(nulls))
    assert (extension_outcome(forms.extend_basis, space, system)
            == extension_outcome(oracles.extend_basis_with_complement, space, system))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=strategies.null_systems(), extra=st.sampled_from(
    ["none", "zero", "scaled", "pairs", "non-null", "both"]), pick=st.integers(0, 7))
def test_extend_nullsystem_refuses_what_it_refused_before(data, extra, pick):
    # extend_nullsystem hands its checks to extend_basis: `check` and the null-block
    # rank refuse exactly the inputs that its own rank and pairing check refused
    space, nulls = data
    n = space.dim
    units = [strategies.unit(n, i) for i in range(n)]
    if extra == "zero":
        nulls = nulls + [(0,) * n]
    elif extra == "scaled" and nulls:
        nulls = nulls + [linalg.vec_scale(pick - 3 or 2, nulls[pick % len(nulls)])]
    elif extra == "pairs":
        nulls = nulls + [units[pick % n]]
    elif extra == "non-null":
        nulls = [units[pick % n]] + nulls
    elif extra == "both" and nulls:
        # dependent and not orthogonal: the old checks named the rank first
        nulls = nulls + [nulls[0], units[pick % n]]
    before = oracles.rank_first_nullsystem_refusal(space, nulls)
    try:
        forms.extend_nullsystem(space, nulls)
        refused = False
    except PreconditionError:
        refused = True
    assert refused == (before is not None)


def test_pairing_rejects_wrong_lengths_and_takes_empty_lists():
    assert SP22.pairing([], [unit(0)]) == []
    assert SP22.pairing([unit(0)], []) == [[]]
    assert restrict(SP22, Subspace(4, ())) == []
    with pytest.raises(linalg.ShapeError):
        SP22.pairing([unit(0, 3)], [unit(0)])
    with pytest.raises(linalg.ShapeError):
        SP22.inner(unit(0), unit(0, 5))


# ---------------------------------------------------------------------------
# intersections read off one rank: differential tests against the intersect oracles


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags())
def test_flag_invariants_agree_with_intersect_oracle(data):
    p, q, f = data
    space = QuadraticSpace.standard(p, q)
    assert flag_invariants(space, f) == oracles.intersect_flag_invariants(space, f)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags(codim_two=True))
def test_matsuki_data_agrees_with_intersect_oracle(data):
    p, q, f = data
    assert matsuki_data(f, p, q) == oracles.intersect_matsuki_data(f, p, q)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces())
def test_subspaces_equivalent_agrees_with_intersect_oracle(data):
    space, parts = data
    for u in parts:
        for w in parts:
            assert subspaces_equivalent(space, u, w) == oracles.intersect_subspaces_equivalent(
                space, u, w)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=degenerate_gram_and_vectors())
def test_contains_agrees_with_in_span_oracle(data):
    space, vectors = data
    w = Subspace.spanned_by(vectors[: len(vectors) // 2], space.dim)
    for v in vectors + [strategies.fraction_vector([0] * space.dim)]:
        assert w.contains(v) == oracles.in_span(v, w.basis)
    with pytest.raises(linalg.ShapeError):
        w.contains(strategies.fraction_vector([0] * (space.dim + 1)))
