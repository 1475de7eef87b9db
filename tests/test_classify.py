"""Metric classification: tables, representatives, group action, round trips."""

import random
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import strategies
from heisflag import linalg, sampling
from heisflag.enumeration import survey_flags
from heisflag.forms import LineSignature, PreconditionError, QuadraticSpace, Signature, \
    Subspace, flag_invariants, refined_line_signature, signature
from heisflag.heisenberg import (
    CLASS_ROWS,
    HeisenbergAlgebra,
    ScaledAutomorphism,
    UnsupportedSignatureError,
    act_on_metric,
    admissible_classes,
    classify_metric,
    is_scaled_automorphism,
    parabolic_sample,
    representative,
    representative_flag,
)

TWO_PLANES = linalg.mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
LORENTZ_FLAT = linalg.mat([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])


def test_taxonomy_has_21_rows():
    assert len(CLASS_ROWS) == 21
    assert CLASS_ROWS[0].pattern == (-2, 0, 0)
    assert CLASS_ROWS[20].refined == LineSignature.RADICAL


def test_classify_examples():
    alg = HeisenbergAlgebra(4)
    got = classify_metric(alg, linalg.diag([1, 1, -1, -1]))
    assert got.class_id == 7
    assert got.center_signature == Signature(2, 0, 0)
    assert got.refined == LineSignature.SPACELIKE

    got = classify_metric(alg, TWO_PLANES)
    assert got.class_id == 21
    assert got.center_signature == Signature(0, 0, 2)

    got = classify_metric(alg, LORENTZ_FLAT)
    assert got.class_id == 13
    assert (got.p, got.q) == (3, 1)
    assert got.center_signature == Signature(1, 0, 1)


def test_classify_swap_convention():
    alg = HeisenbergAlgebra(4)
    got = classify_metric(alg, linalg.diag([1, -1, -1, -1]))
    assert got.swapped and (got.p, got.q) == (3, 1) and got.class_id == 2
    # negating realizes the signature swap: same class, no swap flag
    direct = classify_metric(alg, linalg.diag([-1, 1, 1, 1]))
    assert not direct.swapped and direct.class_id == 2


def test_classify_integer_gram_exactly():
    # representative 12 at (3, 2) moved by an integral parabolic element; ints
    # that reach `/` turn into floats, and rounding then gives class 6
    gram = [[0, 1, 5, 11, 58], [1, 10, 51, 116, 632], [5, 51, 260, 591, 3219],
            [11, 116, 591, 1343, 7312], [58, 632, 3219, 7312, 39789]]
    got = classify_metric(HeisenbergAlgebra(5), gram)
    assert got.class_id == 12 and (got.p, got.q) == (3, 2)
    assert got.class_id == classify_metric(HeisenbergAlgebra(5), linalg.mat(gram)).class_id


def test_classify_rejections():
    alg = HeisenbergAlgebra(4)
    with pytest.raises(UnsupportedSignatureError):
        classify_metric(alg, linalg.identity(4))
    with pytest.raises(UnsupportedSignatureError):
        classify_metric(alg, linalg.diag([-1, -1, -1, -1]))
    with pytest.raises(PreconditionError):
        classify_metric(alg, linalg.diag([1, 1, 0, -1]))
    with pytest.raises(PreconditionError):
        classify_metric(alg, linalg.diag([1, 1, -1]))
    for n in (3, 2):
        with pytest.raises(UnsupportedSignatureError, match=f"n = {n} is out of scope"):
            HeisenbergAlgebra(n)


def test_admissible_tables_match_fixture():
    assert admissible_classes(3, 3).ids == tuple(range(1, 22))
    assert admissible_classes(3, 2).ids == (1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 17, 18, 21)
    assert admissible_classes(3, 1).ids == (1, 2, 3, 4, 10, 13)
    assert admissible_classes(2, 2).ids == (2, 4, 5, 6, 7, 11, 13, 14, 17, 21)


def test_admissible_counts():
    for (p, q), want in [((3, 3), 21), ((3, 2), 15), ((3, 1), 6), ((2, 2), 10),
                         ((4, 3), 21), ((4, 2), 15), ((5, 1), 6)]:
        assert admissible_classes(p, q).count == want
        assert admissible_classes(q, p).count == want


def test_admissible_rejections():
    with pytest.raises(UnsupportedSignatureError):
        admissible_classes(2, 1)
    with pytest.raises(UnsupportedSignatureError):
        admissible_classes(4, 0)


def test_representative_fixtures():
    assert representative(7, 2, 2) == linalg.diag([1, 1, -1, -1])
    assert representative(21, 2, 2) == TWO_PLANES
    assert representative(13, 3, 1) == LORENTZ_FLAT


def test_representative_entries_small():
    for p, q in [(3, 3), (3, 2), (2, 2), (3, 1)]:
        for row in admissible_classes(p, q).classes:
            rep = representative(row.id, p, q)
            assert all(x in (F(0), F(1), F(-1)) for r in rep for x in r)


def test_representative_inadmissible_rejected():
    with pytest.raises(PreconditionError):
        representative(8, 3, 2)
    with pytest.raises(PreconditionError):
        representative(1, 2, 2)


def test_round_trip_all_signatures():
    for total in range(4, 9):
        alg = HeisenbergAlgebra(total)
        for p in range(1, total):
            q = total - p
            for row in admissible_classes(p, q).classes:
                got = classify_metric(alg, representative(row.id, p, q))
                assert got.class_id == row.id
                assert got.swapped == (p < q)


def test_the_refined_type_has_one_home():
    # classify_metric reads e_0's type off row 0 of the Gram matrix and
    # refined_line_signature off one pairing row, both through LineSignature.of;
    # on each row's representative and one move of it, in both orders, both name
    # the row's own type, read in the (negated if swapped) Gram space
    rng = random.Random(42)
    for n in range(4, 9):
        alg = HeisenbergAlgebra(n)
        center, e0 = Subspace.coordinate(n, range(n - 2)), Subspace.coordinate(n, [0])
        for q in range(1, n):
            p = n - q
            for row in admissible_classes(p, q).classes:
                rep = representative(row.id, p, q)
                moved = act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix], rep)
                for gram in (rep, moved):
                    got = classify_metric(alg, gram)
                    sign = -1 if got.swapped else 1
                    space = QuadraticSpace.from_matrix([[sign * x for x in r] for r in gram])
                    assert (got.refined == row.refined
                            == refined_line_signature(space, center, e0)), (p, q, row.id)


def test_parabolic_sample_examples():
    sa = ScaledAutomorphism.from_matrix(linalg.identity(4))
    assert sa.scale == 1 and [list(r) for r in sa.automorphism] == linalg.identity(4)
    sa = ScaledAutomorphism.from_matrix(linalg.diag([2, 2, 2, 2]))
    assert sa.scale == 2 and [list(r) for r in sa.automorphism] == linalg.identity(4)
    sa = ScaledAutomorphism.from_matrix(linalg.diag([-1, 1, 1, 1]))
    assert sa.scale == -1
    assert sa.preserves_bracket(HeisenbergAlgebra(4))


def test_scaled_automorphism_from_integer_matrix_is_exact():
    sa = ScaledAutomorphism.from_matrix([[3, 1, 2, 5], [0, 1, 4, 7], [0, 0, 2, 1], [0, 0, 1, 1]])
    assert sa.scale == F(1, 3)
    assert strategies.canonical_entries((sa.scale, sa.matrix, sa.automorphism))
    assert sa.automorphism[0] == (9, 3, 6, 15)
    assert sa.preserves_bracket(HeisenbergAlgebra(4))


def test_representative_flag_realizes_its_row():
    for n in range(4, 9):
        for q in range(1, n):
            p = n - q
            space = QuadraticSpace.standard(p, q)
            for row in admissible_classes(p, q).classes:
                got = flag_invariants(space, representative_flag(row.id, p, q))
                assert got == row.flag_invariants(p, q), (p, q, row.id)
    # the survey reads the orbits of the (p, q) space itself, also at p < q
    for p, q in [(1, 3), (2, 3), (3, 4)]:
        rows = admissible_classes(p, q).classes
        assert {row.flag_invariants(p, q) for row in rows} == survey_flags(p, q).observed_invariants


def test_classified_gram_names_its_flag_orbit():
    # the paper's correspondence: a basis B whose first vector spans the line
    # and whose first n - 2 span the big part makes the flag (derived line,
    # center) of the Gram matrix <B, B>, so its row names the flag's orbit
    rng = random.Random(7)
    for n in range(4, 9):
        alg = HeisenbergAlgebra(n)
        for q in range(1, n):
            p = n - q
            space = QuadraticSpace.standard(p, q)
            flags = [sampling.random_flag(p, q, rng) for _ in range(20)]
            flags += [representative_flag(row.id, p, q) for row in admissible_classes(p, q).classes]
            for f in flags:
                pool = [*f.big.basis, *linalg.identity(n)]
                basis = linalg.extend_to_independent(list(f.small.basis), pool, n)
                got = classify_metric(alg, space.pairing(basis, basis)).metric_class
                assert got.flag_invariants(p, q) == flag_invariants(space, f), (p, q, f)


def test_representatives_agree_with_the_old_builders():
    """The cell walks give the old Gram matrices exactly and, at p >= q, the old flag spans."""
    for n in range(4, 17):
        for q in range(1, n):
            p = n - q
            for row in admissible_classes(p, q).classes:
                got = representative(row.id, p, q)
                assert got == oracles.cursor_representative(row.id, p, q), (p, q, row.id)
                assert strategies.canonical_entries(got)
                if p < q or n > 12:
                    continue
                flag = representative_flag(row.id, p, q)
                old = oracles.axis_pop_representative_flag(row.id, p, q)
                for part, old_part in ((flag.small, old.small), (flag.big, old.big)):
                    assert linalg.row_space(part.basis) == linalg.row_space(old_part.basis), \
                        (p, q, row.id)


def test_parabolic_sample_properties():
    rng = random.Random(2)
    for k in range(120):
        n = 4 + k % 3
        sa = parabolic_sample(n, rng)
        assert is_scaled_automorphism([list(r) for r in sa.matrix], n)
        assert sa.preserves_bracket(HeisenbergAlgebra(n))
        a = sa.matrix[0][0]
        det_d = (sa.matrix[n - 2][n - 2] * sa.matrix[n - 1][n - 1]
                 - sa.matrix[n - 2][n - 1] * sa.matrix[n - 1][n - 2])
        assert a * sa.scale == det_d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["sample", "wrong scale", "perturbed", "random"]))
def test_closed_form_bracket_check_agrees_with_the_loop(n, seed, kind):
    # the closed form reads phi's column 0 and its rows (n-2, n-1); the loop oracle
    # checks phi [e_i, e_j] = [phi e_i, phi e_j] on every basis pair
    rng = random.Random(seed)
    alg = HeisenbergAlgebra(n)
    sa = parabolic_sample(n, rng)
    if kind == "wrong scale":
        sa = ScaledAutomorphism(sa.matrix, sa.scale * rng.choice([2, -1, F(1, 3), F(-3, 2)]))
    elif kind == "perturbed":
        m = [list(row) for row in sa.matrix]
        m[rng.randrange(n)][rng.randrange(n)] += rng.choice([1, -1, F(1, 2)])
        sa = ScaledAutomorphism(tuple(map(tuple, linalg.mat(m))), sa.scale)
    elif kind == "random":
        m = [[linalg.ratio(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        sa = ScaledAutomorphism(tuple(map(tuple, m)), rng.choice([1, -1, F(1, 2)]))
    got = sa.preserves_bracket(alg)
    assert got == oracles.loop_preserves_bracket(sa, alg)
    if kind in ("sample", "wrong scale"):
        assert got == (kind == "sample")


def test_is_scaled_automorphism_negatives():
    reversal = [[F(1) if i + j == 3 else F(0) for j in range(4)] for i in range(4)]
    assert not is_scaled_automorphism(reversal, 4)
    bad = linalg.identity(4)
    bad[2][0] = F(1)
    assert not is_scaled_automorphism(bad, 4)
    assert not is_scaled_automorphism(linalg.zeros(4, 4), 4)


def test_act_on_metric_examples():
    gram = linalg.diag([1, -1, 1, -1])
    assert act_on_metric(linalg.identity(4), gram) == gram
    doubled = act_on_metric(linalg.diag([2, 2, 2, 2]), gram)
    assert doubled == [[x / 4 for x in row] for row in gram]
    swap01 = linalg.mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert act_on_metric(swap01, gram) == linalg.diag([-1, 1, 1, -1])
    sa = parabolic_sample(5, 3)
    gram = linalg.diag([1, 1, -1, 1, -1])
    assert act_on_metric(sa.matrix, gram) == act_on_metric([list(r) for r in sa.matrix], gram)


def _moved(n, gram, rng, check_oracle=False):
    g = [list(r) for r in parabolic_sample(n, rng).matrix]
    acted = act_on_metric(g, gram)
    if check_oracle:
        assert acted == oracles.mat_mul_act_on_metric(g, gram)
    return acted


def _raised(classify, alg, gram):
    with pytest.raises(PreconditionError) as info:
        classify(alg, gram)
    return info.type, str(info.value)


@pytest.mark.parametrize("n", range(4, 17))
def test_parabolic_orbit_invariance(n):
    """Moved rows keep their class and match the two-congruence classification.

    Rows with a radical center are moved twice and also classified by the
    oracle, in both the p > q and the p < q order; up to n = 8 every other
    row is moved once.  Degenerate and definite matrices, moved, raise the
    oracle's error.
    """
    rng = random.Random(8 + n)
    alg = HeisenbergAlgebra(n)
    big = n // 2 + 1
    for p, q in [(big, n - big), (n - big, big)]:
        for row in admissible_classes(p, q).classes:
            radical = row.pattern[2] > 0
            if not radical and n > 8:
                continue
            acted = _moved(n, representative(row.id, p, q), rng, check_oracle=n <= 8)
            if radical:
                acted = _moved(n, acted, rng)
            got = classify_metric(alg, acted)
            assert got.class_id == row.id and got.swapped == (p < q)
            if radical:
                assert got == oracles.two_call_classify(alg, acted)
    rep = representative(admissible_classes(big, n - big).classes[-1].id, big, n - big)
    # definite, then degenerate: a representative with its last row and column zeroed
    for gram in (linalg.identity(n), linalg.diag([-1] * n),
                 [[x if n - 1 not in (i, j) else F(0) for j, x in enumerate(r)]
                  for i, r in enumerate(rep)],
                 [[F(0)] * n for _ in range(n)]):
        moved = _moved(n, gram, rng)
        assert (_raised(classify_metric, alg, moved)
                == _raised(oracles.two_call_classify, alg, moved))


def test_classify_builds_no_rationals_from_the_congruence():
    # classify and signature read only the signs of the congruence's pivots:
    # with its diagonal, columns and transform made to raise, they answer as before
    def refuse(self):
        raise AssertionError("a rational of the congruence was built")

    rng = random.Random(35)
    cases = []
    for n in range(4, 17):
        big = n // 2 + 1
        center = Subspace(n, tuple(map(tuple, linalg.identity(n)[:n - 2])))
        for p, q in [(big, n - big), (n - big, big)]:
            for row in admissible_classes(p, q).classes:
                gram = _moved(n, representative(row.id, p, q), rng)
                cases.append((HeisenbergAlgebra(n), gram, QuadraticSpace.from_matrix(gram), center))

    def answers():
        return [(classify_metric(alg, gram), signature(space), signature(space, center))
                for alg, gram, space, center in cases]

    want = answers()
    with patch.object(linalg.CongruenceResult, "diagonal", property(refuse)), \
            patch.object(linalg.CongruenceResult, "columns", property(refuse)), \
            patch.object(linalg.CongruenceResult, "transform", property(refuse)):
        assert answers() == want


def test_class_coverage_over_small_gram_congruences():
    rng = random.Random(0)
    for p, q in [(2, 2), (3, 1), (3, 2), (3, 3)]:
        alg = HeisenbergAlgebra(p + q)
        want = set(admissible_classes(p, q).ids)
        seen = set()
        for _ in range(1200):
            seen.add(classify_metric(alg, sampling.random_gram(p, q, rng)).class_id)
            if seen == want:
                break
        assert seen == want


def test_swap_symmetry():
    for p in range(1, 7):
        for q in range(1, 7):
            if p + q < 4 or p + q > 7:
                continue
            assert admissible_classes(p, q).count == admissible_classes(q, p).count
