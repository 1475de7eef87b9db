"""Curvature engine: Koszul identities, oracle comparison, flatness, solitons."""

import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import oracles
from heisflag import linalg
from heisflag.curvature import curvature_report, is_flat, riemann
from heisflag.forms import PreconditionError
from heisflag.linalg import ShapeError
from heisflag.heisenberg import HeisenbergAlgebra, admissible_classes, parabolic_sample, \
    act_on_metric, representative
from strategies import as_fractions, canonical_entries, random_nondegenerate_symmetric

FLAT_IDS = (13, 17, 20, 21)


def test_levi_civita_oracle_values():
    alg = HeisenbergAlgebra(4)
    conn = oracles.koszul_levi_civita(alg, linalg.identity(4))
    assert conn.gamma[2][3] == (F(1, 2), F(0), F(0), F(0))
    assert conn.gamma[2][0] == (F(0), F(0), F(0), F(-1, 2))
    assert conn.is_metric_compatible(linalg.identity(4))
    assert conn.is_torsion_free(alg)


def test_riemann_and_report_validate_the_gram():
    alg = HeisenbergAlgebra(4)
    lopsided = linalg.identity(4)
    lopsided[0][1] = F(1)
    singular = linalg.diag([1, 0, 1, -1])
    for bad, cause in ((lopsided, "symmetric"), (singular, "singular")):
        with pytest.raises(PreconditionError, match=cause):
            riemann(alg, bad)
        with pytest.raises(PreconditionError, match=cause):
            curvature_report(alg, bad)


def test_abelian_directions_are_flat():
    # e_1 and e_2 span the Euclidean factor and are central, so every bracket in
    # the Koszul formula for nabla_{e_i} e_j vanishes, whatever the metric
    alg = HeisenbergAlgebra(5)
    conn = oracles.koszul_levi_civita(alg, linalg.identity(5))
    for i in range(1, 3):
        for j in range(1, 3):
            assert all(x == 0 for x in conn.gamma[i][j])


def test_riemann_oracle_component():
    alg = HeisenbergAlgebra(4)
    riem = riemann(alg, linalg.identity(4))
    assert riem[2][3][3][2] == F(-3, 4)
    assert not is_flat(riem)


def test_ricci_matches_independent_oracle():
    alg = HeisenbergAlgebra(4)
    report = curvature_report(alg, linalg.identity(4))
    ric, scalar = [list(row) for row in report.ricci], report.scalar_curv
    assert ric == linalg.diag([F(1, 2), 0, F(-1, 2), F(-1, 2)])
    assert scalar == F(-1, 2)
    oracle_ric, oracle_scalar = oracles.ricci_tensor(4, linalg.identity(4))
    assert ric == oracle_ric
    assert scalar == oracle_scalar


def test_engine_matches_oracle_on_random_grams():
    rng = random.Random(14)
    alg = HeisenbergAlgebra(4)
    for _ in range(12):
        gram = random_nondegenerate_symmetric(4, rng)
        riem = riemann(alg, gram)
        oracle_riem = oracles.riemann_tensor(4, gram)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert list(riem[i][j][k]) == oracle_riem[i][j][k]
        report = curvature_report(alg, gram)
        ric, scalar = [list(row) for row in report.ricci], report.scalar_curv
        oracle_ric, oracle_scalar = oracles.ricci_tensor(4, gram)
        assert ric == oracle_ric and scalar == oracle_scalar


def test_koszul_identities_random():
    rng = random.Random(21)
    for k in range(200):
        n = 4 + k % 2
        alg = HeisenbergAlgebra(n)
        gram = random_nondegenerate_symmetric(n, rng)
        conn = oracles.koszul_levi_civita(alg, gram)
        assert conn.is_metric_compatible(gram)
        assert conn.is_torsion_free(alg)


def test_riemann_identities_random():
    rng = random.Random(22)
    for k in range(200):
        n = 4 + k % 2
        alg = HeisenbergAlgebra(n)
        gram = random_nondegenerate_symmetric(n, rng)
        riem = riemann(alg, gram)
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    # antisymmetry in the first two slots
                    assert riem[i][j][m] == tuple(-x for x in riem[j][i][m])
                    # first Bianchi identity
                    total = [a + b + c for a, b, c in
                             zip(riem[i][j][m], riem[j][m][i], riem[m][i][j])]
                    assert all(x == 0 for x in total)
        # pair symmetry <R(x,y)z, w> = <R(z,w)x, y> on the lowered tensor
        low = [[[[sum(gram[d][l] * riem[a][b][c][l] for l in range(n))
                  for d in range(n)] for c in range(n)]
                for b in range(n)] for a in range(n)]
        for i in range(n):
            for j in range(n):
                for k2 in range(n):
                    for l in range(n):
                        assert low[i][j][k2][l] == low[k2][l][i][j]


def test_flatness_is_orbit_invariant():
    rng = random.Random(77)
    alg = HeisenbergAlgebra(4)
    for row in admissible_classes(2, 2).classes:
        base = representative(row.id, 2, 2)
        base_flat = is_flat(riemann(alg, base))
        for _ in range(200):
            acted = act_on_metric([list(r) for r in parabolic_sample(4, rng).matrix], base)
            assert is_flat(riemann(alg, acted)) == base_flat


def pinned_entries(n):
    """Entries (r, c) that are zero in every derivation."""
    a, b = n - 2, n - 1
    return ({(r, 0) for r in range(1, n)}
            | {(r, c) for r in (a, b) for c in range(1, n - 2)})


def assert_soliton_conditions_cut_out_der(n):
    """Der(g) is exactly the matrices of the `curvature` module docstring's conditions.

    Every element of the kernel oracle is zero on `pinned_entries(n)` and
    meets D_00 = D_aa + D_bb, and the kernel has the dimension those
    n - 1 + 2(n - 3) + 1 conditions leave, n^2 - 3n + 6.
    """
    alg = HeisenbergAlgebra(n)
    a, b = n - 2, n - 1
    pinned = pinned_entries(n)
    basis = oracles.kernel_derivation_space(alg)
    assert len(basis) == n * n - len(pinned) - 1 == n * n - 3 * n + 6
    for flat in basis:
        d = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        assert all(d[r][c] == 0 for r, c in pinned)
        assert d[0][0] == d[a][a] + d[b][b]
        assert is_derivation(alg, d)


def test_derivation_space_structure():
    # the pinned entries: the first column below D_00, and rows a, b in
    # columns 1..n-3; columns 1..n-3 stay free in the first n-2 rows, the
    # last two columns free everywhere
    assert len(pinned_entries(4)) == 3 + 2
    assert_soliton_conditions_cut_out_der(4)


def test_soliton_flat_case():
    alg = HeisenbergAlgebra(4)
    gram = representative(21, 2, 2)
    report = curvature_report(alg, gram)
    assert report.is_flat
    c, d = report.soliton
    assert c == 0 and all(x == 0 for row in d for x in row)
    assert report.is_einstein


def test_soliton_identity_gram():
    alg = HeisenbergAlgebra(4)
    res = curvature_report(alg, linalg.identity(4)).soliton
    assert res is not None
    c, d = res
    assert c == F(-3, 2)
    assert any(x != 0 for row in d for x in row)


def test_lorentzian_soliton_pattern():
    alg = HeisenbergAlgebra(4)
    flats = 0
    for row in admissible_classes(3, 1).classes:
        report = curvature_report(alg, representative(row.id, 3, 1))
        assert report.soliton is not None
        _, d = report.soliton
        if report.is_flat:
            flats += 1
            assert report.is_einstein
        else:
            assert any(x != 0 for r in d for x in r)
            assert not report.is_einstein
    assert flats == 1


def is_derivation(alg, d):
    """D[e_i, e_j] == [D e_i, e_j] + [e_i, D e_j] for every basis pair."""
    n = alg.n
    units = [tuple(F(1) if k == i else F(0) for k in range(n)) for i in range(n)]
    cols = [tuple(d[r][c] for r in range(n)) for c in range(n)]
    return all(linalg.mat_vec(d, oracles.bracket_basis(alg, i, j))
               == linalg.vec_add(oracles.bracket(alg, cols[i], units[j]),
                                 oracles.bracket(alg, units[i], cols[j]))
               for i in range(n) for j in range(i + 1, n))


def assert_closed_forms(alg, gram, report):
    """The report, read off the module docstring's closed forms, equals the Koszul engine's.

    `oracles.koszul_curvature_report` builds the connection from the Koszul
    formula over every bracket triple, takes the dense Riemann tensor and
    its trace, and finds (c, D) by a linear solve over a kernel basis of
    Der(g).  `riemann` must equal that dense tensor.  The soliton pair must
    also give G (c Id + D) = Ric with D a derivation.
    """
    want, want_riemann = oracles.koszul_curvature_report(alg, gram)
    assert riemann(alg, gram) == want_riemann
    assert report.ricci == want.ricci
    assert report.scalar_curv == want.scalar_curv
    assert report.is_flat == want.is_flat
    assert report.soliton == want.soliton
    n = alg.n
    c, d = report.soliton
    op = [[d[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(gram, op) == [list(row) for row in report.ricci]
    assert is_derivation(alg, d)


@pytest.mark.parametrize("n", range(4, 7))
def test_every_row_is_a_soliton_in_closed_form(n):
    # both orders of each signature, raw and moved by the parabolic group
    rng = random.Random(n)
    alg = HeisenbergAlgebra(n)
    for p in range(1, n):
        for row in admissible_classes(p, n - p).classes:
            raw = representative(row.id, p, n - p)
            moved = act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix], raw)
            for gram in (raw, moved):
                assert_closed_forms(alg, gram, curvature_report(alg, gram))


# The tests that draw from `grams_of_kind` report their first failing draw
# unshrunk: shrinking one took minutes, rerunning the Koszul oracle or
# redrawing Grams that `assume` rejects, to shorten a matrix little.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
GRAM_KINDS = ("g00 zero", "center row zero", "moved flat row", "random", "integer",
              "g00 and B zero")


@st.composite
def grams_of_kind(draw, n, kind):
    """Nondegenerate Gram matrices; all kinds but "random" and "integer" are
    degenerate cases: g_00 = 0, the center part of e_0's row zero, a flat
    row's representative moved by the parabolic group, or g_00 = 0 with a
    zero {a, b} block B of G^-1.  "integer" has `int` entries, not
    `Fraction`s.

    "g00 and B zero" is the second branch of the flatness theorem in the
    `curvature` docstring: the center's radical is two coordinate axes,
    moved by a unipotent change of the center basis that fixes e_0.  From
    n = 6 on, e_0's row is nonzero on the center; below, a rank-(n - 4)
    center form with e_0 null puts e_0 in its radical, the first branch."""
    if kind == "moved flat row":
        p = draw(st.integers(1, n - 1))
        ids = [row.id for row in admissible_classes(p, n - p).classes if row.id in FLAT_IDS]
        assume(ids)
        row_id = draw(st.sampled_from(ids))
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        return act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix],
                             representative(row_id, p, n - p))
    entries = (st.integers(-3, 3) if kind == "integer"
               else st.builds(F, st.integers(-3, 3), st.integers(1, 3)))
    gram = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entries)
    if kind == "g00 zero":
        gram[0][0] = F(0)
    elif kind == "center row zero":
        for i in range(n - 2):
            gram[0][i] = gram[i][0] = F(0)
    elif kind == "g00 and B zero":
        radical = (n - 4, n - 3) if n >= 6 else (0, n - 3)
        for i in radical:
            for j in range(n - 2):
                gram[i][j] = gram[j][i] = F(0)
        gram[0][0] = F(0)
        if n >= 6:
            gram[0][1] = gram[1][0] = F(draw(st.sampled_from([1, -1, 2])))
        t = linalg.identity(n)
        for i in range(1, n - 2):
            for j in range(i):
                t[j][i] = F(draw(st.integers(-1, 1)))
        gram = linalg.mat_mul(linalg.transpose(t), linalg.mat_mul(gram, t))
    assume(linalg.rank(gram) == len(gram))
    return gram


@pytest.mark.parametrize("kind", GRAM_KINDS)
@pytest.mark.parametrize("n", range(4, 9))
@settings(max_examples=2, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(data=st.data())
def test_report_matches_koszul_oracle(n, kind, data):
    alg = HeisenbergAlgebra(n)
    gram = data.draw(grams_of_kind(n, kind))
    report = curvature_report(alg, gram)
    # the cheap checks first, so a broken report fails before the Koszul oracle runs
    tensor = riemann(alg, gram)
    assert report.is_flat == is_flat(tensor)
    c, d = report.soliton
    # R is built from `linalg` products and the report by `linalg.ratio`: both canonical
    assert canonical_entries(tensor)
    assert canonical_entries([report.ricci, d, report.scalar_curv, c])
    assert_closed_forms(alg, gram, report)


BAD_KINDS = ("singular", "non-symmetric", "wrong size", "not square")


@st.composite
def report_inputs(draw, n, kind):
    """A Gram matrix of `kind`: one of `GRAM_KINDS`, "bool" (`bool` entries, often
    singular), or one of `BAD_KINDS`.  A "singular" Gram is S diag(0, d) S^T with e_a
    and e_b in its range, as drawn or with every entry a `Fraction`."""
    if kind in GRAM_KINDS:
        return draw(grams_of_kind(n, kind))
    if kind == "bool":
        gram = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = draw(st.booleans())
        return gram
    if kind == "singular":
        a = n - 2
        s = [[draw(st.integers(-2, 2)) if j < a else int(i == j) for j in range(n)]
             for i in range(n)]
        assume(linalg.rank(s) == n)
        d = [0] + [draw(st.sampled_from([1, -1, F(1, 2)])) for _ in range(n - 1)]
        gram = [[sum(d[t] * s[i][t] * s[j][t] for t in range(n)) for j in range(n)]
                for i in range(n)]
        return gram if draw(st.booleans()) else as_fractions(gram)
    gram = [list(row) for row in draw(grams_of_kind(n, draw(st.sampled_from(GRAM_KINDS))))]
    if kind == "non-symmetric":
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        gram[i][j] += 1
    elif kind == "wrong size":
        gram = draw(st.sampled_from([[row[:-1] for row in gram[:-1]],
                                     [row + [0] for row in gram] + [[0] * n + [1]]]))
    else:
        gram = [row + [0] for row in gram]
    return gram


def outcome(f, *args):
    """f(*args), or the type and message of the named error it raises."""
    try:
        return f(*args)
    except (PreconditionError, ShapeError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("kind", GRAM_KINDS + ("bool",) + BAD_KINDS)
@pytest.mark.parametrize("n", range(4, 11))
@settings(max_examples=10, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(data=st.data())
def test_report_agrees_with_the_fraction_oracle(n, kind, data):
    # the `int` evaluation over 2 P^2 equals the `Fraction` one over the full inverse:
    # each field by value, with canonical entries, and each refusal by type and message
    gram = data.draw(report_inputs(n, kind))
    alg = HeisenbergAlgebra(n)
    check = data.draw(st.booleans())
    got = outcome(curvature_report, alg, gram, check)
    want = outcome(oracles.fraction_curvature_report, alg, gram, check)
    assert got == want, kind
    if kind in BAD_KINDS:
        assert type(want) is tuple and issubclass(want[0], (PreconditionError, ShapeError))
        # `riemann` reads G through the same reader, so it refuses the same way
        assert outcome(riemann, alg, gram) == want
    elif type(got) is not tuple:
        assert canonical_entries([got.ricci, got.scalar_curv, got.soliton or ()]), kind


# sha256 over `repr` of every field of the 632 reports below, as the `Fraction`
# evaluation over the full inverse gave them: each exact entry is written as a
# `Fraction` before it is digested, so the pin holds the reports' values
REPORT_DIGEST = "89c25b7c8a12c835f476f7b0f68890d7d6a0a4aa52f0333ca9c405fe8d45b5d4"


def test_reports_are_pinned():
    # every admissible row at 4 <= n <= 8, both orders, raw and moved once by a
    # `parabolic_sample` seeded with n
    digest = hashlib.sha256()
    count = 0
    for n in range(4, 9):
        rng = random.Random(n)
        alg = HeisenbergAlgebra(n)
        for p in range(1, n):
            for row in admissible_classes(p, n - p).classes:
                raw = representative(row.id, p, n - p)
                moved = act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix], raw)
                for gram in (raw, moved):
                    report = curvature_report(alg, gram)
                    count += 1
                    for field in dataclasses.fields(report):
                        digest.update(repr(as_fractions(getattr(report, field.name))).encode())
    assert (count, digest.hexdigest()) == (632, REPORT_DIGEST)


@pytest.mark.parametrize("n", range(4, 9))
@settings(max_examples=2, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(data=st.data())
def test_second_branch_kind_is_flat(n, data):
    gram = data.draw(grams_of_kind(n, "g00 and B zero"))
    a, b = n - 2, n - 1
    g_inv = oracles.invert(gram)
    assert gram[0][0] == g_inv[a][a] == g_inv[a][b] == g_inv[b][b] == 0
    assert any(gram[0][:n - 2]) == (n >= 6)
    assert curvature_report(HeisenbergAlgebra(n), gram).is_flat
    assert is_flat(riemann(HeisenbergAlgebra(n), gram))


@pytest.mark.parametrize("n", range(4, 9))
def test_flatness_theorem_agrees_with_the_tensor(n):
    # every admissible row in both orders, raw and moved once by the parabolic group
    rng = random.Random(n)
    alg = HeisenbergAlgebra(n)
    for p in range(1, n):
        for row in admissible_classes(p, n - p).classes:
            raw = representative(row.id, p, n - p)
            moved = act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix], raw)
            for gram in (raw, moved):
                report = curvature_report(alg, gram)
                assert (report.is_flat == is_flat(riemann(alg, gram))
                        == (row.id in FLAT_IDS)), (p, row.id)


@pytest.mark.parametrize("n", range(9, 13))
def test_flatness_theorem_on_rows_past_n8(n):
    alg = HeisenbergAlgebra(n)
    for p in range(1, n):
        for row in admissible_classes(p, n - p).classes:
            report = curvature_report(alg, representative(row.id, p, n - p))
            assert report.is_flat == (row.id in FLAT_IDS), (p, row.id)


@pytest.mark.parametrize("n", range(4, 9))
def test_derivation_space_spans_kernel_oracle(n):
    assert_soliton_conditions_cut_out_der(n)


def test_curvature_report_at_n16():
    p, q = 10, 6
    alg = HeisenbergAlgebra(p + q)
    ids = set(admissible_classes(p, q).ids)
    assert set(FLAT_IDS) <= ids
    for class_id in FLAT_IDS + (1, 6, 11, 16):
        gram = representative(class_id, p, q)
        report = curvature_report(alg, gram)
        flat = all(x == 0 for plane in riemann(alg, gram) for row in plane for v in row for x in v)
        assert report.is_flat == flat == (class_id in FLAT_IDS), class_id
        assert report.soliton is not None, class_id
        c, d = report.soliton
        op = [[d[i][j] + (c if i == j else 0) for j in range(p + q)] for i in range(p + q)]
        assert linalg.mat_mul(gram, op) == [list(row) for row in report.ricci], class_id
        assert is_derivation(alg, d), class_id
