"""Acceptance gate.

Each test is one criterion, run at its stated tolerance, printing one
pass/fail line (visible with `pytest -s`) and appending one JSON line
(`criterion`, `name`, `seconds`, `budget`) to `.bench_out/acceptance.jsonl`
at the repository root.  Everything exact unless a floating tolerance is
stated; timing budgets are asserted where given.
"""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from heisflag import linalg, sampling
from heisflag.curvature import curvature_report, is_flat, riemann
from heisflag.enumeration import _survey_cached, survey_flags
from heisflag.forms import (
    FlagInvariants,
    LineSignature,
    QuadraticSpace,
    Signature,
    flag_invariants,
)
from heisflag.heisenberg import (
    HeisenbergAlgebra,
    act_on_metric,
    admissible_classes,
    classify_metric,
    parabolic_sample,
    representative,
    representative_flag,
)
from heisflag.witness import (
    InequivalentFlagsError,
    isometry_witness,
    witness_residuals,
)
from strategies import random_nondegenerate_symmetric, random_symmetric

TABLE2_IDS = {
    (3, 3): set(range(1, 22)),
    (3, 2): {1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 17, 18, 21},
    (3, 1): {1, 2, 3, 4, 10, 13},
    (2, 2): {2, 4, 5, 6, 7, 11, 13, 14, 17, 21},
}

SMALL_OF = {
    LineSignature.SPACELIKE: (Signature(1, 0, 0), 0),
    LineSignature.TIMELIKE: (Signature(0, 1, 0), 0),
    LineSignature.LIGHTLIKE: (Signature(0, 0, 1), 0),
    LineSignature.RADICAL: (Signature(0, 0, 1), 1),
}


TIMINGS = Path(__file__).resolve().parent.parent / ".bench_out" / "acceptance.jsonl"


def report(num, name, started, budget=None):
    elapsed = time.time() - started
    suffix = f" ({elapsed:.2f}s, budget {budget:.0f}s)" if budget else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")
    TIMINGS.parent.mkdir(exist_ok=True)
    with TIMINGS.open("a") as out:
        out.write(json.dumps({"criterion": num, "name": name, "seconds": round(elapsed, 3),
                              "budget": budget}) + "\n")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def expected_invariant_set(p, q):
    out = set()
    for row in admissible_classes(p, q).classes:
        sig, cap = SMALL_OF[row.refined]
        out.add(FlagInvariants(row.center_signature(max(p, q), min(p, q)), sig, cap))
    return out


def test_criterion_01_class_counts():
    started = time.time()
    expected = {(3, 3): 21, (3, 2): 15, (3, 1): 6, (2, 2): 10,
                (4, 3): 21, (4, 2): 15, (5, 1): 6}
    for (p, q), count in expected.items():
        assert admissible_classes(p, q).count == count, (p, q)
        assert admissible_classes(q, p).count == count, (q, p)
    report(1, "class-counts", started, budget=1.0)


def test_criterion_02_table_pattern():
    started = time.time()
    for (p, q), ids in TABLE2_IDS.items():
        assert set(admissible_classes(p, q).ids) == ids, (p, q)
    report(2, "table-2-id-sets", started)


def test_criterion_03_round_trip():
    started = time.time()
    for total in range(4, 9):
        alg = HeisenbergAlgebra(total)
        for p in range(1, total):
            q = total - p
            for row in admissible_classes(p, q).classes:
                got = classify_metric(alg, representative(row.id, p, q))
                assert got.class_id == row.id, (p, q, row.id)
    report(3, "representative-round-trip", started, budget=5.0)


def test_criterion_04_orbit_invariance():
    started = time.time()
    pairs = [(2, 2), (3, 1), (3, 2), (3, 3)]
    rng = random.Random(2024)
    for p, q in pairs:
        n = p + q
        alg = HeisenbergAlgebra(n)
        table = admissible_classes(p, q)
        for _ in range(1000):
            row = table.classes[rng.randrange(table.count)]
            acted = act_on_metric([list(r) for r in parabolic_sample(n, rng).matrix],
                                  representative(row.id, p, q))
            assert classify_metric(alg, acted).class_id == row.id, (p, q, row.id)
    rng = random.Random(4048)
    for p, q in pairs:
        space = QuadraticSpace.standard(p, q)
        bases = [(f, flag_invariants(space, f))
                 for f in (representative_flag(r.id, p, q)
                           for r in admissible_classes(p, q).classes)]
        for _ in range(1000):
            f, inv = bases[rng.randrange(len(bases))]
            g = sampling.random_opq(p, q, rng)
            assert flag_invariants(space, sampling.apply_to_flag(g, f)) == inv, (p, q)
    report(4, "orbit-invariance-1000-per-signature", started, budget=30.0)


def test_criterion_05_enumeration_completeness():
    started = time.time()
    for p, q in [(2, 2), (3, 1), (3, 2), (3, 3)]:
        survey = survey_flags(p, q)
        expected = expected_invariant_set(p, q)
        observed = survey.observed_invariants
        assert observed == expected, (p, q, observed ^ expected)
    report(5, "enumeration-completeness", started, budget=120.0)


def test_criterion_06_matsuki_duality_count():
    started = time.time()
    for (p, q), count in [((2, 2), 10), ((3, 2), 15), ((3, 3), 21)]:
        survey = survey_flags(p, q)
        assert len(survey.matsuki) == count, (p, q, len(survey.matsuki))
        assert len(survey.observed_invariants) == count
    report(6, "matsuki-duality-count", started)


def test_criterion_07_flatness():
    started = time.time()
    flat_ids = {13, 17, 20, 21}
    for total in range(4, 8):
        alg = HeisenbergAlgebra(total)
        for p in range(1, total):
            q = total - p
            for row in admissible_classes(p, q).classes:
                riem = riemann(alg, representative(row.id, p, q))
                assert is_flat(riem) == (row.id in flat_ids), (p, q, row.id)
    # the Lorentzian column has exactly one flat class among its six
    alg = HeisenbergAlgebra(4)
    lorentz_flat = [row.id for row in admissible_classes(3, 1).classes
                    if is_flat(riemann(alg, representative(row.id, 3, 1)))]
    assert lorentz_flat == [13]
    report(7, "flat-classes", started)


def test_criterion_08_curvature_oracle():
    started = time.time()
    alg = HeisenbergAlgebra(4)
    gram = linalg.identity(4)
    curv = curvature_report(alg, gram)
    ric, scalar = [list(row) for row in curv.ricci], curv.scalar_curv
    assert ric == linalg.diag([F(1, 2), 0, F(-1, 2), F(-1, 2)])
    oracle_ric, oracle_scalar = oracles.ricci_tensor(4, gram)
    assert ric == oracle_ric
    assert scalar == oracle_scalar == F(-1, 2)
    report(8, "ricci-vs-independent-oracle", started)


def test_criterion_09_soliton_solvability():
    started = time.time()
    alg = HeisenbergAlgebra(4)
    flat_seen = 0
    for row in admissible_classes(3, 1).classes:
        gram = representative(row.id, 3, 1)
        curv = curvature_report(alg, gram)
        riem = riemann(alg, gram)
        solution = curv.soliton
        assert solution is not None, row.id
        c, d = solution
        if is_flat(riem):
            flat_seen += 1
            assert c == 0 and all(x == 0 for r in d for x in r)
        else:
            assert any(x != 0 for r in d for x in r), row.id
    assert flat_seen == 1
    report(9, "lorentzian-solitons", started)


def test_criterion_10_witness_quality():
    started = time.time()
    rng = random.Random(1234)
    for p, q in [(2, 2), (3, 1), (3, 3)]:
        space = QuadraticSpace.standard(p, q)
        done = 0
        while done < 200:
            f1 = sampling.random_flag(p, q, rng)
            f2 = sampling.random_flag(p, q, rng)
            if flag_invariants(space, f1) != flag_invariants(space, f2):
                continue
            g = isometry_witness(p, q, f1, f2)
            res = witness_residuals(p, q, g, f1, f2)
            assert res["form"] <= 1e-9, (p, q, res)
            assert max(res["small"], res["big"]) <= 1e-9, (p, q, res)
            done += 1
    # inequivalent pairs are rejected, naming the differing invariant
    rejected = 0
    space = QuadraticSpace.standard(3, 3)
    flags = [representative_flag(r.id, 3, 3) for r in admissible_classes(3, 3).classes]
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            if flag_invariants(space, flags[i]) == flag_invariants(space, flags[j]):
                continue
            with pytest.raises(InequivalentFlagsError) as err:
                isometry_witness(3, 3, flags[i], flags[j])
            message = str(err.value)
            assert ("sig_big" in message or "sig_small" in message
                    or "dim(small cap rad big)" in message)
            rejected += 1
    assert rejected > 100
    report(10, "witness-residuals-and-rejection", started, budget=60.0)


def test_criterion_11_structural_identities():
    started = time.time()
    rng = random.Random(31337)

    # Sylvester sign stability under exact congruence
    for _ in range(220):
        n = rng.randint(1, 6)
        s = random_symmetric(n, rng)
        while True:
            qmat = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if linalg.rank(qmat) == len(qmat):
                break
        moved = linalg.mat_mul(linalg.transpose(qmat), linalg.mat_mul(s, qmat))
        assert (linalg.congruence_diagonalize(moved).sign_counts()
                == linalg.congruence_diagonalize(s).sign_counts())

    # Koszul compatibility and torsion, Riemann symmetries
    for k in range(220):
        n = 4 + k % 2
        alg = HeisenbergAlgebra(n)
        gram = random_nondegenerate_symmetric(n, rng)
        conn = oracles.koszul_levi_civita(alg, gram)
        assert conn.is_metric_compatible(gram)
        assert conn.is_torsion_free(alg)
        riem = riemann(alg, gram)
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    assert riem[i][j][m] == tuple(-x for x in riem[j][i][m])
                    bianchi = [a + b + c for a, b, c in
                               zip(riem[i][j][m], riem[j][m][i], riem[m][i][j])]
                    assert all(x == 0 for x in bianchi)
        low = [[[[sum(gram[d][l] * riem[a][b][c][l] for l in range(n))
                  for d in range(n)] for c in range(n)]
                for b in range(n)] for a in range(n)]
        for i in range(n):
            for j in range(n):
                for k2 in range(n):
                    for l in range(n):
                        assert low[i][j][k2][l] == low[k2][l][i][j]
    report(11, "structural-identities", started)


def test_criterion_12_survey_past_n7():
    # every call is cold, so the budget times the survey, not its cache
    _survey_cached.cache_clear()
    started = time.time()
    for p, q in [(4, 3), (4, 4), (5, 3), (5, 5)]:
        survey = survey_flags(p, q)
        expected = expected_invariant_set(p, q)
        observed = survey.observed_invariants
        assert observed == expected, (p, q, observed ^ expected)
        assert len(survey.matsuki) == 21, (p, q, len(survey.matsuki))
    report(12, "survey-completeness-and-duality-past-n7", started, budget=30.0)
