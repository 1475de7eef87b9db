"""Constructive systems: scaled bases, light-like splits, null-system extension."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import oracles
import strategies
from heisflag import linalg
from heisflag.forms import (
    PreconditionError,
    QuadraticSpace,
    ScaledSystem,
    Signature,
    Subspace,
    extend_basis,
    extend_nullsystem,
    lightlike_split,
    radical,
    scaled_system,
    signature,
    subspaces_equivalent,
)

SP22 = QuadraticSpace.standard(2, 2)


def unit(i, n=4):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def random_subspace(rng, n, k):
    vecs = []
    while len(vecs) < k:
        cand = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if linalg.rank([list(v) for v in vecs + [cand]]) == len(vecs) + 1:
            vecs.append(cand)
    return Subspace(n, tuple(vecs))


def random_space(rng, n, allow_degenerate=True):
    while True:
        m = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                x = F(rng.randint(-3, 3))
                m[i][j] = x
                m[j][i] = x
        if allow_degenerate or linalg.rank(m) == len(m):
            return QuadraticSpace.from_matrix(m)


def test_scaled_system_examples():
    sp = QuadraticSpace.from_matrix(linalg.diag([3, -5, 0]))
    sys_ = scaled_system(sp, Subspace.full(3))
    assert sys_.norms == (F(3), F(-5), F(0))
    sys_.check(sp)

    sp_h = QuadraticSpace.from_matrix([[0, 1], [1, 0]])
    sys_ = scaled_system(sp_h, Subspace.full(2))
    assert sys_.norms == (F(2), F(-2))
    sys_.check(sp_h)

    sys_ = scaled_system(SP22, Subspace(4, (unit(0), unit(1))))
    assert sys_.signature == Signature(2, 0, 0)


def test_scaled_system_radical_part_spans_radical():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 5)
        sp = random_space(rng, n)
        w = random_subspace(rng, n, rng.randint(1, n))
        sys_ = scaled_system(sp, w)
        sys_.check(sp)
        assert sys_.signature == signature(sp, w)
        rad = radical(sp, w)
        nulls = sys_.nulls()
        assert len(nulls) == rad.dim
        assert all(rad.contains(z) for z in nulls)


def test_lightlike_split_examples():
    full = Subspace.full(4)
    vp, vm = lightlike_split(SP22, full, linalg.vec_add(unit(0), unit(2)))
    assert vp == unit(0) and vm == unit(2)
    v = tuple(F(1) for _ in range(4))
    vp, vm = lightlike_split(SP22, full, v)
    assert linalg.vec_add(vp, vm) == v
    assert SP22.inner(vp, vp) > 0 and SP22.inner(vm, vm) < 0 and SP22.inner(vp, vm) == 0
    vp, vm = lightlike_split(SP22, full, linalg.vec_add(unit(1), unit(3)))
    assert vp == unit(1) and vm == unit(3)


def test_lightlike_split_preconditions():
    full = Subspace.full(4)
    with pytest.raises(PreconditionError):
        lightlike_split(SP22, full, unit(0))  # not null
    sp = QuadraticSpace.from_matrix(linalg.diag([1, -1, 0]))
    with pytest.raises(PreconditionError):
        lightlike_split(sp, Subspace.full(3), unit(2, 3))  # radical vector


def test_lightlike_split_random():
    rng = random.Random(31)
    done = 0
    while done < 120:
        n = rng.randint(2, 5)
        sp = random_space(rng, n)
        v = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        full = Subspace.full(n)
        if linalg.is_zero_vector(v) or sp.inner(v, v) != 0:
            continue
        if all(sp.inner(v, b) == 0 for b in full.basis):
            continue
        vp, vm = lightlike_split(sp, full, v)
        assert linalg.vec_add(vp, vm) == v
        m = sp.inner(vp, vp)
        assert m > 0 and sp.inner(vm, vm) == -m
        assert sp.inner(vp, vm) == 0
        done += 1


def test_extend_nullsystem_examples():
    iso1 = linalg.vec_add(unit(0), unit(2))
    iso2 = linalg.vec_add(unit(1), unit(3))
    sys_ = extend_nullsystem(SP22, [iso1])
    sys_.check(SP22)
    assert linalg.vec_add(sys_.vectors[0], sys_.vectors[2]) == iso1
    sys_ = extend_nullsystem(SP22, [iso1, iso2])
    sys_.check(SP22)
    assert sys_.vectors[:2] == (unit(0), unit(1))
    assert sys_.vectors[2:] == (unit(2), unit(3))
    sys_ = extend_nullsystem(SP22, [])
    sys_.check(SP22)
    assert sys_.signature == Signature(2, 2, 0)


def test_extend_nullsystem_random():
    rng = random.Random(13)
    done = 0
    while done < 60:
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        n = p + q
        sp = QuadraticSpace.standard(p, q)
        k = rng.randint(1, min(p, q))
        # orthogonal null vectors: hyperbolically paired coordinates
        pos = list(range(p))
        neg = list(range(p, n))
        rng.shuffle(pos)
        rng.shuffle(neg)
        nulls = []
        for i in range(k):
            scale = F(rng.choice([1, 2, 3]))
            nulls.append(tuple(scale * (unit(pos[i], n)[j] + unit(neg[i], n)[j])
                               for j in range(n)))
        sys_ = extend_nullsystem(sp, nulls)
        sys_.check(sp)
        assert sys_.signature == Signature(p, q, 0)
        for i, w in enumerate(nulls):
            assert linalg.vec_add(sys_.vectors[i], sys_.vectors[p + i]) == w
        done += 1


def outcome(call, *args):
    try:
        return call(*args)
    except (PreconditionError, linalg.ShapeError) as ex:
        return type(ex), str(ex)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_spaces_and_subspaces())
def test_scaled_system_agrees_with_lll_oracle(data):
    space, parts = data
    for w in parts:
        reduced = linalg.lll_reduce(list(w.basis))
        # the oracle reduces once more; lll_reduce's final rescaling to
        # primitive vectors can leave a basis that a second pass changes
        if linalg.lll_reduce(reduced) == reduced:
            reduced_w = Subspace(space.dim, tuple(reduced))
            assert scaled_system(space, reduced_w) == oracles.lll_scaled_system(space, reduced_w)
        got = scaled_system(space, w)
        got.check(space)
        assert Subspace(space.dim, got.vectors).contains_subspace(w)
        assert got.signature == oracles.lll_scaled_system(space, w).signature


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=strategies.null_systems())
def test_extend_nullsystem_agrees_with_split_loop_oracle(data):
    space, nulls = data
    assert (outcome(extend_nullsystem, space, nulls)
            == outcome(oracles.split_loop_extend_nullsystem, space, nulls))


def test_extend_basis_example():
    null = linalg.vec_add(unit(1), unit(3))
    w_sys = ScaledSystem((unit(0), null), (F(1), F(0)))
    full = extend_basis(SP22, w_sys)
    full.check(SP22)
    assert full.signature == Signature(2, 2, 0)
    alphas, betas = full.positives(), full.negatives()
    assert alphas[0] == unit(0)
    assert linalg.vec_add(alphas[1], betas[0]) == null
    with pytest.raises(PreconditionError, match="linearly independent"):
        extend_basis(SP22, ScaledSystem((null, null), (F(0), F(0))))


def test_extend_basis_trivial_cases():
    w_sys = scaled_system(SP22, Subspace.full(4))
    assert extend_basis(SP22, w_sys).vectors == w_sys.vectors
    line = Subspace(4, (unit(0),))
    sys_line = scaled_system(SP22, line)
    full = extend_basis(SP22, sys_line)
    full.check(SP22)
    assert full.vectors[0] == unit(0)


def test_extend_basis_random_degenerate_ambient():
    rng = random.Random(29)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        sp = random_space(rng, n)
        w = random_subspace(rng, n, rng.randint(1, n))
        sys_w = scaled_system(sp, w)
        rad_v = sp.ambient_radical()
        nulls = sys_w.nulls()
        in_rad = [z for z in nulls if rad_v.contains(z)]
        out_rad = [z for z in nulls if not rad_v.contains(z)]
        # generic samples may split rad(W) across the ambient radical unevenly;
        # reorder only when the basis separates cleanly, else skip
        if len(in_rad) + len(out_rad) != len(nulls):
            continue
        sys_w = ScaledSystem(
            tuple(sys_w.positives() + sys_w.negatives() + out_rad + in_rad),
            tuple([m for m in sys_w.norms if m > 0]
                  + [m for m in sys_w.norms if m < 0]
                  + [F(0)] * len(nulls)))
        full = extend_basis(sp, sys_w)
        full.check(sp)
        assert full.signature == signature(sp)
        s, t = len(sys_w.positives()), len(sys_w.negatives())
        alphas, betas, gammas = full.positives(), full.negatives(), full.nulls()
        for i, z in enumerate(out_rad):
            assert linalg.vec_add(alphas[s + i], betas[t + i]) == z
        for i, z in enumerate(in_rad):
            assert gammas[i] == z
        done += 1


def test_subspaces_equivalent_examples():
    assert subspaces_equivalent(SP22, Subspace(4, (unit(0),)), Subspace(4, (unit(1),)))
    assert not subspaces_equivalent(SP22, Subspace(4, (unit(0),)), Subspace(4, (unit(2),)))
    sp = QuadraticSpace.from_matrix(linalg.diag([1, -1, 0]))
    rad_line = Subspace(3, (unit(2, 3),))
    null_line = Subspace(3, (linalg.vec_add(unit(0, 3), unit(1, 3)),))
    assert not subspaces_equivalent(sp, rad_line, null_line)
