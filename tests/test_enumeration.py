"""Structured flag survey: completeness, consistency, duality counts."""

import dataclasses
import hashlib
import itertools
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest

import oracles
from heisflag import enumeration, linalg
from heisflag.enumeration import FlagSurvey, survey_flags
from heisflag.forms import (
    Flag,
    FlagInvariants,
    LineSignature,
    PreconditionError,
    QuadraticSpace,
    Signature,
    Subspace,
    flag_invariants,
    matsuki_data,
    possible_codim2_signatures,
    possible_line_signatures,
)
from heisflag.heisenberg import admissible_classes
from heisflag.sampling import integer_pool, positioned_pool


def expected_invariants(p, q):
    """The taxonomy's flag orbits; for p < q those of (q, p) under the negated form."""
    if p < q:
        def negated(sig):
            return Signature(sig.neg, sig.pos, sig.nul)

        return {FlagInvariants(negated(inv.sig_big), negated(inv.sig_small), inv.dim_small_cap_rad)
                for inv in expected_invariants(q, p)}
    small = {
        LineSignature.SPACELIKE: (Signature(1, 0, 0), 0),
        LineSignature.TIMELIKE: (Signature(0, 1, 0), 0),
        LineSignature.LIGHTLIKE: (Signature(0, 0, 1), 0),
        LineSignature.RADICAL: (Signature(0, 0, 1), 1),
    }
    out = set()
    for row in admissible_classes(p, q).classes:
        sig, cap = small[row.refined]
        out.add(FlagInvariants(row.center_signature(p, q), sig, cap))
    return out


def test_int_rref_canonical():
    assert oracles.int_rref([(1, 0, 1), (0, 1, 1)]) == oracles.int_rref([(1, 1, 2), (1, -1, 0)])
    assert oracles.int_rref([(2, 4)]) == ((1, 2),)
    assert oracles.int_rref([(0, 0), (0, 0)]) == ()
    assert oracles.int_rank([(1, 1), (1, -1), (2, 0)]) == 2


def test_int_signature_agrees_with_exact_congruence():
    import random
    from heisflag import linalg

    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 5)
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randint(-4, 4)
                s[i][j] = x
                s[j][i] = x
        exact = linalg.congruence_diagonalize(linalg.mat(s)).sign_counts()
        assert oracles.int_signature(s) == exact


def test_survey_counts_small():
    s = survey_flags(2, 2)
    assert len(s.observed_invariants) == 10
    assert len(s.matsuki) == 10
    s = survey_flags(3, 1)
    assert len(s.observed_invariants) == 6
    assert len(s.matsuki) == 6
    for p, q in [(3, 0), (2, 1), (1, 1), (-1, 5)]:
        with pytest.raises(PreconditionError, match=rf"signature \({p}, {q}\)"):
            survey_flags(p, q)


def test_survey_matches_derived_admissible_sets():
    for p, q in [(2, 2), (3, 1), (3, 2)]:
        assert survey_flags(p, q).observed_invariants == expected_invariants(p, q)


def test_survey_agrees_with_primal_oracle():
    # the dual survey (pairs of pool vectors) against the primal one
    # ((n-2)-subsets of the pool): the same orbit types and the same
    # seven-count tuples, not just the same numbers of them
    for p, q in [(2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (4, 1)]:
        dual, primal = survey_flags(p, q), oracles.primal_survey(p, q)
        assert dual.observed_invariants == primal.observed_invariants, (p, q)
        assert dual.matsuki == primal.matsuki, (p, q)


def test_survey_agrees_with_pair_walk_oracle():
    # one plane per signed-permutation class, with the pool vectors in its big
    # part as lines, against every plane of the pool, with {-1, 0, 1}
    # combinations of a kernel basis as lines: the reduction is proved (see
    # `enumeration`), and that the pool lines reach every orbit is checked here
    signatures = [(p, n - p) for n in (4, 5, 6) for p in range(n + 1)] + [(4, 3), (3, 4)]
    for p, q in signatures:
        reduced, full = survey_flags(p, q), oracles.pair_walk_survey(p, q)
        assert reduced.observed_invariants == full.observed_invariants, (p, q)
        assert reduced.matsuki == full.matsuki, (p, q)
        assert reduced.subspace_count < full.subspace_count, (p, q)


def test_survey_agrees_with_every_pair_oracle():
    # the survey keys only the leading-coordinate pairs whose support is an
    # initial segment of each block, tests a key by its sign-flipped copies
    # and reads a plane's signature off its 2x2 Gram; the oracle keys every
    # pair, re-keys every sign flip and diagonalizes: the same planes in the
    # same order give the same survey, sample flags and their order included
    signatures = [(p, n - p) for n in range(4, 10) for p in range(n + 1)]
    for p, q in signatures + [(6, 6), (8, 4), (10, 6)]:
        fast, slow = survey_flags(p, q), oracles.every_pair_survey(p, q)
        assert fast.subspace_count == slow.subspace_count, (p, q)
        assert list(fast.invariants.items()) == list(slow.invariants.items()), (p, q)
        assert fast.matsuki == slow.matsuki, (p, q)


def _signed_block_permutations(p, q):
    """Every element of B_p x B_q as (target index, sign) per coordinate."""
    def block(start, size):
        for perm in itertools.permutations(range(start, start + size)):
            for signs in itertools.product((1, -1), repeat=size):
                yield list(zip(perm, signs))

    for plus, minus in itertools.product(block(0, p), block(p, q)):
        yield plus + minus


def _act(g, x):
    out = [0] * len(x)
    for xi, (target, sign) in zip(x, g):
        out[target] = sign * xi
    return tuple(out)


def _support(a, b):
    """The support mask of span(a, b), as the survey hands it to `_canonical` and
    `_plane_lines` with the plane's key."""
    return sum(1 << i for i, (x, y) in enumerate(zip(a, b)) if x or y)


def test_every_plane_class_keeps_a_plane():
    for p, q in [(2, 2), (3, 1), (3, 2), (2, 3)]:
        n = p + q
        index_pairs = list(itertools.combinations(range(n), 2))
        masks = enumeration._admissible_masks(p, q)
        group = list(_signed_block_permutations(p, q))
        planes, kept = {}, set()
        for a, b in itertools.combinations(oracles.small_int_pool(n), 2):
            key = enumeration._plucker_key(a, b, index_pairs)
            planes.setdefault(key, (a, b))
            mask = _support(a, b)
            if mask in masks and enumeration._canonical(mask, key):
                kept.add(key)
        assert len(kept) == survey_flags(p, q).subspace_count

        # every orbit of pool planes under B_p x B_q contains a kept plane
        unvisited = set(planes)
        while unvisited:
            a, b = planes[unvisited.pop()]
            orbit = {enumeration._plucker_key(_act(g, a), _act(g, b), index_pairs)
                     for g in group}
            assert orbit <= set(planes), (p, q)
            assert orbit & kept, (p, q, a, b)
            unvisited -= orbit

        # no two kept planes differ by a coordinate sign flip
        for key in kept:
            a, b = planes[key]
            for signs in itertools.product((1, -1), repeat=n):
                flip = list(zip(range(n), signs))
                image = enumeration._plucker_key(_act(flip, a), _act(flip, b), index_pairs)
                assert image == key or image not in kept, (p, q, key, image)


def test_every_plane_of_a_class_reads_the_same_pairs():
    # the lemma behind the reduction: on every pool plane, the (invariants,
    # seven counts) pairs read off its pool lines are those computed from
    # scratch, and every B_p x B_q image of the plane reads the same pairs
    for p, q in [(2, 2), (3, 1), (3, 2), (2, 3)]:
        n = p + q
        space = QuadraticSpace.standard(p, q)
        pool = oracles.small_int_pool(n)
        positioned = positioned_pool(n, range(n))
        index_pairs = list(itertools.combinations(range(n), 2))
        planes, pairs = {}, {}
        for a, b in itertools.combinations(pool, 2):
            key = enumeration._plucker_key(a, b, index_pairs)
            if key in planes:
                continue
            planes[key] = (a, b)
            lines = enumeration._plane_lines(a, b, _support(a, b), key, p, q, positioned)
            big = Subspace(n, tuple(linalg.kernel([a, b])))
            for v, inv, counts in lines:
                flag = Flag(Subspace(n, (linalg.vec(v),)), big)
                assert inv == flag_invariants(space, flag), (p, q, a, b, v)
                assert counts == matsuki_data(flag, p, q).as_tuple(), (p, q, a, b, v)
            pairs[key] = Counter((inv, counts) for _, inv, counts in lines)

        group = list(_signed_block_permutations(p, q))
        unvisited = set(planes)
        while unvisited:
            key = unvisited.pop()
            a, b = planes[key]
            orbit = {enumeration._plucker_key(_act(g, a), _act(g, b), index_pairs)
                     for g in group}
            assert all(pairs[image] == pairs[key] for image in orbit), (p, q, a, b)
            unvisited -= orbit


def test_plane_lines_agree_with_the_sum_oracle():
    # each pool line read off its two nonzero positions against per-line
    # generator sums, slices and zero counts: the same lines in the same
    # order, field by field, on every pool plane, and at n = 4 on every plane
    # of two {-1, 0, 1} vectors of any support, where the nonzero Plucker
    # entries can meet a null line's two positions in part (on a pool plane,
    # a or b is a multiple of I_pq v or both miss them); the oracle's eager
    # kernel is the `linalg.kernel([a, b])` that the survey builds at a
    # plane's first sample flag, so it is not compared
    any_support = [v for v in itertools.product((-1, 0, 1), repeat=4) if any(v)]
    cases = [(p, q, integer_pool(p + q))
             for p, q in [(2, 2), (3, 1), (3, 2), (2, 3), (1, 3), (0, 4), (6, 6), (8, 4)]]
    cases += [(p, 4 - p, any_support) for p in range(5)]
    for p, q, vectors in cases:
        n = p + q
        pool = integer_pool(n)
        positioned = positioned_pool(n, range(n))
        assert positioned == oracles._positioned_pool(n)
        index_pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for a, b in itertools.combinations(vectors, 2):
            if linalg.rank([a, b]) < 2:
                continue
            full_key = oracles._primitive_plucker(a, b, index_pairs)
            if full_key in seen:
                continue
            seen.add(full_key)
            # the key is the full key's nonzero entries, with their index pairs
            key = enumeration._plucker_key(a, b, index_pairs)
            assert key == tuple((x, i, j) for (i, j), x in zip(index_pairs, full_key) if x)
            _, expected = oracles.sum_plane_lines(a, b, full_key, p, q, pool, index_pairs)
            lines = enumeration._plane_lines(a, b, _support(a, b), key, p, q, positioned)
            assert len(lines) == len(expected), (p, q, a, b)
            for (v, inv, counts), (w, inv_w, counts_w) in zip(lines, expected):
                assert v == w, (p, q, a, b)
                assert inv == inv_w, (p, q, a, b, v)
                assert counts == counts_w, (p, q, a, b, v)


def _first_samples(lines):
    """The first SAMPLES_PER_ORBIT lines of each invariant, in order: what the
    survey can take from a plane as sample flags."""
    firsts = {}
    for v, inv, _ in lines:
        samples = firsts.setdefault(inv, [])
        if len(samples) < enumeration.SAMPLES_PER_ORBIT:
            samples.append(v)
    return list(firsts.items())


def test_restricted_scan_agrees_with_the_full_pool_scan():
    # each kept plane's lines on its support and the first K spare coordinates
    # of each block against the old scan of the whole pool: field by field the
    # same lines where both look, the same first samples of each invariant in
    # the same order, and the same (invariants, seven counts) pairs; at these
    # signatures the restriction drops lines of both blocks
    for p, q in [(12, 12), (20, 12), (16, 16)]:
        n = p + q
        pool = positioned_pool(n, range(n))
        dropped = set()
        for a, b, mask, key in enumeration._kept_planes(p, q, pool):
            scan = enumeration._scanned(mask, p, q, pool)
            lines = enumeration._plane_lines(a, b, mask, key, p, q, scan)
            full = oracles.full_pool_plane_lines(a, b, mask, key, p, q)
            scanned = {v for v, _, _, _ in scan}
            kept = [line for line in full if line[0] in scanned]
            assert len(lines) == len(kept), (p, q, a, b)
            for (v, inv, counts), (w, inv_w, counts_w) in zip(lines, kept):
                assert v == w, (p, q, a, b)
                assert inv == inv_w, (p, q, a, b, v)
                assert counts == counts_w, (p, q, a, b, v)
            assert _first_samples(lines) == _first_samples(full), (p, q, a, b)
            assert ({(inv, counts) for _, inv, counts in lines}
                    == {(inv, counts) for _, inv, counts in full}), (p, q, a, b)
            # the blocks that each dropped line lies in
            dropped |= {frozenset("+" if k < p else "-" for k, x in enumerate(v) if x)
                        for v, _, _ in full if v not in scanned}
        assert {frozenset("+"), frozenset("-")} <= dropped, (p, q)


def test_plane_kernel_agrees_with_linalg_kernel():
    # the two-row elimination against the shared one, entry for entry: on every
    # kept plane at 4 <= n <= 8 and at (12, 12), and on every independent pair,
    # in both orders, of {-1, 0, 1} vectors at n = 4
    for p, q in [(p, n - p) for n in range(4, 9) for p in range(n + 1)] + [(12, 12)]:
        n = p + q
        for a, b, _, _ in enumeration._kept_planes(p, q, positioned_pool(n, range(n))):
            assert enumeration._plane_kernel(a, b) == tuple(linalg.kernel([a, b])), (p, q, a, b)
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=4) if any(v)]
    for a, b in itertools.permutations(vectors, 2):
        if linalg.rank([a, b]) == 2:
            assert enumeration._plane_kernel(a, b) == tuple(linalg.kernel([a, b])), (a, b)


def test_submask_canonical_agrees_with_the_product_loop():
    # the walk over submasks of the support against the loop over sign vectors,
    # on every plane of the pool whose support is an initial segment of each block
    for p, q in [(p, n - p) for n in range(4, 9) for p in range(n + 1)]:
        n = p + q
        masks = enumeration._admissible_masks(p, q)
        seen = set()
        for a, b in itertools.combinations(integer_pool(n), 2):
            mask = _support(a, b)
            if mask not in masks:
                continue
            key = enumeration._plucker_key(a, b, masks[mask])
            if key not in seen:
                seen.add(key)
                assert (enumeration._canonical(mask, key)
                        == oracles.product_canonical(mask, key, n)), (p, q, a, b)


def test_survey_runs_no_rank():
    # every plane and line fact is read off the plane's support and key: a
    # cold survey with `linalg.rank` made to raise gives the same survey
    def refuse(*args):
        raise AssertionError("the survey called linalg.rank")

    for p, q in [(2, 2), (3, 3), (4, 2)]:
        enumeration._survey_cached.cache_clear()
        with patch.object(linalg, "rank", refuse):
            patched = survey_flags(p, q)
        enumeration._survey_cached.cache_clear()
        assert patched == survey_flags(p, q), (p, q)


def test_sample_flag_containment_is_checked_in_int():
    # the survey's sample path checks a line against [a; b] in int: a pool
    # line off the plane's kernel is refused with Flag's containment message
    a, b = (1, 1, 0, 0), (0, 0, 1, 1)
    big = Subspace._independent(4, tuple(linalg.kernel([a, b])))
    flag = Flag._in_kernel((1, -1, 0, 0), (a, b), big)
    assert flag == Flag(Subspace(4, (linalg.vec((1, -1, 0, 0)),)), big)
    for line in [(1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)]:
        with pytest.raises(PreconditionError,
                           match="^small subspace is not contained in the big one$"):
            Flag._in_kernel(line, (a, b), big)


def test_cached_survey_cannot_be_changed_by_a_caller():
    survey = survey_flags(2, 2)
    with pytest.raises(AttributeError):
        survey.matsuki.add((9,) * 7)
    with pytest.raises(AttributeError):
        survey.invariants.clear()
    with pytest.raises(TypeError):
        survey.invariants[next(iter(survey.invariants))] = []
    with pytest.raises(AttributeError):
        next(iter(survey.invariants.values())).append(None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        survey.matsuki = set()
    again = survey_flags(2, 2)
    assert again is survey
    assert len(again.matsuki) == 10
    assert len(again.observed_invariants) == 10

    # the survey keeps its own copies of what it was built from
    invariants, matsuki = dict(survey.invariants), set(survey.matsuki)
    built = FlagSurvey(2, 2, survey.subspace_count, invariants, matsuki)
    invariants.clear()
    matsuki.clear()
    assert built.observed_invariants == survey.observed_invariants
    assert built.matsuki == survey.matsuki


def test_survey_cache_keeps_a_bool_apart_from_its_int():
    # a bool passes the int check; the typed cache gives it a survey of its own,
    # so neither order hands one caller the survey the other asked for
    for first, second in [(True, 1), (1, True)]:
        enumeration._survey_cached.cache_clear()
        assert survey_flags(first, 3).p is first
        assert survey_flags(second, 3).p is second


def test_survey_complete_at_n7():
    # every signature with 7 <= n <= 10 and p, q >= 1: each orbit is
    # observed, and there are as many seven-count tuples as orbits
    for p, q in [(p, n - p) for n in range(7, 11) for p in range(1, n)]:
        survey = survey_flags(p, q)
        expected = expected_invariants(p, q)
        assert survey.observed_invariants == expected, (p, q)
        assert len(survey.matsuki) == len(expected), (p, q)


def test_survey_complete_at_n11_and_n12():
    # as above, at every signature with 11 <= n <= 12 and p, q >= 1
    for p, q in [(p, n - p) for n in (11, 12) for p in range(1, n)]:
        survey = survey_flags(p, q)
        expected = expected_invariants(p, q)
        assert survey.observed_invariants == expected, (p, q)
        assert len(survey.matsuki) == len(expected), (p, q)


def test_survey_samples_have_claimed_invariants():
    for p, q in [(2, 2), (3, 2)]:
        space = QuadraticSpace.standard(p, q)
        survey = survey_flags(p, q)
        for inv, flags in survey.invariants.items():
            assert flags
            for f in flags:
                assert flag_invariants(space, f) == inv


def test_survey_consistency_with_possible_sets():
    refined_of = {
        (Signature(1, 0, 0), 0): LineSignature.SPACELIKE,
        (Signature(0, 1, 0), 0): LineSignature.TIMELIKE,
        (Signature(0, 0, 1), 0): LineSignature.LIGHTLIKE,
        (Signature(0, 0, 1), 1): LineSignature.RADICAL,
    }
    for p, q in [(2, 2), (3, 1), (3, 2)]:
        possible_big = possible_codim2_signatures(p, q)
        for inv in survey_flags(p, q).observed_invariants:
            assert inv.sig_big in possible_big
            refined = refined_of[(inv.sig_small, inv.dim_small_cap_rad)]
            s, t, u = inv.sig_big.as_tuple()
            assert refined in possible_line_signatures(s, t, u)


def test_survey_matsuki_tuples_recomputable():
    # every recorded sample flag reproduces a tuple seen by the fast path
    for p, q in [(2, 2), (3, 1)]:
        survey = survey_flags(p, q)
        for flags in survey.invariants.values():
            for f in flags:
                assert matsuki_data(f, p, q).as_tuple() in survey.matsuki


def test_invariants_complete_in_both_directions():
    # over the survey: equal invariants admit a verified witness, unequal
    # ones are rejected by name
    import pytest

    from heisflag.witness import (
        InequivalentFlagsError,
        isometry_witness,
        witness_residuals,
    )

    for p, q in [(2, 2), (3, 1)]:
        survey = survey_flags(p, q)
        groups = list(survey.invariants.items())
        for _, flags in groups:
            first = flags[0]
            for other in flags[1:]:
                g = isometry_witness(p, q, first, other)
                res = witness_residuals(p, q, g, first, other)
                assert max(res.values()) <= 1e-9
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                with pytest.raises(InequivalentFlagsError):
                    isometry_witness(p, q, groups[i][1][0], groups[j][1][0])


# every (p, q) with 4 <= n <= 8, and five larger signatures; at (12, 12) and
# (20, 12) the survey's line scan skips pool lines of both blocks
PINNED_SURVEY_SIGNATURES = ([(p, n - p) for n in range(4, 9) for p in range(n + 1)]
                            + [(6, 6), (8, 4), (10, 6), (12, 12), (20, 12)])
PINNED_SURVEY_DIGEST = "19c632208c60c52e86201cf6cce65d6558f373cb4397f0494c09a88ecc93bbdb"


def survey_digest(signatures) -> str:
    """sha256 over each survey's subspace count, its invariants in order, each with its
    sample flags in order (basis entries written as `Fraction`s), and its sorted
    matsuki tuples: the survey's values, whatever type an exact entry has."""
    h = hashlib.sha256()
    for p, q in signatures:
        survey = survey_flags(p, q)
        invariants = [(inv, [[[list(map(Fraction, v)) for v in part.basis]
                              for part in (f.small, f.big)] for f in flags])
                      for inv, flags in survey.invariants.items()]
        h.update(repr((p, q, survey.subspace_count, invariants, sorted(survey.matsuki))).encode())
    return h.hexdigest()


def test_surveys_are_pinned():
    # the surveys keep their values, sample flags and their order included
    assert survey_digest(PINNED_SURVEY_SIGNATURES) == PINNED_SURVEY_DIGEST
