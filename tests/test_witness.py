"""Isometry witnesses: residuals, flag mapping, inequivalence rejection."""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heisflag
import oracles
import strategies
from heisflag import forms, linalg, sampling, witness
from heisflag.forms import (
    Flag,
    QuadraticSpace,
    Subspace,
    flag_invariants,
    flags_equivalent,
    scaled_system,
)
from heisflag.heisenberg import admissible_classes, representative_flag
from heisflag.witness import (
    InequivalentFlagsError,
    WitnessFailureError,
    isometry_witness,
    subspace_distance,
    witness_residuals,
)

TOL = 1e-9


def unit(i, n=4):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def test_identity_witness_for_identical_flags():
    f = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    g = isometry_witness(2, 2, f, f)
    assert np.max(np.abs(g - np.eye(4))) == 0.0


def test_swap_witness():
    f1 = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    f2 = Flag(Subspace(4, (unit(1),)), Subspace(4, (unit(0), unit(1))))
    g = isometry_witness(2, 2, f1, f2)
    res = witness_residuals(2, 2, g, f1, f2)
    assert max(res.values()) <= TOL
    swap = np.eye(4)
    swap[[0, 1]] = swap[[1, 0]]
    assert np.max(np.abs(g - swap)) <= 1e-12


def test_rational_hyperbolic_rotation_pair():
    # (5/3)^2 - (4/3)^2 = 1: an exact O(2,2) boost mixing a spacelike and a
    # timelike axis; flags related by it must admit a clean witness
    boost = linalg.mat([[F(5, 3), 0, F(-4, 3), 0],
                        [0, 1, 0, 0],
                        [F(-4, 3), 0, F(5, 3), 0],
                        [0, 0, 0, 1]])
    ipq = linalg.diag([1, 1, -1, -1])
    assert linalg.mat_mul(linalg.transpose(boost), linalg.mat_mul(ipq, boost)) == ipq
    iso = linalg.vec_add(unit(0), unit(2))
    f1 = Flag(Subspace(4, (iso,)), Subspace(4, (iso, unit(1))))
    f2 = sampling.apply_to_flag(boost, f1)
    g = isometry_witness(2, 2, f1, f2)
    res = witness_residuals(2, 2, g, f1, f2)
    assert max(res.values()) <= TOL


def test_inequivalent_flags_rejected_with_named_invariant():
    f1 = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    f2 = Flag(Subspace(4, (unit(2),)), Subspace(4, (unit(2), unit(3))))
    with pytest.raises(InequivalentFlagsError, match=r"sig_big \(2, 0, 0\) != \(0, 2, 0\)"):
        isometry_witness(2, 2, f1, f2)
    f3 = Flag(Subspace(4, (unit(1),)), Subspace(4, (unit(0), unit(1), unit(2))))
    f4 = Flag(Subspace(4, (linalg.vec_add(unit(0), unit(2)),)),
              Subspace(4, (unit(0), unit(1), unit(2))))
    with pytest.raises(InequivalentFlagsError, match="sig_small"):
        isometry_witness(2, 2, f3, f4)


def test_describe_inequivalence_names_the_first_differing_invariant():
    # the labels are the ones `bench/workloads.py` parses, each message byte for byte
    big, other = forms.Signature(2, 1, 1), forms.Signature(1, 2, 1)
    line, null = forms.Signature(1, 0, 0), forms.Signature(0, 0, 1)
    inv = forms.FlagInvariants(big, null, 0)
    cases = [
        (inv, None),
        (forms.FlagInvariants(other, line, 1), "sig_big (2, 1, 1) != (1, 2, 1)"),
        (forms.FlagInvariants(big, line, 1), "sig_small (0, 0, 1) != (1, 0, 0)"),
        (forms.FlagInvariants(big, null, 1), "dim(small cap rad big) 0 != 1"),
    ]
    for inv2, message in cases:
        assert witness.describe_inequivalence(inv, inv2) == message


def test_random_equivalent_pairs():
    # independent draws with matching invariants: the enumeration-oracle regime
    rng = random.Random(19)
    for p, q in [(2, 2), (3, 1), (3, 3)]:
        space = QuadraticSpace.standard(p, q)
        done = 0
        while done < 25:
            f1 = sampling.random_flag(p, q, rng)
            f2 = sampling.random_flag(p, q, rng)
            if flag_invariants(space, f1) != flag_invariants(space, f2):
                continue
            assert flags_equivalent(space, f1, f2)
            g = isometry_witness(p, q, f1, f2)
            res = witness_residuals(p, q, g, f1, f2)
            assert max(res.values()) <= TOL
            done += 1


def test_witness_between_unrelated_constructions():
    # same invariants reached by genuinely different constructions, including
    # exact group images of the canonical flags
    rng = random.Random(37)
    for p, q in [(2, 2), (3, 1), (3, 3)]:
        for row in admissible_classes(p, q).classes:
            f1 = representative_flag(row.id, p, q)
            f2 = sampling.apply_to_flag(sampling.mild_opq(p, q, rng), f1)
            g = isometry_witness(p, q, f1, f2)
            res = witness_residuals(p, q, g, f1, f2)
            assert max(res.values()) <= TOL, (p, q, row.id, res)


def test_general_flag_shapes():
    # the construction is not limited to the codimension-two case
    rng = random.Random(41)
    for _ in range(10):
        f1 = oracles.random_flag(3, 2, rng, shape=(2, 4))
        f2 = sampling.apply_to_flag(oracles.signed_permutation_opq(3, 2, rng), f1)
        g = isometry_witness(3, 2, f1, f2)
        res = witness_residuals(3, 2, g, f1, f2)
        assert max(res.values()) <= TOL


def test_conditioning_failure_is_reported():
    # flags related by an extreme exact boost: every binary64 witness has a
    # residual floor far above tolerance, so the call must raise, not lie
    k = 10 ** 8
    a = F(k * k + 1, 2 * k)
    b = F(k * k - 1, 2 * k)
    boost = linalg.mat([[a, 0, b, 0], [0, 1, 0, 0], [b, 0, a, 0], [0, 0, 0, 1]])
    ipq = linalg.diag([1, 1, -1, -1])
    assert linalg.mat_mul(linalg.transpose(boost), linalg.mat_mul(ipq, boost)) == ipq
    f1 = Flag(Subspace(4, (unit(0),)), Subspace(4, (unit(0), unit(1))))
    f2 = sampling.apply_to_flag(boost, f1)
    with pytest.raises(WitnessFailureError):
        isometry_witness(2, 2, f1, f2)


def test_subspace_distance_sanity():
    a = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    b = [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    assert subspace_distance(a, b) <= 1e-12
    c = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert subspace_distance(a, c) > 0.5


def assembly_flag_pairs():
    """(space, f1, f2, label): equivalent pairs at (3,3), (4,4) and (5,3)."""
    rng = random.Random(53)
    for p, q in [(3, 3), (4, 4), (5, 3)]:
        space = QuadraticSpace.standard(p, q)
        for i in range(6):
            f1 = sampling.random_flag(p, q, rng)
            opq = sampling.mild_opq if i % 2 else sampling.random_opq
            yield space, f1, sampling.apply_to_flag(opq(p, q, rng), f1), (p, q, i)


def test_exact_assembly_matches_mpmath_oracle():
    # same exact frames, two assemblies: integer square roots with one
    # rounding per entry against 256-bit mpmath; they may differ only where
    # the exact entry is zero and mpmath leaves a rounding residue
    pytest.importorskip("mpmath")
    for space, f1, f2, label in assembly_flag_pairs():
        frames = (forms.adapted_frame(space, f1), forms.adapted_frame(space, f2))
        exact = witness._assemble(label[0], *frames)
        reference = oracles.mpmath_assemble(*frames)
        for a, b in zip(exact.ravel(), reference.ravel()):
            assert a == b or (abs(a) < 1e-60 and abs(b) < 1e-60), (label, a, b)


def test_oriented_frames_assemble_as_rescaled_frames():
    # positive column scales cancel in g; only the truncated square roots
    # differ, by far less than binary64 resolves except near zero entries
    for space, f1, f2, label in assembly_flag_pairs():
        raw = []
        orient = forms._orient_frame

        def spy(vectors, pair_slots):
            raw.append((vectors, pair_slots))
            return orient(vectors, pair_slots)

        with patch.object(forms, "_orient_frame", spy):
            oriented = (forms.adapted_frame(space, f1), forms.adapted_frame(space, f2))
        rescaled = [oracles.rescale_frame(vectors, frame.norms, slots)
                    for (vectors, slots), frame in zip(raw, oriented)]
        for (vectors, slots), frame in zip(raw, oriented):
            cols = frame.vectors
            signs = [1 if w == v else -1 for v, w in zip(vectors, cols)]
            assert cols == tuple(linalg.vec_scale(c, v) for c, v in zip(signs, vectors))
            assert all(signs[ia] == signs[ib] for ia, ib in slots)
            seconds = {ib for _, ib in slots}
            assert all(next(x for x in w if x) > 0
                       for i, w in enumerate(cols) if i not in seconds)
        p = label[0]
        diff = witness._assemble(p, *oriented) - witness._assemble(p, *rescaled)
        assert np.max(np.abs(diff)) <= 1e-70, label


def pinned_flag_pairs():
    """(label, p, q, f1, f2): seeded `random_flag` pairs at (2,2), (3,3) and (4,4).

    Each flag is paired with its image under `random_opq` or `mild_opq`, in
    turn; then two inequivalent pairs per signature, independent draws whose
    invariants differ.
    """
    rng = random.Random(2016)
    for p, q, moved in [(2, 2, 4), (3, 3, 10), (4, 4, 6)]:
        space = QuadraticSpace.standard(p, q)
        for i in range(moved):
            opq = sampling.mild_opq if i % 2 else sampling.random_opq
            f1 = sampling.random_flag(p, q, rng)
            yield (f"({p},{q}) {opq.__name__} {i}", p, q, f1,
                   sampling.apply_to_flag(opq(p, q, rng), f1))
        for i in range(2):
            f1 = sampling.random_flag(p, q, rng)
            f2 = sampling.random_flag(p, q, rng)
            while flag_invariants(space, f2) == flag_invariants(space, f1):
                f2 = sampling.random_flag(p, q, rng)
            yield f"({p},{q}) inequivalent {i}", p, q, f1, f2


def outcome_digest(p, q, f1, f2):
    """("witness", digest of every entry's float.hex), or (error type, digest of its message)."""
    try:
        g = isometry_witness(p, q, f1, f2)
    except (InequivalentFlagsError, WitnessFailureError) as error:
        kind, text = type(error).__name__, str(error)
    else:
        kind, text = "witness", " ".join(float(x).hex() for x in g.ravel())
    return kind, hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED_OUTCOMES = {
    "(2,2) random_opq 0": ("witness", "c8f6dd3a575e70db"),
    "(2,2) mild_opq 1": ("witness", "3149355537bba774"),
    "(2,2) random_opq 2": ("witness", "b1d4cf405743cc35"),
    "(2,2) mild_opq 3": ("witness", "8c8918b94a39a476"),
    "(2,2) inequivalent 0": ("InequivalentFlagsError", "55f8bda066f0948b"),
    "(2,2) inequivalent 1": ("InequivalentFlagsError", "6e0205ddacb2769a"),
    "(3,3) random_opq 0": ("witness", "975c301a78003496"),
    "(3,3) mild_opq 1": ("witness", "8009b2833635d7dc"),
    "(3,3) random_opq 2": ("witness", "ff617b0ffeb72b28"),
    "(3,3) mild_opq 3": ("witness", "9f5682d4951e0e6c"),
    "(3,3) random_opq 4": ("witness", "061894078f8dd979"),
    "(3,3) mild_opq 5": ("witness", "662519e055b2d4be"),
    "(3,3) random_opq 6": ("witness", "6169ae4bedc8bc5e"),
    "(3,3) mild_opq 7": ("witness", "fa712694a37a7185"),
    "(3,3) random_opq 8": ("witness", "57753eabfebfd008"),
    "(3,3) mild_opq 9": ("witness", "7bd4196ae0f4e519"),
    "(3,3) inequivalent 0": ("InequivalentFlagsError", "c9bfe0e8f3990e0b"),
    "(3,3) inequivalent 1": ("InequivalentFlagsError", "2fba78b0e75b81e4"),
    "(4,4) random_opq 0": ("witness", "91bcb9a01e39f4dc"),
    "(4,4) mild_opq 1": ("witness", "10a628fc1786432c"),
    "(4,4) random_opq 2": ("WitnessFailureError", "62cef80d0df1174c"),
    "(4,4) mild_opq 3": ("witness", "b6f710dc0fd3ba4b"),
    "(4,4) random_opq 4": ("witness", "795a7bf043ce87b5"),
    "(4,4) mild_opq 5": ("witness", "aa0b757311ae8f0d"),
    "(4,4) inequivalent 0": ("InequivalentFlagsError", "55f8bda066f0948b"),
    "(4,4) inequivalent 1": ("InequivalentFlagsError", "84b75c5e94036a4d"),
}


def test_witness_outcomes_are_pinned():
    # refactors of the frame path must keep every witness byte and every
    # error message
    got = {label: outcome_digest(p, q, f1, f2) for label, p, q, f1, f2 in pinned_flag_pairs()}
    assert list(got) == list(PINNED_OUTCOMES)
    changed = [(label, got[label], want) for label, want in PINNED_OUTCOMES.items()
               if got[label] != want]
    assert changed == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags(codim_two=True) | strategies.degenerate_flags(),
       mild=st.booleans(), seed=st.integers(0, 99))
def test_assembly_agrees_with_invert_oracle(data, mild, seed):
    # C2^{-1} read off the frame's norms gives the witness of a Gauss-Jordan
    # C2^{-1} byte for byte, radical and lightlike flags included
    p, q, f1 = data
    space = QuadraticSpace.standard(p, q)
    opq = sampling.mild_opq if mild else sampling.random_opq
    f2 = sampling.apply_to_flag(opq(p, q, random.Random(seed)), f1)
    frames = (forms.adapted_frame(space, f1), forms.adapted_frame(space, f2))
    assert witness._assemble(p, *frames).tobytes() == oracles.invert_assemble(*frames).tobytes()


def bench_flag_pair_ops(seeds):
    """The flag-pairs operations of the benchmark's workload for these seeds, from
    `bench/workloads.py` loaded as the module `bench_workloads`."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op for seed in seeds for op in workloads.generate_flag_pairs(seed)]


def test_int_assembly_agrees_with_the_fraction_oracle_on_the_bench_pairs():
    # every equivalent pair of flag-pairs seeds 101-103 reaches the assembly,
    # and the `int` sums over a common denominator give the bytes of the
    # `Fraction` assembly they replaced
    assemble = witness._assemble
    compared = []

    def both(p, frame1, frame2):
        g = assemble(p, frame1, frame2)
        compared.append(g.tobytes() == oracles.fraction_assemble(p, frame1, frame2).tobytes())
        return g

    ops = bench_flag_pair_ops([101, 102, 103])
    with patch.object(witness, "_assemble", both):
        for op in ops:
            try:
                op.call()
            except (InequivalentFlagsError, WitnessFailureError):
                pass
    assert len(compared) == sum("inequivalent" not in op.label for op in ops)
    assert all(compared)


# sha256 over repr((vectors, norms)) of `adapted_frame` for both flags of every
# flag-pairs operation of seeds 101-103, in order, as the frame path builds them
# with its first extension inside the big part in ambient coordinates
PINNED_BENCH_FRAMES = "7578e9bba42b4dffa65faa362de54c6dff17cffe7969cdffbcbec7880c3f7aa8"


def test_bench_pair_frames_are_pinned():
    # the witness pins stop at a refusal; these reach every frame, inequivalent pairs included
    with patch.object(witness, "isometry_witness", lambda p, q, f1, f2: (p, q, f1, f2)):
        calls = [op.call() for op in bench_flag_pair_ops([101, 102, 103])]
    digest = hashlib.sha256()
    for p, q, *flags in calls:
        space = QuadraticSpace.standard(p, q)
        for f in flags:
            frame = forms.adapted_frame(space, f)
            digest.update(repr((frame.vectors, frame.norms)).encode())
    assert len(calls) == 201
    assert digest.hexdigest() == PINNED_BENCH_FRAMES


# WitnessFailureError outcomes over the flag-pairs operations of seeds 101-110,
# with frames whose first extension runs inside the big part
BENCH_REFUSALS = 52


def test_bench_pair_refusals_stay_at_most_the_pinned_count():
    # a frame change may move refusals between pairs, but not add to them
    refused = 0
    for op in bench_flag_pair_ops(range(101, 111)):
        try:
            op.call()
        except WitnessFailureError:
            refused += 1
        except InequivalentFlagsError:
            pass
    assert refused <= BENCH_REFUSALS


def test_witness_runs_without_mpmath():
    script = """
import sys
sys.modules["mpmath"] = None
from heisflag import Flag, Subspace, isometry_witness, linalg
e = [linalg.vec(int(i == j) for j in range(4)) for i in range(4)]
f1 = Flag(Subspace(4, (e[0],)), Subspace(4, (e[0], e[1])))
f2 = Flag(Subspace(4, (e[1],)), Subspace(4, (e[0], e[1])))
g = isometry_witness(2, 2, f1, f2)
assert g[0, 1] == g[1, 0] == 1.0, g
try:
    import mpmath
except ImportError:
    print("ok")
"""
    src = str(Path(heisflag.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=strategies.degenerate_flags())
def test_frame_cap_agrees_with_intersect_oracle(data):
    p, q, f = data
    space = QuadraticSpace.standard(p, q)
    n = p + q
    big = Subspace(n, tuple(linalg.lll_reduce(linalg.row_space(list(f.big.basis)))))
    for part in (f.small, big):
        nulls = scaled_system(space, part).nulls()
        if nulls:
            assert (linalg.row_space(forms._annihilated(space, big.basis, nulls))
                    == oracles.intersect_frame_cap(space, big, nulls))
