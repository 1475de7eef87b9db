"""Samplers: exact draws, identical to the dense-product oracle draw for draw.

The Cayley samplers, `random_flag`, `random_gram` and `parabolic_sample`
must make their oracle's draws and leave the generator in the same state;
`test_seeded_outputs_are_pinned` pins the bytes of seeded draws and moved
representatives by digest, so that no change alters a seeded value silently.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import heisflag
import oracles
import strategies
from heisflag import heisenberg, sampling
from heisflag.forms import Flag, Subspace
from heisflag.heisenberg import ScaledAutomorphism, admissible_classes

SAMPLERS = ("cayley_opq", "plane_cayley_opq", "mild_opq", "random_opq", "random_flag",
            "random_gram")


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("p, q", [(3, 1), (2, 3)])
def test_samplers_match_oracle_draw_for_draw(name, p, q):
    for seed in range(300):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert getattr(sampling, name)(p, q, rng) == getattr(oracles, name)(p, q, oracle_rng), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


@pytest.mark.parametrize("n", range(4, 17))
def test_parabolic_sample_matches_full_det_oracle_draw_for_draw(n):
    # the block determinant accepts exactly the draws a full determinant does
    for seed in range(40):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert heisenberg.parabolic_sample(n, rng) == oracles.parabolic_sample(n, oracle_rng), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_random_flag_rejects_unfillable_shapes():
    # run in a child process, so that a regression to an endless draw loop fails on the
    # timeout instead of hanging the suite
    script = """
import random
from heisflag import PreconditionError, sampling
for p, q in [(1, 1)]:
    try:
        sampling.random_flag(p, q, random.Random(0))
    except PreconditionError as ex:
        print(ex)
"""
    src = str(Path(heisflag.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["flag shape (1, 0) needs 0 <= k1 < k2 <= n = 2"]


def as_fractions(out):
    """A seeded output with every exact entry written as a `Fraction`.

    The samplers and the group action return canonical entries, `int` where
    integral; the pins were taken when every entry was a `Fraction`, so
    they are digested by value.  A flag is rebuilt through the public
    `Subspace` and `Flag` constructors, and a `ScaledAutomorphism` keeps the
    three parts of its repr, the automorphism cached as it is when read.
    """
    if isinstance(out, Flag):
        n = out.big.ambient_dim
        return Flag(*(Subspace(n, strategies.as_fractions(part.basis))
                      for part in (out.small, out.big)))
    if isinstance(out, ScaledAutomorphism):
        sa = ScaledAutomorphism(strategies.as_fractions(out.matrix), Fraction(out.scale))
        sa.__dict__["automorphism"] = strategies.as_fractions(out.automorphism)
        return sa
    return strategies.as_fractions(out)


def seeded_outputs():
    """(label, output, rng): seeded draws of every sampler and the group action.

    At each n one signature (n - q, q) with q = max(1, n // 3); per seed a
    `random_gram`, a `parabolic_sample`, an admissible row's representative
    moved twice by `act_on_metric`, a `random_opq`, and a `random_flag`
    moved by `apply_to_flag` of a `random_opq`, each from its own generator.
    Every output passes through `as_fractions`.
    """
    for n in (4, 5, 8, 12, 16):
        q = max(1, n // 3)
        p = n - q
        rows = admissible_classes(p, q).classes
        for seed in range(3):
            rng = random.Random(seed)
            yield f"({p},{q}) random_gram {seed}", as_fractions(sampling.random_gram(p, q, rng)), rng
            rng = random.Random(seed)
            sample = heisenberg.parabolic_sample(n, rng)
            yield f"n={n} parabolic_sample {seed}", as_fractions(sample), rng
            rng = random.Random(seed)
            row = rows[seed * 5 % len(rows)]
            gram = heisenberg.representative(row.id, p, q)
            for _ in range(2):
                g = [list(r) for r in heisenberg.parabolic_sample(n, rng).matrix]
                gram = heisenberg.act_on_metric(g, gram)
            yield f"({p},{q}) class {row.id} moved twice {seed}", as_fractions(gram), rng
            rng = random.Random(seed)
            yield f"({p},{q}) random_opq {seed}", as_fractions(sampling.random_opq(p, q, rng)), rng
            rng = random.Random(seed)
            f = sampling.random_flag(p, q, rng)
            yield (f"({p},{q}) apply_to_flag {seed}",
                   as_fractions(sampling.apply_to_flag(sampling.random_opq(p, q, rng), f)), rng)


PINNED_OUTPUTS = {
    "(3,1) random_gram 0": "f0e16584e768a400",
    "n=4 parabolic_sample 0": "4d4bf2d0f9110f74",
    "(3,1) class 1 moved twice 0": "02cd6e0fa87ac36c",
    "(3,1) random_opq 0": "86688fb1118d7319",
    "(3,1) apply_to_flag 0": "60f32bc4d7d3f71d",
    "(3,1) random_gram 1": "5541ca80dfffd4d7",
    "n=4 parabolic_sample 1": "3bc1530031db578c",
    "(3,1) class 13 moved twice 1": "e892863693778301",
    "(3,1) random_opq 1": "0654719929079242",
    "(3,1) apply_to_flag 1": "8eafffc482312af3",
    "(3,1) random_gram 2": "99d2f4a600185616",
    "n=4 parabolic_sample 2": "519c7dfff65056f9",
    "(3,1) class 10 moved twice 2": "87592ca63d4032e6",
    "(3,1) random_opq 2": "b93c4470f82a02a3",
    "(3,1) apply_to_flag 2": "0b3724833f2e2855",
    "(4,1) random_gram 0": "daf6671ed66cb3ae",
    "n=5 parabolic_sample 0": "86936129d734e5f1",
    "(4,1) class 1 moved twice 0": "a7c1d5c704e5c633",
    "(4,1) random_opq 0": "9e4f3251285ebe09",
    "(4,1) apply_to_flag 0": "1ef441ee7ad504a9",
    "(4,1) random_gram 1": "4d7ac2b167749e85",
    "n=5 parabolic_sample 1": "083a2618dfb1a1db",
    "(4,1) class 13 moved twice 1": "a285dd641e5648a6",
    "(4,1) random_opq 1": "7a9bb4c38aa810fd",
    "(4,1) apply_to_flag 1": "cd13129364ee067f",
    "(4,1) random_gram 2": "cc1248b40947eebb",
    "n=5 parabolic_sample 2": "8da32aa2ff7b3685",
    "(4,1) class 10 moved twice 2": "33ec24ec10e6e16e",
    "(4,1) random_opq 2": "da92cafa7592bd13",
    "(4,1) apply_to_flag 2": "22a72f9020b6d8f6",
    "(6,2) random_gram 0": "0f925e334327d67e",
    "n=8 parabolic_sample 0": "e9f95c0fce362c91",
    "(6,2) class 1 moved twice 0": "e6e21d68e4a66bc6",
    "(6,2) random_opq 0": "b71a7399087b3627",
    "(6,2) apply_to_flag 0": "6ce17ad1387816ef",
    "(6,2) random_gram 1": "bcd91a46e7037137",
    "n=8 parabolic_sample 1": "256548fd36d78360",
    "(6,2) class 6 moved twice 1": "d66063c0ac3fcf9b",
    "(6,2) random_opq 1": "82956a0f31bfae6d",
    "(6,2) apply_to_flag 1": "605c0ffa0814f2e6",
    "(6,2) random_gram 2": "8213e30f46d341e6",
    "n=8 parabolic_sample 2": "fcb635272fab5b15",
    "(6,2) class 13 moved twice 2": "2e7658b41e3b94c5",
    "(6,2) random_opq 2": "1627b54595915602",
    "(6,2) apply_to_flag 2": "dd0e31615d6f8b65",
    "(8,4) random_gram 0": "3cccf57bea1c0156",
    "n=12 parabolic_sample 0": "933ddc802475c4bf",
    "(8,4) class 1 moved twice 0": "ff90077e1852dbf2",
    "(8,4) random_opq 0": "60fe63a61a0122c7",
    "(8,4) apply_to_flag 0": "92249974df02b829",
    "(8,4) random_gram 1": "da38f04a991e1106",
    "n=12 parabolic_sample 1": "6b0e0dcc4c9a5c19",
    "(8,4) class 6 moved twice 1": "4fd6483e554c9afc",
    "(8,4) random_opq 1": "85def182f763f907",
    "(8,4) apply_to_flag 1": "d51b7a9da05acb04",
    "(8,4) random_gram 2": "4dc5c79ecc00443b",
    "n=12 parabolic_sample 2": "4b9cad644a507abf",
    "(8,4) class 11 moved twice 2": "936a6b620723e201",
    "(8,4) random_opq 2": "dba64cfd8da0727e",
    "(8,4) apply_to_flag 2": "18670973a684c813",
    "(11,5) random_gram 0": "f60324cdcca6aa2f",
    "n=16 parabolic_sample 0": "c3e713f2f9fa83a0",
    "(11,5) class 1 moved twice 0": "7d9ffa3c5a3e500e",
    "(11,5) random_opq 0": "4406d06f54d09570",
    "(11,5) apply_to_flag 0": "95cf724e5d970cb8",
    "(11,5) random_gram 1": "03f737504206b0a2",
    "n=16 parabolic_sample 1": "cc9d495ac25aef40",
    "(11,5) class 6 moved twice 1": "325c13381dc84846",
    "(11,5) random_opq 1": "d842800fcc427a14",
    "(11,5) apply_to_flag 1": "62290bb4233f8095",
    "(11,5) random_gram 2": "96bf188e73a2b462",
    "n=16 parabolic_sample 2": "6d08b884342aef29",
    "(11,5) class 11 moved twice 2": "4f1aa7bb17fcca71",
    "(11,5) random_opq 2": "ae780d3f7967b464",
    "(11,5) apply_to_flag 2": "943c44ebadd485ff",
}


def test_seeded_outputs_are_pinned():
    # every seeded value, and the generator state after it, keeps its bytes:
    # the digest is of repr((output, rng.getstate()))
    got = {label: hashlib.sha256(repr((out, rng.getstate())).encode()).hexdigest()[:16]
           for label, out, rng in seeded_outputs()}
    assert list(got) == list(PINNED_OUTPUTS)
    changed = [(label, got[label], want) for label, want in PINNED_OUTPUTS.items()
               if got[label] != want]
    assert changed == []


RANDOM_GRAM_DIGEST = "46ea58ee2fd55c91c8591bce6c61cd824362bc5fb59ee921a96ddf96e488511b"


def test_random_gram_draws_are_pinned():
    # every (p, q) with 4 <= n <= 16 at seeds 0-2: the Gram and the generator
    # state after it keep their bytes, so refusing a draw that repeats a column
    # before ranking it changes no draw
    h = hashlib.sha256()
    for n in range(4, 17):
        for p in range(n + 1):
            for seed in range(3):
                rng = random.Random(seed)
                h.update(repr((sampling.random_gram(p, n - p, rng), rng.getstate())).encode())
    assert h.hexdigest() == RANDOM_GRAM_DIGEST
