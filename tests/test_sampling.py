"""Samplers: exact draws, identical to the dense-product oracle draw for draw."""

import random

import pytest

import oracles
from heisflag import sampling

SAMPLERS = ("cayley_opq", "plane_cayley_opq", "mild_opq", "random_opq", "random_flag",
            "random_gram")


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("p, q", [(3, 1), (2, 3)])
def test_samplers_match_oracle_draw_for_draw(name, p, q):
    for seed in range(300):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert getattr(sampling, name)(p, q, rng) == getattr(oracles, name)(p, q, oracle_rng), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_signed_permutation_opq_matches_oracle():
    for seed in range(50):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert (sampling.signed_permutation_opq(3, 2, rng)
                == oracles.signed_permutation_opq(3, 2, oracle_rng)), seed
        assert rng.getstate() == oracle_rng.getstate(), seed
