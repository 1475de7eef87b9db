"""Samplers: exact draws, identical to the dense-product oracle draw for draw."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import heisflag
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


def test_random_flag_rejects_unfillable_shapes():
    # run in a child process, so that a regression to an endless draw loop fails on the
    # timeout instead of hanging the suite
    script = """
import random
from heisflag import PreconditionError, sampling
for p, q, shape in [(1, 1, None), (2, 2, (1, 5))]:
    try:
        sampling.random_flag(p, q, random.Random(0), shape=shape)
    except PreconditionError as ex:
        print(ex)
"""
    src = str(Path(heisflag.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["flag shape (1, 0) needs 0 <= k1 < k2 <= n = 2",
                                       "flag shape (1, 5) needs 0 <= k1 < k2 <= n = 4"]
