"""Workloads: seeded inputs, the public call each operation makes, and its answer check.

Every input is generated during set-up with `heisflag.sampling` and
`heisflag.heisenberg`; an operation is a single public call on generated
inputs.  Calls go through module attributes (`heisenberg.classify_metric`,
never a name imported into this file), so a traced run sees them.

Each operation carries a check that runs outside the timed region.  It
returns None for a correct answer or a `Failure` naming the cause.  A
failure is `wrong` when the program returned a wrong answer or raised an
exception it should not raise; `WitnessFailureError` on an equivalent
pair is the witness module's documented refusal, counted as a failure of
that operation but not as a wrong answer.
"""

from __future__ import annotations

import functools
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np

from heisflag import curvature, enumeration, forms, heisenberg, sampling, witness

RESIDUAL_TOL = 1e-9
FLAT_CLASS_IDS = frozenset({13, 17, 20, 21})

# per pass: n -> (large-entry inputs, small-entry inputs); one signature per
# rung, rows taken in table order.  `sampling.random_gram` takes seconds per
# matrix at n >= 24, so those rungs have large-entry inputs only.  The counts
# put the latency median among the n = 6 large-entry calls and the 90th
# percentile among the n = 12 large-entry calls, whose times vary little
# from input to input, so that neither falls on a jump between rungs or
# among the small-entry calls at n = 8, whose times vary by a factor of two.
CLASSIFY_RUNGS: dict[int, tuple[int, int]] = {
    4: (12, 12), 6: (16, 12), 8: (8, 8), 12: (8, 8), 16: (2, 2), 24: (1, 0), 32: (1, 0),
}
# large-entry inputs above this n are moved once, not twice: moving twice at
# n = 32 takes 2 s of set-up and makes one call take half of a pass
TWICE_MOVED_UP_TO = 16
# per pass: (p, q, raw, moved): representatives of the first `raw` admissible
# rows and parabolic-moved representatives of the first `moved` rows
CURVATURE_PLAN: tuple[tuple[int, int, int, int], ...] = (
    (3, 1, 6, 6), (1, 3, 6, 6), (2, 2, 10, 6), (2, 3, 0, 8), (3, 3, 0, 1), (3, 4, 0, 1),
    (4, 4, 0, 1),
)
# per pass: (p, q, equivalent pairs, inequivalent pairs).  The counts put the
# latency median among the (3, 3) pairs and the 90th percentile among the
# n = 8 pairs moved by `random_opq`, the costliest kind, so that neither
# falls on a jump between kinds of pair.
FLAG_PAIR_PLAN: tuple[tuple[int, int, int, int], ...] = (
    (2, 2, 3, 1), (3, 1, 3, 1), (3, 2, 3, 1), (2, 3, 3, 1), (3, 3, 16, 1), (4, 2, 4, 1),
    (4, 3, 4, 1), (4, 4, 12, 1), (5, 3, 10, 1),
)
# per pass: (p, q, number of flag orbit types, calls).  The orbit type count
# is the class count for that signature.  A (3, 3) survey takes 5.6 s, the
# others under 0.3 s; calling each of those three times per pass puts the
# latency median and 90th percentile among several inputs, not on one call.
SURVEY_PLAN: tuple[tuple[int, int, int, int], ...] = (
    (2, 2, 10, 3), (3, 1, 6, 3), (3, 2, 15, 3), (3, 3, 21, 1),
)

# The share of --seconds that one pass over a workload's inputs stands for.  A
# run makes round(seconds / PASS_SECONDS) passes, at least one, so its
# operation and failure counts depend only on the seed and --seconds, not on
# how fast the machine is.  The values are scaled pass times at the seed
# state (see `reference.py`), except survey's: its pass takes 8 s, and it is
# given 4 s so that a run makes five passes; its set-up costs next to
# nothing, so its runs take about as long as classify's.
PASS_SECONDS: dict[str, float] = {
    "classify": 1.6, "curvature": 5.5, "flag-pairs": 6.5, "survey": 4.0,
}


class Failure(NamedTuple):
    cause: str
    wrong: bool
    residual: float | None = None


@dataclass
class Op:
    """One public call on generated inputs, with the check of its answer."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], Failure | None]
    tally: Callable[[Any], dict[str, float]] | None = None
    before: Callable[[], None] | None = None


def _unexpected(error: BaseException) -> Failure:
    return Failure(f"exception.{type(error).__name__}", wrong=True)


def _rows(p: int, q: int):
    return heisenberg.admissible_classes(max(p, q), min(p, q)).classes


def _moved(n: int, gram, rng: random.Random):
    sample = heisenberg.parabolic_sample(n, rng)
    return heisenberg.act_on_metric([list(r) for r in sample.matrix], gram)


# ---------------------------------------------------------------------------
# classify


def _int_rank(rows) -> int:
    """Exact rank of a rational matrix by fraction-free elimination on integer rows."""
    m = []
    for row in rows:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        m.append([int(Fraction(x) * scale) for x in row])
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                a, b = m[rank][c], m[i][c]
                row = [a * x - b * y for x, y in zip(m[i], m[rank])]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g else row
        rank += 1
    return rank


def inertia(block) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric rational matrix.

    The zero count is exact (dimension minus exact rank); the signs of the
    remaining eigenvalues come from a float eigensolver and must be clearly
    separated from zero, otherwise the oracle refuses to decide.
    """
    m = len(block)
    nul = m - _int_rank(block)
    if m == nul:
        return 0, 0, m
    values = sorted(np.linalg.eigvalsh(np.array(block, dtype=float)), key=abs)
    kept = values[nul:]
    if abs(kept[0]) <= 1e-6 * abs(kept[-1]):
        raise ArithmeticError("inertia oracle: nonzero eigenvalue too close to zero")
    pos = sum(1 for v in kept if v > 0)
    return pos, len(kept) - pos, nul


def expected_classification(gram, p: int, q: int):
    """Independent classification: (swapped, center inertia, refined line type, None).

    The class id is left open: the center inertia and the line type decide it.
    """
    n = p + q
    swapped = p < q
    work = [[-x for x in row] for row in gram] if swapped else gram
    center = inertia([row[: n - 2] for row in work[: n - 2]])
    norm = work[0][0]
    if norm > 0:
        refined = forms.LineSignature.SPACELIKE
    elif norm < 0:
        refined = forms.LineSignature.TIMELIKE
    elif all(work[0][j] == 0 for j in range(n - 2)):
        refined = forms.LineSignature.RADICAL
    else:
        refined = forms.LineSignature.LIGHTLIKE
    return swapped, center, refined, None


def _check_classification(expected: Callable[[], tuple], p: int, q: int):
    expected = functools.cache(expected)

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        swapped, center, refined, class_id = expected()
        if class_id is not None and result.class_id != class_id:
            return Failure("wrong.class_id", wrong=True)
        if result.swapped != swapped or (result.p, result.q) != (max(p, q), min(p, q)):
            return Failure("wrong.swap", wrong=True)
        row = result.metric_class
        if (result.center_signature.as_tuple() != center
                or row.center_signature(result.p, result.q).as_tuple() != center):
            return Failure("wrong.center_signature", wrong=True)
        if result.refined != refined or row.refined != refined:
            return Failure("wrong.refined", wrong=True)
        return None

    return check


def _classify_op(label: str, gram, p: int, q: int, expected: Callable[[], tuple]) -> Op:
    alg = heisenberg.HeisenbergAlgebra(p + q)
    return Op(label, lambda: heisenberg.classify_metric(alg, gram),
              _check_classification(expected, p, q))


def _row_expectation(row, p: int, q: int) -> Callable[[], tuple]:
    center = row.center_signature(max(p, q), min(p, q)).as_tuple()
    return lambda: (p < q, center, row.refined, row.id)


def generate_classify(seed: int, rungs: dict[int, tuple[int, int]] = CLASSIFY_RUNGS) -> list[Op]:
    """Signature ladders; the p < q inputs take the swap path.

    Large-entry inputs are admissible-row representatives moved twice by the
    scaling-and-automorphism group, as `heisflag verify` does (once above
    TWICE_MOVED_UP_TO); small-entry inputs come from `sampling.random_gram`.
    """
    rng = random.Random(seed)
    ops = []
    for n, (large, small) in rungs.items():
        q0 = max(1, n // 3)
        signatures = [(n - q0, q0), (q0, n - q0)]
        rows = list(_rows(n - q0, q0))
        for i in range(large):
            p, q = signatures[i % 2]
            row = rows[i % len(rows)]
            gram = heisenberg.representative(row.id, p, q)
            for _ in range(2 if n <= TWICE_MOVED_UP_TO else 1):
                gram = _moved(n, gram, rng)
            ops.append(_classify_op(f"n={n} large ({p},{q}) class {row.id}", gram, p, q,
                                    _row_expectation(row, p, q)))
        for i in range(small):
            p, q = signatures[i % 2]
            gram = sampling.random_gram(p, q, rng)
            ops.append(_classify_op(f"n={n} small ({p},{q})", gram, p, q,
                                    functools.partial(expected_classification, gram, p, q)))
    return ops


# ---------------------------------------------------------------------------
# curvature


def _is_derivation(d, n: int) -> bool:
    """D[e_i, e_j] == [D e_i, e_j] + [e_i, D e_j] for the bracket [e_{n-2}, e_{n-1}] = e_0."""
    def bracket(x, y):  # coefficient of e_0; every bracket lies in span(e_0)
        return x[n - 2] * y[n - 1] - x[n - 1] * y[n - 2]

    cols = [[d[r][c] for r in range(n)] for c in range(n)]
    units = [[1 if r == c else 0 for r in range(n)] for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = bracket(units[i], units[j])
            lhs = [d[r][0] * e for r in range(n)]
            rhs0 = bracket(cols[i], units[j]) + bracket(units[i], cols[j])
            if lhs != [rhs0] + [0] * (n - 1):
                return False
    return True


def _is_soliton_certificate(gram, ricci, soliton, n: int) -> bool:
    """Ric = G (c Id + D) with D a derivation, checked exactly."""
    c, d = soliton
    op = [[d[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    product = [[sum(gram[i][k] * op[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return product == [list(row) for row in ricci] and _is_derivation(d, n)


def _curvature_op(label: str, gram, p: int, q: int, class_id: int) -> Op:
    n = p + q
    alg = heisenberg.HeisenbergAlgebra(n)
    lorentzian_3_1 = (max(p, q), min(p, q)) == (3, 1)

    def check(report, error):
        if error is not None:
            return _unexpected(error)
        if report.is_flat != (class_id in FLAT_CLASS_IDS):
            return Failure("wrong.is_flat", wrong=True)
        if report.soliton is None:
            if lorentzian_3_1:
                return Failure("wrong.soliton", wrong=True)
        elif not _is_soliton_certificate(gram, report.ricci, report.soliton, n):
            return Failure("wrong.soliton_certificate", wrong=True)
        return None

    return Op(label, lambda: curvature.curvature_report(alg, gram, check_soliton=True), check)


def generate_curvature(seed: int, plan=CURVATURE_PLAN) -> list[Op]:
    """Admissible-row representatives, raw and moved by the parabolic group."""
    rng = random.Random(seed)
    ops = []
    for p, q, raw, moved in plan:
        rows = list(_rows(p, q))
        for row in rows[:raw]:
            gram = heisenberg.representative(row.id, p, q)
            ops.append(_curvature_op(f"({p},{q}) class {row.id} raw", gram, p, q, row.id))
        for row in rows[:moved]:
            gram = _moved(p + q, heisenberg.representative(row.id, p, q), rng)
            ops.append(_curvature_op(f"({p},{q}) class {row.id} moved", gram, p, q, row.id))
    return ops


# ---------------------------------------------------------------------------
# flag pairs

_INVARIANT_NAMES = ("sig_big", "sig_small", "dim(small cap rad big)")
_REFUSAL = re.compile(r"(form residual|flag mapping distance) ([0-9.e+-]+)")


def _first_difference(inv1, inv2) -> str | None:
    for name, a, b in zip(_INVARIANT_NAMES,
                          (inv1.sig_big, inv1.sig_small, inv1.dim_small_cap_rad),
                          (inv2.sig_big, inv2.sig_small, inv2.dim_small_cap_rad)):
        if a != b:
            return name
    return None


def _check_equivalent(p: int, q: int, f1, f2):
    def check(g, error):
        if isinstance(error, witness.WitnessFailureError):
            found = _REFUSAL.search(str(error))
            if found is None:
                return Failure("refused.other", wrong=False)
            cause = "form_residual" if found.group(1) == "form residual" else "flag_distance"
            return Failure(f"refused.{cause}", wrong=False, residual=float(found.group(2)))
        if error is not None:
            return _unexpected(error)
        residuals = witness.witness_residuals(p, q, g, f1, f2)
        if not max(residuals.values()) <= RESIDUAL_TOL:
            return Failure("wrong.residual", wrong=True, residual=max(residuals.values()))
        return None

    return check


def _check_inequivalent(differs: str):
    def check(g, error):
        if error is None:
            return Failure("wrong.witness_for_inequivalent", wrong=True)
        if not isinstance(error, witness.InequivalentFlagsError):
            return _unexpected(error)
        named = [name for name in _INVARIANT_NAMES if name in str(error)]
        if named != [differs]:
            return Failure("wrong.rejection_reason", wrong=True)
        return None

    return check


def _draw_pairs(p: int, q: int, equivalent: int, inequivalent: int, rng: random.Random):
    """Pairs (f1, h) of random flags with their invariants: first `equivalent`
    pairs whose invariants agree, then `inequivalent` pairs whose invariants differ.

    Flags are drawn one at a time.  A flag whose invariants match a waiting
    flag's forms an equivalent pair with it; otherwise it waits.  Waiting
    flags have pairwise different invariants and make the inequivalent pairs.
    """
    space = forms.QuadraticSpace.standard(p, q)
    waiting: dict = {}
    same = []
    while len(same) < equivalent or len(waiting) < 2 * inequivalent:
        f = sampling.random_flag(p, q, rng)
        inv = forms.flag_invariants(space, f)
        if inv not in waiting:
            waiting[inv] = f
        elif len(same) < equivalent:
            same.append((waiting.pop(inv), inv, f, inv))
    rest = list(waiting.items())[: 2 * inequivalent]
    different = [(f1, inv1, h, inv_h)
                 for (inv1, f1), (inv_h, h) in zip(rest[0::2], rest[1::2])]
    return same, different


def generate_flag_pairs(seed: int, plan=FLAG_PAIR_PLAN) -> list[Op]:
    """Pairs (f1, g . h) with f1, h from `random_flag` and g in O(p, q).

    The pair set is kept exactly as drawn, whatever the witness later does
    with it.  Half of the equivalent pairs use `mild_opq`, half `random_opq`.
    """
    rng = random.Random(seed)
    ops = []
    for p, q, equivalent, inequivalent in plan:
        same, different = _draw_pairs(p, q, equivalent, inequivalent, rng)
        for i, (f1, inv1, h, inv_h) in enumerate(same + different):
            want_equivalent = i < equivalent
            mild = want_equivalent and i % 2 == 1
            g = sampling.mild_opq(p, q, rng) if mild else sampling.random_opq(p, q, rng)
            f2 = sampling.apply_to_flag(g, h)
            if want_equivalent:
                label = f"({p},{q}) {'mild' if mild else 'random'} pair {i}"
                check = _check_equivalent(p, q, f1, f2)
            else:
                label = f"({p},{q}) inequivalent pair {i}"
                check = _check_inequivalent(_first_difference(inv1, inv_h))
            tally = None if want_equivalent else (lambda _: {"rejected": 1})
            ops.append(_witness_op(label, p, q, f1, f2, check, tally))
    return ops


def _witness_op(label: str, p: int, q: int, f1, f2, check, tally=None) -> Op:
    return Op(label, lambda: witness.isometry_witness(p, q, f1, f2), check, tally=tally)


# ---------------------------------------------------------------------------
# survey


def clear_heisflag_caches() -> None:
    """Empty every functools cache in heisflag, so the next call computes from scratch."""
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "heisflag" or key.startswith("heisflag.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _expected_invariants(p: int, q: int) -> set:
    small = {
        forms.LineSignature.SPACELIKE: forms.Signature(1, 0, 0),
        forms.LineSignature.TIMELIKE: forms.Signature(0, 1, 0),
        forms.LineSignature.LIGHTLIKE: forms.Signature(0, 0, 1),
        forms.LineSignature.RADICAL: forms.Signature(0, 0, 1),
    }
    return {forms.FlagInvariants(row.center_signature(p, q), small[row.refined],
                                 1 if row.refined is forms.LineSignature.RADICAL else 0)
            for row in _rows(p, q)}


def _survey_op(p: int, q: int, orbits: int) -> Op:
    n = p + q

    def check(survey, error):
        if error is not None:
            return _unexpected(error)
        observed = survey.observed_invariants
        if len(observed) != orbits or observed != _expected_invariants(p, q):
            return Failure("wrong.orbit_types", wrong=True)
        if len(survey.matsuki) != orbits:
            return Failure("wrong.matsuki_count", wrong=True)
        return None

    def tally(survey):
        # the pool is every {-1, 0, 1} vector with at most two nonzero
        # entries, first nonzero +1: n + 2 * C(n, 2) = n^2 vectors
        return {"subspaces": survey.subspace_count, "subsets": math.comb(n * n, n - 2)}

    return Op(f"survey ({p},{q})", lambda: enumeration.survey_flags(p, q), check,
              tally=tally, before=clear_heisflag_caches)


def generate_survey(seed: int, plan=SURVEY_PLAN) -> list[Op]:
    """One operation per survey call; caches are emptied before each, so no call is warm."""
    ops = [_survey_op(p, q, orbits) for p, q, orbits, calls in plan for _ in range(calls)]
    random.Random(seed).shuffle(ops)
    return ops


GENERATORS: dict[str, Callable[[int], list[Op]]] = {
    "classify": generate_classify,
    "curvature": generate_curvature,
    "flag-pairs": generate_flag_pairs,
    "survey": generate_survey,
}
