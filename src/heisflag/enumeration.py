"""Structured brute-force survey of flag orbits.

Continuous random sampling almost surely misses the degenerate signatures,
which are exactly the interesting orbit types, so the survey enumerates
flags built from small integer vectors instead.  It walks the dual family:
each codimension-two big part is V = ker[a; b] for two vectors a, b of the
small-vector pool ({-1, 0, 1} entries, at most two nonzero), visited once
per plane span(a, b), which its primitive Plucker coordinates identify
without any elimination.  The lines of V are the pool vectors that lie in
V, so the line family depends on V alone, not on a basis of V.

The flag data is read off the pair and the line.  Write x+ and x- for the
first p and the last q entries of x, and U+, U- for the coordinate
subspaces.
- V is the I_pq-orthogonal complement of I_pq span(a, b), a plane with the
  Gram matrix of span(a, b); if that plane has signature (s, t, u), then V
  has signature (p - s - u, q - t - u, u).
- dim(V cap U+) = p - rank[a+; b+] and dim(V cap U-) = q - rank[a-; b-].
  The plane's Plucker key on two + indices holds the 2x2 minors of [a+; b+]
  times one nonzero factor, so rank[a+; b+] is 2 iff one of them is
  nonzero, else 1 iff a+ or b+ is; the - block likewise.
- A line v of V lies in (V cap U+) + (V cap U-) exactly when v+ is
  orthogonal to a+ and to b+.
- A null line v lies in the radical of V exactly when I_pq v is orthogonal
  to each vector of the exact kernel basis of [a; b], which is also the big
  part of every sample flag.

The signed block permutations B_p x B_q (permutations and sign flips of the
first p coordinates, and of the last q) fix I_pq, U+ and U-, so they fix
every flag invariant and every seven-count tuple.  So the survey visits only
a few planes of each class (`_canonical`): those whose support is an initial
segment of each block and whose key is the least among their images under
sign flips of the support coordinates.  It observes the same sets as a
visit to every plane would:
- Every class keeps a plane.  A pool plane lies on at most four
  coordinates, which a block permutation moves to the front of each block;
  of that plane's sign-flip images, the one with the least key is kept.
- All planes of a class give the same (invariants, seven counts) pairs.
  Each g in B_p x B_q maps the pool onto itself up to sign, and it is
  Euclidean-orthogonal, so g ker[a; b] = ker[ga; gb].  So g maps the pool
  lines of V one to one onto those of gV, and the flag (v, V) to (gv, gV),
  which has the same invariants and seven counts.

The survey yields the observed set of orbit invariants, the observed set of
seven-count coordinate data, and a few sample flags per orbit.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from . import linalg
from .forms import Flag, FlagInvariants, PreconditionError, Signature, Subspace
from .sampling import integer_pool

IntRow = tuple[int, ...]

SAMPLES_PER_ORBIT = 3


def _standard_gram(sign: list[int], vectors) -> list[list[int]]:
    """Gram matrix of integer vectors under the diagonal form `sign`."""
    return [[sum(s * x * y for s, x, y in zip(sign, u, v)) for v in vectors]
            for u in vectors]


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _plucker_key(a: IntRow, b: IntRow, index_pairs: list[tuple[int, int]]) -> IntRow:
    """Primitive Plucker coordinates of span(a, b), first nonzero positive.

    a and b must be independent; distinct pool vectors always are.
    """
    plucker = [a[i] * b[j] - a[j] * b[i] for i, j in index_pairs]
    g = gcd(*plucker)
    if next(x for x in plucker if x) < 0:
        g = -g
    return tuple(x // g for x in plucker)


def _canonical(a: IntRow, b: IntRow, key: IntRow, p: int,
               index_pairs: list[tuple[int, int]]) -> bool:
    """Whether span(a, b), with key `key`, is the plane the survey keeps of its class.

    Its support must be an initial segment of the + block and of the - block,
    and its key the least among its images under sign flips of the support
    coordinates.  Flipping all of them fixes the plane, so the first stays.
    """
    support = [i for i, (x, y) in enumerate(zip(a, b)) if x or y]
    plus = sum(1 for i in support if i < p)
    if support != [*range(plus), *range(p, p + len(support) - plus)]:
        return False
    for flips in itertools.product((1, -1), repeat=len(support) - 1):
        d = [1] * len(a)
        for i, s in zip(support[1:], flips):
            d[i] = s
        flipped = _plucker_key(tuple(s * x for s, x in zip(d, a)),
                               tuple(s * x for s, x in zip(d, b)), index_pairs)
        if flipped < key:
            return False
    return True


@dataclass(frozen=True)
class FlagSurvey:
    """Everything observed while enumerating flags of type (1, n-2).

    Immutable, because `survey_flags` hands one cached survey to every
    caller: `invariants` becomes a read-only mapping to tuples of sample
    flags and `matsuki` a frozenset.  `subspace_count` counts the planes
    visited, one or a few per signed-permutation class.
    """

    p: int
    q: int
    subspace_count: int
    invariants: Mapping[FlagInvariants, tuple[Flag, ...]]
    matsuki: frozenset[tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "invariants", MappingProxyType(
            {inv: tuple(flags) for inv, flags in self.invariants.items()}))
        object.__setattr__(self, "matsuki", frozenset(self.matsuki))

    @property
    def observed_invariants(self) -> frozenset[FlagInvariants]:
        return frozenset(self.invariants)


def survey_flags(p: int, q: int) -> FlagSurvey:
    """Enumerate type-(1, n-2) flags over the small-vector pool, one plane per class.

    Needs p, q >= 0 and p + q >= 4 (else `PreconditionError`).  Results are
    cached per signature; see `_survey_cached`.
    """
    if p < 0 or q < 0 or p + q < 4:
        raise PreconditionError(f"survey of signature ({p}, {q}) needs p, q >= 0 and p + q >= 4")
    return _survey_cached(p, q)


def _plane_lines(a: IntRow, b: IntRow, key: IntRow, p: int, q: int, pool: Sequence[IntRow],
                 index_pairs: list[tuple[int, int]]):
    """Integer kernel basis of V = ker[a; b], and (v, invariants, seven counts) per pool line v."""
    sign = [1] * p + [-1] * q
    s, t, u = linalg.congruence_diagonalize(_standard_gram(sign, (a, b))).sign_counts()
    sig_big = Signature(p - s - u, q - t - u, u)
    plus_minor = any(x for (i, j), x in zip(index_pairs, key) if j < p)
    minus_minor = any(x for (i, j), x in zip(index_pairs, key) if i >= p)
    c_plus = p - (2 if plus_minor else int(any(a[:p]) or any(b[:p])))
    c_minus = q - (2 if minus_minor else int(any(a[p:]) or any(b[p:])))
    c_zero = p + q - 2 - c_plus - c_minus
    basis = [tuple(int(x) for x in w) for w in linalg.kernel([a, b])]

    lines = []
    for v in pool:
        if _dot(a, v) or _dot(b, v):
            continue
        signed = [e * x for e, x in zip(sign, v)]
        norm = _dot(v, signed)
        if norm > 0:
            sig_small, cap = Signature(1, 0, 0), 0
        elif norm < 0:
            sig_small, cap = Signature(0, 1, 0), 0
        else:
            sig_small, cap = Signature(0, 0, 1), (0 if any(_dot(w, signed) for w in basis) else 1)
        d_plus = 0 if any(v[p:]) else 1
        d_minus = 0 if any(v[:p]) else 1
        d_pm = 0 if _dot(a[:p], v) or _dot(b[:p], v) else 1
        lines.append((v, FlagInvariants(sig_big, sig_small, cap),
                      (c_plus, c_minus, c_zero, d_plus, d_minus, 1 - d_plus - d_minus, d_pm)))
    return basis, lines


@lru_cache(maxsize=None)
def _survey_cached(p: int, q: int) -> FlagSurvey:
    n = p + q
    pool = integer_pool(n)
    index_pairs = list(itertools.combinations(range(n), 2))
    invariants: dict[FlagInvariants, list[Flag]] = {}
    matsuki: set[tuple[int, ...]] = set()
    seen: set[IntRow] = set()

    for a, b in itertools.combinations(pool, 2):
        key = _plucker_key(a, b, index_pairs)
        if key in seen or not _canonical(a, b, key, p, index_pairs):
            continue
        seen.add(key)
        basis, lines = _plane_lines(a, b, key, p, q, pool, index_pairs)
        big = tuple(map(linalg.vec, basis))
        for v, inv, counts in lines:
            samples = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                samples.append(Flag(Subspace(n, (linalg.vec(v),)), Subspace(n, big)))
            matsuki.add(counts)
    return FlagSurvey(p, q, len(seen), invariants, matsuki)
