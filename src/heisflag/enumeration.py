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
  has signature (p - s - u, q - t - u, u).  (s, t, u) is read off the 2x2
  integer Gram in closed form (`_plane_signature`): its determinant's sign,
  then the sign of a diagonal entry.
- dim(V cap U+) = p - rank[a+; b+] and dim(V cap U-) = q - rank[a-; b-].
  The plane's Plucker key on two + indices holds the 2x2 minors of [a+; b+]
  times one nonzero factor, so rank[a+; b+] is 2 iff one of them is
  nonzero, else 1 iff a+ or b+ is; the - block likewise.
- A line v of V lies in (V cap U+) + (V cap U-) exactly when v+ is
  orthogonal to a+ and to b+.
- A null line v lies in the radical of V exactly when I_pq v lies in
  span(a, b), the Euclidean complement of V.  I_pq v has the support of v,
  so only a line on the plane's own coordinates needs that rank test.
Each pool vector is v = e_i + e e_j with e in {0, +-1} (`_positioned_pool`,
built once per survey), so a line is read off i, j and e alone: a.v =
a_i + e a_j, <v, v> = sign_i + e^2 sign_j, and d+, d-, d_pm and the radical
test's support check likewise.  The exact kernel basis of [a; b] is the big
part of every sample flag of the plane, built when its first line becomes
one; planes that give no sample flag build none.  A sample flag's
containment is checked in `int` as a.v = b.v = 0, which is what lying in
ker[a; b] means (`Flag._in_kernel`), in place of a rank on `Fraction` rows.

The signed block permutations B_p x B_q (permutations and sign flips of the
first p coordinates, and of the last q) fix I_pq, U+ and U-, so they fix
every flag invariant and every seven-count tuple.  So the survey visits only
a few planes of each class (`_canonical`): those whose support is an initial
segment of each block and whose key is the least among their images under
sign flips of the support coordinates.  Flipping the sign of coordinate i
multiplies the Plucker coordinate p_ij by d_i d_j, so each image is a
sign-flipped copy of the key, made positive at its first nonzero entry
again; no flipped pair is keyed.  It observes the same sets as a visit to
every plane would:
- Every class keeps a plane.  A pool plane lies on at most four
  coordinates, which a block permutation moves to the front of each block;
  of that plane's sign-flip images, the one with the least key is kept.
- All planes of a class give the same (invariants, seven counts) pairs.
  Each g in B_p x B_q maps the pool onto itself up to sign, and it is
  Euclidean-orthogonal, so g ker[a; b] = ker[ga; gb].  So g maps the pool
  lines of V one to one onto those of gV, and the flag (v, V) to (gv, gV),
  which has the same invariants and seven counts.

A kept plane lies on at most four coordinates, an initial segment of each
block, and so does each of its pool vectors.  So the survey pairs only the
pool vectors on the first min(p, 4) + and the first min(q, 4) -
coordinates (at most 64 vectors, 2016 pairs, at any n), in pool order, and
drops a pair whose joint support is no initial segment before it forms the
key.  Those pairs come in the order of all pairs of the pool, so the first
pair of each kept plane, and with it every sample flag, is the one a walk
over all pairs would meet first.

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


def _mask(v: IntRow) -> int:
    """The support of v as a bit mask: bit i is set iff v[i] != 0."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _initial(mask: int, p: int) -> bool:
    """Whether the support `mask` is an initial segment of the + block and of the - block.

    A block's part of the mask must be 2^k - 1 for some k, that is, add no
    carry past its own bits when one is added.
    """
    plus, minus = mask & ((1 << p) - 1), mask >> p
    return not plus & (plus + 1) and not minus & (minus + 1)


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
    coordinates.  Flipping coordinate i multiplies p_ij by d_i d_j, so each
    image is read off `key` (then made positive at its first nonzero entry
    again), and only the key's nonzero entries, which lie on the support,
    take part in the comparison.  Flipping all of them fixes the plane, so
    the first stays.
    """
    mask = _mask(a) | _mask(b)
    if not _initial(mask, p):
        return False
    flips = [i for i in range(len(a)) if mask >> i & 1][1:]
    entries = [(x, i, j) for (i, j), x in zip(index_pairs, key) if x]
    values = [x for x, _, _ in entries]
    for signs in itertools.product((1, -1), repeat=len(flips)):
        d = [1] * len(a)
        for i, s in zip(flips, signs):
            d[i] = s
        flipped = [x * d[i] * d[j] for x, i, j in entries]
        if flipped[0] < 0:
            flipped = [-x for x in flipped]
        if flipped < values:
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

    Needs `int`s p, q >= 0 with p + q >= 4 (else `PreconditionError`); cached per signature.
    """
    linalg.require_ints(p=p, q=q)
    if p < 0 or q < 0 or p + q < 4:
        raise PreconditionError(f"survey of signature ({p}, {q}) needs p, q >= 0 and p + q >= 4")
    return _survey_cached(p, q)


def _plane_signature(aa: int, ab: int, bb: int) -> tuple[int, int, int]:
    """Signature (s, t, u) of the 2x2 Gram matrix [[aa, ab], [ab, bb]].

    det < 0 means one positive and one negative direction; det > 0 means a
    definite plane, positive iff aa is; det = 0 leaves rank 1, whose sign is
    that of the nonzero diagonal entry (aa and bb cannot have opposite
    signs), or rank 0.
    """
    det = aa * bb - ab * ab
    if det < 0:
        return 1, 1, 0
    if det > 0:
        return (2, 0, 0) if aa > 0 else (0, 2, 0)
    if aa or bb:
        return (1, 0, 1) if aa + bb > 0 else (0, 1, 1)
    return 0, 0, 2


def _positioned_pool(n: int) -> list[tuple[IntRow, int, int, int]]:
    """Each vector v of `integer_pool(n)`, in pool order, as (v, i, j, e) with
    v = e_i + e e_j: i its first nonzero position, whose entry is +1, and j
    its second, with entry e = +-1, or j = i and e = 0 for a unit vector."""
    out = []
    for v in integer_pool(n):
        i = v.index(1)
        j = next((k for k in range(n - 1, i, -1) if v[k]), i)
        out.append((v, i, j, v[j] if j > i else 0))
    return out


def _plane_lines(a: IntRow, b: IntRow, key: IntRow, p: int, q: int,
                 pool: Sequence[tuple[IntRow, int, int, int]], index_pairs: list[tuple[int, int]]):
    """(v, invariants, seven counts) for each pool line v of V = ker[a; b], in pool order.

    `pool` is `_positioned_pool`: each line v = e_i + e e_j is read off i, j
    and e alone.  a.v = a_i + e a_j (b.v likewise), <v, v> = sign_i +
    e^2 sign_j, v has a + entry iff i < p and a - entry iff j >= p, and its
    support lies on the plane's iff bits i and j of the plane's mask are set.
    """
    sign = [1] * p + [-1] * q
    a_nz = [(i, x) for i, x in enumerate(a) if x]
    b_nz = [(i, x) for i, x in enumerate(b) if x]
    s, t, u = _plane_signature(sum(sign[i] * x * x for i, x in a_nz),
                               sum(sign[i] * x * b[i] for i, x in a_nz),
                               sum(sign[i] * x * x for i, x in b_nz))
    sig_big = Signature(p - s - u, q - t - u, u)
    spacelike = FlagInvariants(sig_big, Signature(1, 0, 0), 0)
    timelike = FlagInvariants(sig_big, Signature(0, 1, 0), 0)
    null = (FlagInvariants(sig_big, Signature(0, 0, 1), 0),
            FlagInvariants(sig_big, Signature(0, 0, 1), 1))
    plus_minor = any(x for (i, j), x in zip(index_pairs, key) if j < p)
    minus_minor = any(x for (i, j), x in zip(index_pairs, key) if i >= p)
    c_plus = p - (2 if plus_minor else int(any(a[:p]) or any(b[:p])))
    c_minus = q - (2 if minus_minor else int(any(a[p:]) or any(b[p:])))
    c_zero = p + q - 2 - c_plus - c_minus
    mask = _mask(a) | _mask(b)
    # a+ and b+: a and b with their - block cleared
    a_plus = a[:p] + (0,) * q
    b_plus = b[:p] + (0,) * q

    lines = []
    for v, i, j, e in pool:
        if a[i] + e * a[j] or b[i] + e * b[j]:
            continue
        norm = sign[i] + e * e * sign[j]
        if norm > 0:
            inv = spacelike
        elif norm < 0:
            inv = timelike
        else:
            # v lies in the radical iff I_pq v lies in V's Euclidean complement
            # span(a, b); I_pq v has the support of v, which must then lie on
            # the plane's
            inside = mask >> i & mask >> j & 1
            inv = null[inside and linalg.rank([a, b, [x * y for x, y in zip(sign, v)]]) == 2]
        d_plus = int(j < p)
        d_minus = int(i >= p)
        d_pm = 0 if a_plus[i] + e * a_plus[j] or b_plus[i] + e * b_plus[j] else 1
        lines.append((v, inv, (c_plus, c_minus, c_zero, d_plus, d_minus,
                               1 - d_plus - d_minus, d_pm)))
    return lines


@lru_cache(maxsize=None)
def _survey_cached(p: int, q: int) -> FlagSurvey:
    n = p + q
    # a kept plane, and so each of its pool vectors, lies on the first
    # min(p, 4) + and the first min(q, 4) - coordinates; the Plucker key of
    # such a plane needs only the index pairs among those
    coords = [*range(min(p, 4)), *range(p, p + min(q, 4))]
    reach = sum(1 << i for i in coords)
    index_pairs = list(itertools.combinations(coords, 2))
    pool = _positioned_pool(n)
    sub_pool = [(v, m) for v, i, j, _ in pool if not (m := 1 << i | 1 << j) & ~reach]
    invariants: dict[FlagInvariants, list[Flag]] = {}
    matsuki: set[tuple[int, ...]] = set()
    seen: set[IntRow] = set()
    kept = 0

    for (a, ma), (b, mb) in itertools.combinations(sub_pool, 2):
        if not _initial(ma | mb, p):
            continue
        key = _plucker_key(a, b, index_pairs)
        if key in seen:
            continue
        seen.add(key)
        if not _canonical(a, b, key, p, index_pairs):
            continue
        kept += 1
        big = None  # the exact kernel basis of [a; b], built at the plane's first sample flag
        for v, inv, counts in _plane_lines(a, b, key, p, q, pool, index_pairs):
            samples = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                if big is None:
                    big = Subspace._independent(n, tuple(linalg.kernel([a, b])))
                samples.append(Flag._in_kernel(v, (a, b), big))
            matsuki.add(counts)
    return FlagSurvey(p, q, kept, invariants, matsuki)
