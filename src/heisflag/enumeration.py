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
  times one nonzero factor, so rank[a+; b+] is 2 iff a nonzero key entry
  p_kl has l < p, else 1 iff the plane's support meets the + block; the -
  block likewise, with k >= p.
Each pool vector is v = e_i + e e_j with e in {0, +-1} (`_positioned_pool`,
built once per survey), so a line is read off i, j and e alone: a.v =
a_i + e a_j, <v, v> = sign_i + e^2 sign_j, d+ = [j < p], d- = [i >= p], and
- A line v of V lies in (V cap U+) + (V cap U-) exactly when v+ is
  orthogonal to a+ and to b+.  v+ is v itself when j < p (and a.v = b.v =
  0), 0 when i >= p, and e_i when i < p <= j, so d_pm is 0 exactly when
  i < p <= j and the plane's support holds i.
- A null line v has i < p <= j and lies in the radical of V exactly when
  I_pq v = e_i - e e_j lies in span(a, b), the Euclidean complement of V:
  exactly when every nonzero key entry p_kl meets {i, j}.  For a
  combination u of a and b that vanishes off {i, j} is nonzero, as a and b
  are independent, and u.v = 0, so u is a multiple of e_i - e e_j; such a
  u exists iff [a; b] without columns i and j has rank at most 1, that is,
  iff every 2x2 minor off {i, j} vanishes.  The key holds every nonzero
  minor, because a kept plane lies on the coordinates it is keyed on.
The loop computes a kept plane's support mask and its nonzero key entries
once and hands both to `_canonical` and `_plane_lines`, so no plane or line
fact needs an elimination.  `_plane_lines` builds the plane's four flag
invariants once, each line type's `LineSignature.flag_invariants` of V's
signature, and picks one per line by `LineSignature.of`, which reads the
radical test only for a null line.  The exact kernel basis of [a; b] is the big
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
from .forms import Flag, FlagInvariants, LineSignature, PreconditionError, Signature, Subspace
from .sampling import integer_pool

IntRow = tuple[int, ...]

SAMPLES_PER_ORBIT = 3


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


def _canonical(mask: int, entries: list[tuple[int, int, int]], n: int) -> bool:
    """Whether the plane with support `mask` and nonzero key entries `entries`,
    each (p_ij, i, j), is the plane the survey keeps of its class.

    The caller has already found its support an initial segment of each
    block.  Its key must be the least among its images under sign flips of
    the support coordinates.  Flipping coordinate i multiplies p_ij by
    d_i d_j, so each image is read off the entries (then made positive at
    its first nonzero entry again), which lie on the support.  Flipping all
    of them fixes the plane, so the first stays.
    """
    flips = [i for i in range(n) if mask >> i & 1][1:]
    values = [x for x, _, _ in entries]
    for signs in itertools.product((1, -1), repeat=len(flips)):
        d = [1] * n
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


def _plane_lines(a: IntRow, b: IntRow, mask: int, entries: list[tuple[int, int, int]],
                 p: int, q: int, pool: Sequence[tuple[IntRow, int, int, int]]):
    """(v, invariants, seven counts) for each pool line v of V = ker[a; b], in pool order.

    `mask` is the plane's support and `entries` its nonzero key entries
    (p_kl, k, l); `pool` is `_positioned_pool`, so each line v = e_i + e e_j
    is read off i, j, e, the mask and the entries, as the module docstring
    derives: a null line (i < p <= j) lies in the radical iff every entry
    meets {i, j}, and its d_pm is 0 iff bit i of the mask is set.
    """
    sign = [1] * p + [-1] * q
    a_nz = [(i, x) for i, x in enumerate(a) if x]
    b_nz = [(i, x) for i, x in enumerate(b) if x]
    s, t, u = _plane_signature(sum(sign[i] * x * x for i, x in a_nz),
                               sum(sign[i] * x * b[i] for i, x in a_nz),
                               sum(sign[i] * x * x for i, x in b_nz))
    sig_big = Signature(p - s - u, q - t - u, u)
    by_type = {kind: kind.flag_invariants(sig_big) for kind in LineSignature}
    line_type = LineSignature.of
    c_plus = p - (2 if any(l < p for _, _, l in entries) else int(mask & ((1 << p) - 1) > 0))
    c_minus = q - (2 if any(k >= p for _, k, _ in entries) else int(mask >> p > 0))
    c_zero = p + q - 2 - c_plus - c_minus

    lines = []
    for v, i, j, e in pool:
        if a[i] + e * a[j] or b[i] + e * b[j]:
            continue
        norm = sign[i] + e * e * sign[j]
        # a null line is radical iff I_pq v = e_i - e e_j lies in span(a, b)
        inv = by_type[line_type(norm, not norm and all(
            i in (k, l) or j in (k, l) for _, k, l in entries))]
        d_plus = int(j < p)
        d_minus = int(i >= p)
        d_pm = 0 if i < p <= j and mask >> i & 1 else 1
        lines.append((v, inv, (c_plus, c_minus, c_zero, d_plus, d_minus,
                               1 - d_plus - d_minus, d_pm)))
    return lines


@lru_cache(maxsize=None, typed=True)  # typed: a bool never meets the survey of its int
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
        mask = ma | mb
        if not _initial(mask, p):
            continue
        key = _plucker_key(a, b, index_pairs)
        if key in seen:
            continue
        seen.add(key)
        entries = [(x, i, j) for (i, j), x in zip(index_pairs, key) if x]
        if not _canonical(mask, entries, n):
            continue
        kept += 1
        big = None  # the exact kernel basis of [a; b], built at the plane's first sample flag
        lists = {}  # the sample list of each of the plane's (at most four) invariants, by id
        for v, inv, counts in _plane_lines(a, b, mask, entries, p, q, pool):
            samples = lists.get(id(inv))
            if samples is None:
                samples = lists[id(inv)] = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                if big is None:
                    big = Subspace._independent(n, tuple(linalg.kernel([a, b])))
                samples.append(Flag._in_kernel(v, (a, b), big))
            matsuki.add(counts)
    return FlagSurvey(p, q, kept, invariants, matsuki)
