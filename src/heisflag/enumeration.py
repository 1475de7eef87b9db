"""Structured brute-force survey of flag orbits.

Continuous random sampling almost surely misses the degenerate signatures,
which are exactly the interesting orbit types, so the survey enumerates
flags built from small integer vectors instead.  It walks the dual family:
each codimension-two big part is V = ker[a; b] for two vectors a, b of the
small-vector pool ({-1, 0, 1} entries, at most two nonzero), visited once
per plane span(a, b), which its primitive Plucker coordinates identify
without any elimination.  The lines of V are the pool vectors that lie in
V, so the line family depends on V alone, not on a basis of V.

The key of a plane (`_plucker_key`) is sparse: the nonzero primitive
Plucker coordinates (p_ij, i, j), first one positive, taken over the index
pairs inside the plane's support only.  A minor on a pair with a column off
the support is zero, so these are all the nonzero coordinates, in the
order of all pairs, and a support of at most four coordinates needs at
most six minors.  The key serves as the plane's dedupe key and as the
entries that every later test reads.

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
  times one nonzero factor, so rank[a+; b+] is 2 iff a key entry p_kl has
  l < p, else 1 iff the plane's support meets the + block; the - block
  likewise, with k >= p.
Each pool vector is v = e_i + e e_j with e in {0, +-1}
(`sampling.positioned_pool`), so a line is read off i, j and e alone:
a.v = a_i + e a_j, <v, v> = sign_i + e^2 sign_j, d+ = [j < p],
d- = [i >= p], and
- A line v of V lies in (V cap U+) + (V cap U-) exactly when v+ is
  orthogonal to a+ and to b+.  v+ is v itself when j < p (and a.v = b.v =
  0), 0 when i >= p, and e_i when i < p <= j, so d_pm is 0 exactly when
  i < p <= j and the plane's support holds i.
- A null line v has i < p <= j and lies in the radical of V exactly when
  I_pq v = e_i - e e_j lies in span(a, b), the Euclidean complement of V:
  exactly when every key entry p_kl meets {i, j}.  For a combination u of
  a and b that vanishes off {i, j} is nonzero, as a and b are independent,
  and u.v = 0, so u is a multiple of e_i - e e_j; such a u exists iff
  [a; b] without columns i and j has rank at most 1, that is, iff every
  2x2 minor off {i, j} vanishes.  The key holds every nonzero minor.
The loop computes a kept plane's support mask and key once and hands both
to `_canonical` and `_plane_lines`, so no plane or line fact needs an
elimination.  A plane's four flag invariants, each line type's
`LineSignature.flag_invariants` of V's signature, depend on the plane's
signature (s, t, u) alone, which takes at most six values, so a survey
builds them once per signature, in a table local to the call, and
`_plane_lines` picks one per line by `LineSignature.of`, which reads the
radical test only for a null line.  The planes of a signature share these
objects, so the survey finds each sample list by the identity of its
invariant, in one dict for the call, and hashes no invariant per plane.  A
line's seven counts are the plane's c+, c-, c0 and the line's (d+, d-,
d_pm), which takes at most four values, so a plane builds each of its
distinct tuples once and hands them to the matsuki set once.  The exact
kernel basis of [a; b] is the big part of every sample flag of the plane,
built when its first line becomes one; planes that give no sample flag
build none.  `_plane_kernel` builds it by the elimination that
`linalg.kernel` runs, written for two `int` rows, so its vectors are
`linalg.kernel([a, b])`'s, entry for entry; a free column off the support
gives a unit vector.  A sample flag takes its pool line, an `int` tuple, as
it is (`Flag._of_pool_line`), and its containment check is the scan's own
test: a row r vanishes on v = e_i + e e_j exactly when r_i + e r_j = 0, so
a_i + e a_j = b_i + e b_j = 0 is what lying in ker[a; b] means, read at
the line's two positions in place of a rank or a sum over all n entries.

The signed block permutations B_p x B_q (permutations and sign flips of the
first p coordinates, and of the last q) fix I_pq, U+ and U-, so they fix
every flag invariant and every seven-count tuple.  So the survey visits only
a few planes of each class (`_canonical`): those whose support is an initial
segment of each block and whose key is the least among their images under
sign flips of the support coordinates.  Flipping the signs of the
coordinates of a submask F of the support multiplies p_ij by -1 exactly
when F holds one of i and j, so each image is a sign-flipped copy of the
key, made positive at its first entry again; no flipped pair is keyed.
Flipping every coordinate fixes the plane, so the walk takes the nonzero
submasks of the support less its lowest coordinate.  It observes the same
sets as a visit to every plane would:
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
drops a pair whose joint support is no initial segment of each block before
it forms the key: a lookup in the at most 15 such supports
(`_admissible_masks`), which also hands over the index pairs inside the
support.  Those pairs come in the order of all pairs of the pool, so the
first pair of each kept plane, and with it every sample flag, is the one a
walk over all pairs would meet first.

The line scan of a plane is independent of n (`_scanned`): it visits, in
pool order, only the pool lines on the plane's support and on the first
K = SAMPLES_PER_ORBIT + 1 spare coordinates of each block, those off the
support.  So a survey builds the pool vectors on the first 4 + K
coordinates of each block alone.  The scan observes what a scan of the
whole pool would, sample flags and their order included:
- A transposition of two spare coordinates of one block fixes a, b (zero
  on both), I_pq, U+ and U-.  So it maps the pool lines of V onto each
  other, up to sign, with the same invariants and seven counts.
- Let a line v of V use a spare coordinate y past the first K of its
  block, and let x be its other coordinate (x = y for a unit vector).
  Swapping y with each of the first K spare coordinates u of the block,
  u != x, gives at least K - 1 = SAMPLES_PER_ORBIT distinct lines of V
  with v's invariants and seven counts, and each comes before v in pool
  order, which is lexicographic in the positions i <= j: replacing y by a
  smaller u makes the sorted pair of positions smaller.
- So, by induction along pool order, the first SAMPLES_PER_ORBIT lines of
  each invariant on a plane, and the first line of each (invariants, seven
  counts) pair, are all scanned.  The samples of an invariant are its first
  SAMPLES_PER_ORBIT lines over the planes in order, which are among the
  first SAMPLES_PER_ORBIT of their plane, and the invariants meet their
  sample lists in the same order, so every sample list, the order of the
  invariants and the matsuki set stay the same.

The survey yields the observed set of orbit invariants, the observed set of
seven-count coordinate data, and a few sample flags per orbit.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from . import linalg
from .forms import Flag, FlagInvariants, LineSignature, PreconditionError, Signature, Subspace
from .sampling import positioned_pool

IntRow = tuple[int, ...]
Key = tuple[tuple[int, int, int], ...]
PoolLine = tuple[IntRow, int, int, int]

SAMPLES_PER_ORBIT = 3
# the spare coordinates of each block, off a plane's support, whose pool
# lines the survey scans: K = SAMPLES_PER_ORBIT + 1, as the module docstring proves
SPARE_COORDINATES = SAMPLES_PER_ORBIT + 1


def _admissible_masks(p: int, q: int) -> dict[int, list[tuple[int, int]]]:
    """Each support that a kept plane can have, as a mask, with the index pairs
    inside it: the first k + and the first l - coordinates, k + l <= 4."""
    masks = {}
    for k in range(min(p, 4) + 1):
        for l in range(min(q, 4 - k) + 1):
            support = [*range(k), *range(p, p + l)]
            masks[sum(1 << i for i in support)] = list(itertools.combinations(support, 2))
    return masks


def _plucker_key(a: IntRow, b: IntRow, index_pairs: Sequence[tuple[int, int]]) -> Key:
    """The nonzero primitive Plucker coordinates (p_ij, i, j) of span(a, b) on
    `index_pairs`, which must hold every pair inside its support, first one positive.

    a and b must be independent; distinct pool vectors always are.
    """
    minors = [(x, i, j) for i, j in index_pairs if (x := a[i] * b[j] - a[j] * b[i])]
    g = gcd(*(x for x, _, _ in minors))
    if minors[0][0] < 0:
        g = -g
    return tuple(minors) if g == 1 else tuple((x // g, i, j) for x, i, j in minors)


def _canonical(mask: int, key: Key) -> bool:
    """Whether the plane with support `mask` and key `key` is the plane the
    survey keeps of its class.

    The caller has already found its support an initial segment of each
    block.  Its key must be the least among its images under sign flips of
    the support coordinates.  Flipping the coordinates of a submask of the
    support negates p_ij exactly when the submask holds one of i and j, so
    each image is read off the key (then made positive at its first entry
    again).  Flipping all of them fixes the plane, so the lowest stays.
    """
    values = [x for x, _, _ in key]
    rest = mask & (mask - 1)
    flips = rest
    while flips:
        flipped = [-x if (flips >> i ^ flips >> j) & 1 else x for x, i, j in key]
        if flipped[0] < 0:
            flipped = [-x for x in flipped]
        if flipped < values:
            return False
        flips = (flips - 1) & rest
    return True


def _cleared(row: list[int] | IntRow, prow: list[int] | IntRow, c: int) -> list[int]:
    """`row` with column c cleared by the pivot row `prow`, as `linalg`'s elimination
    clears it: (p row - x prow) / g, with p and x divided by their gcd first and g
    the content of the result."""
    p, x = prow[c], row[c]
    g = gcd(p, x)
    up, x = p // g, x // g
    new = [up * y - x * z for y, z in zip(row, prow)]
    g = gcd(*new)
    return [y // g for y in new] if g > 1 else new


def _plane_kernel(a: IntRow, b: IntRow) -> tuple[IntRow, ...]:
    """`linalg.kernel([a, b])` for independent `int` rows a and b, entry for entry.

    It runs the same elimination on the two rows: the first nonzero column c
    pivots (in a unless a_c = 0), the other row is cleared at c and pivots at
    its first nonzero column d, which is then cleared in the first row.  Each
    free column f gives v_f = s, v_c = -a_f s / a_c and v_d = -b_f s / b_d, s
    the lcm of the pivots whose rows meet f, divided by its content with the
    leading entry positive: e_f when f lies off the support.
    """
    n = len(a)
    c = next(k for k in range(n) if a[k] or b[k])
    if not a[c]:
        a, b = b, a
    if b[c]:
        b = _cleared(b, a, c)
    d = next(k for k in range(c + 1, n) if b[k])
    if a[d]:
        a = _cleared(a, b, d)
    pa, pb = a[c], b[d]
    basis = []
    for f in range(n):
        if f == c or f == d:
            continue
        x, y = a[f], b[f]
        v = [0] * n
        if x or y:
            s = lcm(pa if x else 1, pb if y else 1)
            vc, vd = -x * (s // pa), -y * (s // pb)
            g = gcd(s, vc, vd)
            # the leading entry: v_c (c < d, f), else v_d or v_f, whichever comes first
            if (vc or (vd if d < f else 0) or s) < 0:
                g = -g
            v[c], v[d], v[f] = vc // g, vd // g, s // g
        else:
            v[f] = 1
        basis.append(tuple(v))
    return tuple(basis)


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


# (d+, d-, d0, d_pm) of a line v = e_i + e e_j of V, by where it lies: in the
# + block (j < p), in the - block (i >= p), or across the blocks with i off
# and on the plane's support; d0 = 1 - d+ - d-
_LINE_COUNTS = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 1, 0))


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


def _scanned(mask: int, p: int, q: int, pool: Sequence[PoolLine]) -> list[PoolLine]:
    """The lines of `pool` that `_plane_lines` visits for a plane with support `mask`,
    in pool order: those on the support and the first K = SPARE_COORDINATES spare
    coordinates of each block, that is on the first min(p, k + K) + and the first
    min(q, l + K) - coordinates, for a support of k + and l - coordinates."""
    k, l = (mask & ((1 << p) - 1)).bit_length(), (mask >> p).bit_length()
    reach = (1 << min(p, k + SPARE_COORDINATES)) - 1 | (1 << min(q, l + SPARE_COORDINATES)) - 1 << p
    return [line for line in pool if not (1 << line[1] | 1 << line[2]) & ~reach]


def _plane_lines(a: IntRow, b: IntRow, mask: int, key: Key, p: int, q: int,
                 pool: Sequence[PoolLine], tables: dict[tuple[int, int, int], dict]):
    """The lines of `pool` that lie in V = ker[a; b], each as (its pool entry,
    invariants, seven counts), in pool order, and the plane's distinct seven-count
    tuples.

    `mask` is the plane's support and `key` its `_plucker_key`; `pool` holds
    `sampling.positioned_pool` entries (v, i, j, e), so each line v = e_i +
    e e_j is read off i, j, e, the mask and the key, as the module docstring
    derives: a null line (i < p <= j) lies in the radical iff every key entry
    meets {i, j}, and its d_pm is 0 iff bit i of the mask is set.  `tables`
    maps a plane signature (s, t, u) to V's four flag invariants by line
    type; a missing entry is added, so the planes of one survey that share a
    signature share their invariant objects.
    """
    sign = [1] * p + [-1] * q
    a_nz = [(i, x) for i, x in enumerate(a) if x]
    b_nz = [(i, x) for i, x in enumerate(b) if x]
    plane = _plane_signature(sum(sign[i] * x * x for i, x in a_nz),
                             sum(sign[i] * x * b[i] for i, x in a_nz),
                             sum(sign[i] * x * x for i, x in b_nz))
    by_type = tables.get(plane)
    if by_type is None:
        s, t, u = plane
        sig_big = Signature(p - s - u, q - t - u, u)
        by_type = tables[plane] = {kind: kind.flag_invariants(sig_big) for kind in LineSignature}
    line_type = LineSignature.of
    c_plus = p - (2 if any(l < p for _, _, l in key) else int(mask & ((1 << p) - 1) > 0))
    c_minus = q - (2 if any(k >= p for _, k, _ in key) else int(mask >> p > 0))
    c_zero = p + q - 2 - c_plus - c_minus
    # the seven-count tuple of each (d+, d-, d_pm) that a line of the plane has,
    # built at its first line; slot k holds the _LINE_COUNTS[k] tuple
    counts_of: list[tuple[int, ...] | None] = [None] * len(_LINE_COUNTS)

    lines = []
    for line in pool:
        _, i, j, e = line
        if a[i] + e * a[j] or b[i] + e * b[j]:
            continue
        norm = sign[i] + e * e * sign[j]
        # a null line is radical iff I_pq v = e_i - e e_j lies in span(a, b)
        inv = by_type[line_type(norm, not norm and all(
            i in (k, l) or j in (k, l) for _, k, l in key))]
        slot = 0 if j < p else 1 if i >= p else 2 | mask >> i & 1
        counts = counts_of[slot]
        if counts is None:
            counts = counts_of[slot] = (c_plus, c_minus, c_zero, *_LINE_COUNTS[slot])
        lines.append((line, inv, counts))
    return lines, [counts for counts in counts_of if counts is not None]


def _kept_planes(p: int, q: int, pool: Sequence[PoolLine]):
    """(a, b, support mask, key) for each plane the survey keeps, in the order of the
    first pair of pool vectors that spans it.

    `pool` holds the `sampling.positioned_pool` entries on at least the first
    min(p, 4) + and the first min(q, 4) - coordinates, and the pairs are
    taken from the vectors on those.  A pair whose support is no initial
    segment of each block is dropped before it is keyed.
    """
    masks = _admissible_masks(p, q)
    reach = (1 << min(p, 4)) - 1 | (1 << min(q, 4)) - 1 << p
    sub_pool = [(v, m) for v, i, j, _ in pool if not (m := 1 << i | 1 << j) & ~reach]
    seen: set[Key] = set()
    for (a, ma), (b, mb) in itertools.combinations(sub_pool, 2):
        mask = ma | mb
        index_pairs = masks.get(mask)
        if index_pairs is None:
            continue
        key = _plucker_key(a, b, index_pairs)
        if key not in seen:
            seen.add(key)
            if _canonical(mask, key):
                yield a, b, mask, key


@lru_cache(maxsize=None, typed=True)  # typed: a bool never meets the survey of its int
def _survey_cached(p: int, q: int) -> FlagSurvey:
    n = p + q
    # the pool vectors on the first 4 + K coordinates of each block: the
    # pairs come from those on the first 4, each plane's lines from all of them
    width = 4 + SPARE_COORDINATES
    pool = positioned_pool(n, [*range(min(p, width)), *range(p, p + min(q, width))])
    scans: dict[int, list[PoolLine]] = {}  # the `_scanned` lines of each support met
    tables: dict[tuple[int, int, int], dict] = {}  # `_plane_lines`' invariants by plane signature
    invariants: dict[FlagInvariants, list[Flag]] = {}
    lists: dict[int, list[Flag]] = {}  # each sample list, by the id of its table's invariant
    matsuki: set[tuple[int, ...]] = set()
    kept = 0

    for a, b, mask, key in _kept_planes(p, q, pool):
        kept += 1
        scan = scans.get(mask)
        if scan is None:
            scan = scans[mask] = _scanned(mask, p, q, pool)
        lines, counts = _plane_lines(a, b, mask, key, p, q, scan, tables)
        matsuki.update(counts)
        big = None  # the kernel of [a; b], built at the plane's first sample flag
        for line, inv, _ in lines:
            samples = lists.get(id(inv))
            if samples is None:
                samples = lists[id(inv)] = invariants.setdefault(inv, [])
            if len(samples) < SAMPLES_PER_ORBIT:
                if big is None:
                    big = Subspace._independent(n, _plane_kernel(a, b))
                samples.append(Flag._of_pool_line(*line, (a, b), big))
    return FlagSurvey(p, q, kept, invariants, matsuki)
