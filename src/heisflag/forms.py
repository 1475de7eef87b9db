"""Quadratic spaces, subspaces and flags over the rationals.

A quadratic space is an ambient dimension together with a symmetric Gram
matrix, possibly degenerate.  This module computes the classical invariants
of subspaces (signature, radical, refined line signature), the complete
orbit invariants of nested subspace pairs under the indefinite orthogonal
group, the seven intersection counts dual to them, and the constructive
orthogonal-system machinery (scaled systems, light-like splitting, null
system extension, basis extension) that powers isometry construction.  A
scaled system stands for its span: `extend_basis`, the one basis extension,
takes no subspace and ranks only the system's null block.  The module that
decides its layout also owns its pair slots: `adapted_frame` builds the
flag-adapted frame that isometry witnesses assemble.  One kernel of
<xs, ws> mapped through ws, `_annihilated`, serves `radical`, the perps
that the extension peels and the frame's cap of rad(big); `QuadraticSpace`
caches the radical of the whole space as one kernel of its Gram matrix,
which `radical` returns when it is given no subspace.
`LineSignature` is the one home of a line type's facts: the center
directions it fills, the flag invariants it gives and its type under the
negated form come from one table, which `possible_line_signatures` and the
taxonomy and survey in `heisflag.heisenberg` and `heisflag.enumeration` read.

The form is evaluated in one place, `QuadraticSpace.pairing`, on the Gram
rows that the space read once when it was made (a diagonal Gram matrix
multiplies elementwise), and every change from subspace coordinates to
ambient ones is one `linalg.combine`.  `extend_basis` searches a complement
of the ambient radical only when there is a radical: in a nondegenerate
space the complement is the whole space.
Every intersection dimension is read off one rank: dim(small cap rad big)
is dim(small) - rank <small, big>, and the seven counts come from ranks of
the big basis cut to one coordinate block.  Everything here is exact.
Floating-point isometry witnesses live in `heisflag.witness`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import linalg
from .linalg import Matrix, PreconditionError, Vector


@dataclass(frozen=True)
class Signature:
    """Counts of positive, negative and zero diagonal entries after congruence."""

    pos: int
    neg: int
    nul: int

    def __post_init__(self):
        linalg.require_ints(pos=self.pos, neg=self.neg, nul=self.nul)
        if self.pos < 0 or self.neg < 0 or self.nul < 0:
            raise PreconditionError("signature components must be nonnegative")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.neg, self.nul)

    def __str__(self) -> str:
        return f"({self.pos}, {self.neg}, {self.nul})"


class LineSignature(enum.Enum):
    """Signature of a line inside a subspace, with the null case refined.

    A null line is RADICAL when it lies in the radical of the surrounding
    subspace and LIGHTLIKE when it is null but meets the radical trivially.
    Every other fact about a type, its `cells`, its `flag_invariants` and
    its `negated` type, is read off one table, `_LINE_FACTS`.
    """

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    RADICAL = "radical"

    # members are singletons compared by identity, so the C-level identity hash
    # agrees with equality; Enum's own hash is a Python call on the name
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @staticmethod
    def of(norm, radical: bool) -> "LineSignature":
        """The type of the line spanned by v inside V: the one rule that gives it.

        The sign of `norm` = <v, v> decides a line that is not null; a null
        line is RADICAL when `radical` holds, that is when v pairs to zero
        with all of V, and LIGHTLIKE otherwise.  `radical` is read only for
        a null line.
        """
        if norm > 0:
            return _SPACELIKE
        if norm < 0:
            return _TIMELIKE
        return _RADICAL if radical else _LIGHTLIKE

    @property
    def cells(self) -> tuple[int, int, int]:
        """The (positive, negative, null) directions that a line of this type fills
        in a subspace: its own direction, or a hyperbolic pair for a lightlike line."""
        return _LINE_FACTS[self][0]

    def flag_invariants(self, sig_big: Signature) -> "FlagInvariants":
        """The orbit invariants of a flag whose line has this type in a big part of
        signature `sig_big`: a null line has signature (0, 0, 1), and only a
        radical one meets rad(big)."""
        return FlagInvariants(sig_big, *_LINE_FACTS[self][1:3])

    def negated(self) -> "LineSignature":
        """The type of the same line under the negated form: SPACELIKE and TIMELIKE swap."""
        return _LINE_FACTS[self][3]


# the members bound once, since `LineSignature.of` runs for every line of a survey
_SPACELIKE, _TIMELIKE, _LIGHTLIKE, _RADICAL = LineSignature

# The one table of line-type facts: cells, the line's signature, dim(line cap
# rad(big)), and the type under the negated form.
_LINE_FACTS = {
    _SPACELIKE: ((1, 0, 0), Signature(1, 0, 0), 0, _TIMELIKE),
    _TIMELIKE: ((0, 1, 0), Signature(0, 1, 0), 0, _SPACELIKE),
    _LIGHTLIKE: ((1, 1, 0), Signature(0, 0, 1), 0, _LIGHTLIKE),
    _RADICAL: ((0, 0, 1), Signature(0, 0, 1), 1, _RADICAL),
}


@dataclass(frozen=True)
class QuadraticSpace:
    """Ambient dimension plus a symmetric (possibly degenerate) Gram matrix; `from_matrix`
    stores it as `linalg.mat` reads it, canonical.

    The Gram matrix never changes, so it is read once, by `linalg.read_gram`,
    and its `int` rows L * M and scale L are kept for every pairing, with
    their diagonal when M is diagonal.
    """

    gram: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        rows, scale = linalg.read_gram(self.gram)
        diagonal = [row[i] for i, row in enumerate(rows)]
        if any(x for i, row in enumerate(rows) for x in row[:i]):  # symmetric: below decides
            diagonal = None
        object.__setattr__(self, "_read", (rows, scale, (len(rows),) * 2, diagonal))

    @classmethod
    def from_matrix(cls, gram: Sequence[Sequence]) -> "QuadraticSpace":
        return cls(tuple(map(tuple, linalg.mat(gram))))

    @classmethod
    def standard(cls, p: int, q: int) -> "QuadraticSpace":
        """The standard space of signature (p, q): Gram = diag(+1 x p, -1 x q).

        p and q are checked before the cache, which builds each space once
        per class and (p, q); it is `typed`, so a bool keeps its own entry.
        """
        linalg.require_ints(p=p, q=q)
        if p < 0 or q < 0 or p + q == 0:
            raise PreconditionError("standard space needs p, q >= 0 with p + q >= 1")
        return _standard_space(cls, p, q)

    @property
    def dim(self) -> int:
        return len(self.gram)

    def pairing(self, xs: Sequence[Vector], ys: Sequence[Vector]) -> Matrix:
        """The matrix of <x, y> for x in xs (rows) and y in ys (columns).

        The sums of `linalg.bilinear` over the Gram rows read at construction:
        xs and ys are read, the Gram matrix is not read again, and a diagonal
        Gram matrix multiplies each x elementwise.  The entries are
        canonical, so a norm or a pairing of integer vectors is an `int`.
        """
        rows, scale, dims, diagonal = self._read
        return linalg._bilinear_sums(xs, rows, scale, ys, dims, diagonal)

    def inner(self, x: Vector, y: Vector) -> int | Fraction:
        return self.pairing([x], [y])[0][0]

    @cached_property
    def _radical(self) -> "Subspace":
        # the Gram matrix never changes, so one kernel of it answers every call
        return Subspace._independent(self.dim, tuple(linalg.kernel(self.gram)))

    def is_nondegenerate(self) -> bool:
        return self._radical.dim == 0

    def ambient_radical(self) -> "Subspace":
        return self._radical


@lru_cache(typed=True)
def _standard_space(cls: type[QuadraticSpace], p: int, q: int) -> QuadraticSpace:
    return cls.from_matrix(linalg.diag([1] * p + [-1] * q))


@dataclass(frozen=True)
class Subspace:
    """Span of linearly independent vectors inside a fixed ambient dimension."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        self._check_lengths()
        if self.basis and linalg.rank(self.basis) != len(self.basis):
            raise PreconditionError("basis vectors must be linearly independent")

    def _check_lengths(self) -> None:
        linalg.require_ints(ambient_dim=self.ambient_dim)
        if self.ambient_dim < 0:
            raise linalg.ShapeError(f"ambient dimension {self.ambient_dim} is negative")
        rows, cols = linalg.shape(self.basis)
        if rows and cols != self.ambient_dim:
            raise linalg.ShapeError("basis vector has wrong length")

    @classmethod
    def _independent(cls, ambient_dim: int, basis: tuple[Vector, ...]) -> "Subspace":
        """A subspace whose basis is independent by construction: the rank check is skipped."""
        w = object.__new__(cls)
        object.__setattr__(w, "ambient_dim", ambient_dim)
        object.__setattr__(w, "basis", basis)
        w._check_lengths()
        return w

    @classmethod
    def spanned_by(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        """Span of arbitrary vectors; dependent ones are dropped."""
        return cls._independent(ambient_dim, tuple(linalg.row_space(vectors)))

    @classmethod
    def coordinate(cls, ambient_dim: int, indices: Sequence[int]) -> "Subspace":
        units = linalg.identity(ambient_dim)
        rows = []
        for i in indices:
            linalg.require_ints(index=i)
            if not 0 <= i < ambient_dim:
                raise linalg.ShapeError(f"coordinate index {i} outside 0..{ambient_dim - 1}")
            rows.append(tuple(units[i]))
        # unit vectors are independent exactly when they are pairwise distinct
        if len(set(rows)) != len(rows):
            raise PreconditionError("basis vectors must be linearly independent")
        return cls._independent(ambient_dim, tuple(rows))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        linalg.require_ints(ambient_dim=ambient_dim)
        return cls.coordinate(ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        rows = [*self.basis, v]
        if linalg.shape(rows)[1] != self.ambient_dim:
            raise linalg.ShapeError("vector length does not match ambient dimension")
        return linalg.rank(rows) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise linalg.ShapeError("subspaces live in different ambient spaces")
        return linalg.rank([*self.basis, *other.basis]) == self.dim

    def coordinates_of(self, v: Vector) -> Vector:
        """Coefficients of v in this basis; raises if v lies outside."""
        cols = [[bv[i] for bv in self.basis] for i in range(self.ambient_dim)]
        coeffs = linalg.solve(cols, v)
        if coeffs is None:
            raise PreconditionError("vector does not lie in the subspace")
        return coeffs


@dataclass(frozen=True)
class Flag:
    """A nested pair of subspaces small < big of a common ambient space."""

    small: Subspace
    big: Subspace

    def __post_init__(self):
        self._check_dims()
        if not self.big.contains_subspace(self.small):
            raise PreconditionError("small subspace is not contained in the big one")

    def _check_dims(self) -> None:
        if self.small.ambient_dim != self.big.ambient_dim:
            raise linalg.ShapeError("flag parts live in different ambient spaces")
        if not self.small.dim < self.big.dim <= self.big.ambient_dim:
            raise PreconditionError("flag needs dim(small) < dim(big) <= ambient")

    @classmethod
    def _in_kernel(cls, line: tuple[int, ...], rows: Sequence[Sequence[int]],
                   big: Subspace) -> "Flag":
        """The flag (span(line), big) for big = ker(rows), with `int` rows and the line
        a tuple of `int`s, which is already a canonical vector and is taken as it is.

        The line lies in ker(rows) exactly when every row . line is 0, so
        containment is checked in `int` in place of the rank test; the caller
        guarantees that `big` is that kernel.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "small", Subspace._independent(big.ambient_dim, (line,)))
        object.__setattr__(f, "big", big)
        f._check_dims()
        if any(sum(x * y for x, y in zip(row, line)) for row in rows):
            raise PreconditionError("small subspace is not contained in the big one")
        return f

    @property
    def shape(self) -> tuple[int, int]:
        return (self.small.dim, self.big.dim)


@dataclass(frozen=True)
class FlagInvariants:
    """Complete orbit data of a flag: two signatures plus one intersection dimension."""

    sig_big: Signature
    sig_small: Signature
    dim_small_cap_rad: int


@dataclass(frozen=True)
class MatsukiData:
    """Seven intersection counts with the coordinate axes splitting.

    For a flag (V_1, V_{n-2}) and the coordinate subspaces U+ (first p axes)
    and U- (last q axes): c* count intersections of the big part, d* of the
    line, and d_pm measures the line against (big cap U+) + (big cap U-).
    """

    c_plus: int
    c_minus: int
    c_zero: int
    d_plus: int
    d_minus: int
    d_zero: int
    d_pm: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.c_plus, self.c_minus, self.c_zero,
                self.d_plus, self.d_minus, self.d_zero, self.d_pm)


@dataclass(frozen=True)
class ScaledSystem:
    """Pairwise orthogonal vectors whose norms realize a signature pattern.

    Norms are arbitrary rationals of the correct signs (`int`s where a pairing
    gives them, see `QuadraticSpace.pairing`), positive first, then
    negative, then zero; the zero-norm vectors span the radical of the span.
    """

    vectors: tuple[Vector, ...]
    norms: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.vectors) != len(self.norms):
            raise linalg.ShapeError("one norm per vector required")
        order = [0 if x > 0 else (1 if x < 0 else 2) for x in self.norms]
        if order != sorted(order):
            raise PreconditionError("norms must come positive, then negative, then zero")

    @property
    def signature(self) -> Signature:
        return Signature(*linalg.sign_counts(self.norms))

    def positives(self) -> list[Vector]:
        return [v for v, m in zip(self.vectors, self.norms) if m > 0]

    def negatives(self) -> list[Vector]:
        return [v for v, m in zip(self.vectors, self.norms) if m < 0]

    def nulls(self) -> list[Vector]:
        return [v for v, m in zip(self.vectors, self.norms) if m == 0]

    def check(self, space: QuadraticSpace) -> None:
        """Verify orthogonality and the stored norms against a space, exactly."""
        gram = space.pairing(self.vectors, self.vectors)
        for i, row in enumerate(gram):
            if row[i] != self.norms[i]:
                raise PreconditionError(f"vector {i} has wrong norm")
            for j in range(i + 1, len(row)):
                if row[j] != 0:
                    raise PreconditionError(f"vectors {i}, {j} are not orthogonal")


# ---------------------------------------------------------------------------
# restriction, signature, radical


def restrict(space: QuadraticSpace, w: Subspace) -> Matrix:
    """Gram matrix of the form restricted to W, in the given basis of W."""
    if w.ambient_dim != space.dim:
        raise linalg.ShapeError("subspace ambient dimension mismatch")
    return space.pairing(w.basis, w.basis)


def signature(space: QuadraticSpace, w: Subspace | None = None) -> Signature:
    """Signature of the form on W (or on the whole space), basis independent."""
    if w is None:
        w = Subspace.full(space.dim)
    res = linalg.congruence_diagonalize(restrict(space, w))
    return Signature(*res.sign_counts())


def _annihilated(space: QuadraticSpace, xs: Sequence[Vector],
                 ws: Sequence[Vector]) -> list[Vector]:
    """The sums sum c_i w_i with c in the kernel of <xs, ws>: the vectors of span(ws)
    orthogonal to every x, a basis of them when the ws are independent."""
    return [linalg.combine(c, ws) for c in linalg.kernel(space.pairing(xs, ws))]


def radical(space: QuadraticSpace, w: Subspace | None = None) -> Subspace:
    """The subspace {v in W : <v, x> = 0 for all x in W}, in ambient coordinates.

    The kernel of W's Gram matrix mapped through W's basis, which is
    independent, so `_annihilated` of that basis against itself is a basis.
    With no W it is the whole space's, which `QuadraticSpace` caches.
    """
    if w is None:
        return space.ambient_radical()
    return Subspace._independent(space.dim, tuple(_annihilated(space, w.basis, w.basis)))


def refined_line_signature(space: QuadraticSpace, v_sub: Subspace, line: Subspace) -> LineSignature:
    """Classify a line inside V as spacelike, timelike, lightlike or radical.

    One `pairing` row of the line's vector v against v and V's basis gives
    the norm <v, v> and every pairing <v, b>, and `LineSignature.of` reads
    the type off them.
    """
    if line.dim != 1:
        raise PreconditionError("refined signature is defined for lines only")
    if v_sub.dim < 2:
        raise PreconditionError("surrounding subspace must have dimension >= 2")
    if not v_sub.contains_subspace(line):
        raise PreconditionError("line does not lie in the surrounding subspace")
    v = line.basis[0]
    norm, *pairings = space.pairing([v], [v, *v_sub.basis])[0]
    return LineSignature.of(norm, not any(pairings))


# ---------------------------------------------------------------------------
# flag orbit invariants


def flag_invariants(space: QuadraticSpace, f: Flag) -> FlagInvariants:
    """The complete orbit invariants of a flag under the isometry group.

    Requires a nondegenerate ambient form; returns the signatures of both
    flag parts plus dim(small cap rad(big)) = dim(small) - rank <small, big>,
    since sum c_i s_i lies in rad(big) iff c^T <small, big> = 0.  The rank is
    taken only when big is degenerate.
    """
    if f.big.ambient_dim != space.dim:
        raise linalg.ShapeError("flag ambient dimension mismatch")
    if not space.is_nondegenerate():
        raise PreconditionError("flag invariants require a nondegenerate ambient form")
    sig_big = signature(space, f.big)
    cap = f.small.dim - linalg.rank(space.pairing(f.small.basis, f.big.basis)) if sig_big.nul else 0
    return FlagInvariants(sig_big=sig_big, sig_small=signature(space, f.small),
                          dim_small_cap_rad=cap)


def flags_equivalent(space: QuadraticSpace, f1: Flag, f2: Flag) -> bool:
    """True iff the two flags lie in one orbit of the isometry group."""
    if f1.shape != f2.shape:
        raise linalg.ShapeError(f"flag shapes differ: {f1.shape} vs {f2.shape}")
    return flag_invariants(space, f1) == flag_invariants(space, f2)


def matsuki_data(f: Flag, p: int, q: int) -> MatsukiData:
    """The seven coordinate-splitting counts of a flag of type (1, p+q-2).

    big cap U+ is the kernel of the big basis cut to the - block, so
    c+ = dim big - rank of that cut, and c- likewise.  The line v lies in
    U+ or U- when one block of v is zero, and in (big cap U+) + (big cap U-)
    exactly when its + part (v+, 0) lies in big, since v - (v+, 0) = (0, v-).
    """
    linalg.require_ints(p=p, q=q)
    if p < 0 or q < 0:
        raise PreconditionError(f"signature ({p}, {q}) needs p, q >= 0")
    n = p + q
    if f.big.ambient_dim != n:
        raise linalg.ShapeError("flag ambient dimension is not p + q")
    if f.shape != (1, n - 2):
        raise linalg.ShapeError("seven-count data is defined for flags of type (1, n-2)")
    c_plus = n - 2 - linalg.rank([b[p:] for b in f.big.basis])
    c_minus = n - 2 - linalg.rank([b[:p] for b in f.big.basis])
    v = f.small.basis[0]
    d_plus = int(not any(v[p:]))
    d_minus = int(not any(v[:p]))
    d_pm = int(f.big.contains(v[:p] + (0,) * q))
    return MatsukiData(c_plus, c_minus, n - 2 - c_plus - c_minus,
                       d_plus, d_minus, 1 - d_plus - d_minus, d_pm)


# ---------------------------------------------------------------------------
# possible signature sets


# Signatures of codimension-two subspaces of a (p, q) space, as (dp, dq, u)
# for (p + dp, q + dq, u).  `heisenberg` numbers its taxonomy rows in this order.
CODIM2_PATTERNS: tuple[tuple[int, int, int], ...] = (
    (-2, 0, 0), (-1, -1, 0), (0, -2, 0),
    (-2, -1, 1), (-1, -2, 1), (-2, -2, 2),
)


def possible_codim2_signatures(p: int, q: int) -> set[Signature]:
    """All signatures realized by codimension-two subspaces of the standard (p, q) space."""
    linalg.require_ints(p=p, q=q)
    if p < 0 or q < 0 or p + q < 2:
        raise PreconditionError(f"signature ({p}, {q}) needs p, q >= 0 and p + q >= 2")
    return {Signature(p + dp, q + dq, u) for dp, dq, u in CODIM2_PATTERNS
            if p + dp >= 0 and q + dq >= 0}


def possible_line_signatures(s: int, t: int, u: int) -> set[LineSignature]:
    """All refined line signatures occurring inside a subspace of signature (s, t, u):
    the types whose `cells` fit in it."""
    linalg.require_ints(s=s, t=t, u=u)
    if s < 0 or t < 0 or u < 0 or s + t + u < 1:
        raise PreconditionError("need a valid signature with positive dimension")
    return {kind for kind in LineSignature
            if all(c <= have for c, have in zip(kind.cells, (s, t, u)))}


# ---------------------------------------------------------------------------
# constructive orthogonal systems


def _first_nonzero_index(v: Vector) -> int:
    return next((i for i, x in enumerate(v) if x != 0), len(v))


def scaled_system(space: QuadraticSpace, w: Subspace) -> ScaledSystem:
    """Orthogonal basis of W with norms ordered positive, negative, zero.

    W's basis is diagonalized as given, by one congruence of its Gram
    matrix; callers that want small entries hand in a reduced basis.  Each
    vector is the combination of W's basis by one content-free `int`
    column of the transform (`CongruenceResult.columns`, whose scale drops
    out), made primitive.  The norms are the diagonal of one `pairing` of
    these vectors.  The zero-norm vectors automatically span the radical of
    W.  Within each sign group, vectors are ordered by the position of their
    first nonzero coordinate, which makes the output deterministic.
    """
    res = linalg.congruence_diagonalize(restrict(space, w))
    vs = [linalg.primitive_vector(linalg.combine(c, w.basis)) for c, _, _ in res.columns]
    norms = [row[i] for i, row in enumerate(space.pairing(vs, vs))]
    ordered = sorted(zip(vs, norms), key=lambda vm: (
        0 if vm[1] > 0 else (1 if vm[1] < 0 else 2), _first_nonzero_index(vm[0])))
    return ScaledSystem(tuple(v for v, _ in ordered), tuple(m for _, m in ordered))


def lightlike_split(space: QuadraticSpace, v_sub: Subspace, v: Vector) -> tuple[Vector, Vector]:
    """Split a null vector v (outside rad V) as v = v_plus + v_minus.

    The two parts lie in V, are orthogonal, and have opposite nonzero norms
    of equal magnitude.  One `pairing` row of v against v and V's basis
    gives <v, v> and every <v, b>; w is the first basis vector with
    c := <v, w> != 0, and d := <w, w>.  The vector u := 2c w - d v is null,
    since <u, u> = 4c^2 d - 4c^2 d + d^2 <v, v> = 0, and <v, u> = 2c^2 > 0,
    so (v +- h)/2 is the wanted pair for h a positive multiple of u; its
    norms are +-<v, h>/2.  h is kept as a primitive integer vector so
    entries stay small: `primitive_vector(u)` is u / g, g the content of u
    with the sign of u's leading entry, so <v, u / g> = 2c^2 / g has that
    sign, and h is u / g negated when the leading entry of u is negative.
    No square roots are needed, and no pairing orients h.
    """
    if not v_sub.contains(v):
        raise PreconditionError("vector does not lie in the subspace")
    if linalg.is_zero_vector(v):
        raise PreconditionError("cannot split the zero vector")
    plus, minus, _ = _split_null(space, v_sub, v)
    return plus, minus


def _split_null(space: QuadraticSpace, v_sub: Subspace,
                v: Vector) -> tuple[Vector, Vector, int | Fraction]:
    """`lightlike_split` of a nonzero v in V, and the plus norm <v, h>/2.

    It checks that v is null and outside rad V, but not that v lies in V:
    `extend_basis` splits each null in an arena that holds it by
    construction.  h = u * (h_i / u_i) for the leading index i of u, so the
    plus norm <v, h>/2 = c^2 h_i / u_i, with no pairing.
    """
    norm, *pairings = space.pairing([v], [v, *v_sub.basis])[0]
    if norm != 0:
        raise PreconditionError("vector is not null")
    c, w = next(((c, b) for c, b in zip(pairings, v_sub.basis) if c), (0, None))
    if w is None:
        raise PreconditionError("vector lies in the radical of the subspace")
    u = linalg.combine((2 * c, -space.inner(w, w)), (w, v))
    h = linalg.primitive_vector(u)
    i = _first_nonzero_index(u)
    if u[i] < 0:
        h = linalg.vec_scale(-1, h)
    half = linalg.ratio(1, 2)
    plus = linalg.combine((half, half), (v, h))
    return plus, linalg.vec_sub(v, plus), linalg.ratio(c * c * h[i], u[i])


def _perp_within(space: QuadraticSpace, ambient_sub: Subspace, vectors: Sequence[Vector]) -> Subspace:
    """{u in ambient_sub : <u, v> = 0 for all given v}, in ambient coordinates."""
    if not vectors:
        return ambient_sub
    ambient = _annihilated(space, vectors, ambient_sub.basis)
    return Subspace._independent(space.dim, tuple(linalg.lll_reduce(linalg.row_space(ambient))))


def extend_nullsystem(space: QuadraticSpace, nulls: Sequence[Vector]) -> ScaledSystem:
    """Extend pairwise-orthogonal independent null vectors to a full scaled basis.

    The ambient form must be nondegenerate.  The result lists positives
    x_1..x_p then negatives y_1..y_q, with nulls[i] = x_i + y_i exactly and
    <x_i, x_i> = -<y_i, y_i> > 0 for the split pairs: `extend_basis` of the
    all-null system of span(nulls), whose checks refuse the nulls: its
    `ScaledSystem.check` names a null that is not null or a pair that is not
    orthogonal, and its rank of the null block names dependent nulls.
    """
    nulls = tuple(map(tuple, linalg.mat(nulls)))
    if not space.is_nondegenerate():
        raise PreconditionError("ambient form must be nondegenerate")
    return extend_basis(space, ScaledSystem(nulls, (0,) * len(nulls)))


def extend_basis(space: QuadraticSpace, w_system: ScaledSystem) -> ScaledSystem:
    """Extend a scaled system of independent vectors, spanning W, to the whole space.

    Its null vectors must be ordered so the ones lying in the ambient
    radical come last, and the others must be independent modulo that
    radical: no combination of them may lie in it.  Writing the input as
    x_1..x_s, y_1..y_t, z_1..z_u (k of the z's ambient-radical), the output
    alpha_1..alpha_p, beta_1..beta_q, gamma_1..gamma_r satisfies

        x_i = alpha_i,  y_i = beta_i,
        z_i = alpha_{s+i} + beta_{t+i}   (i <= u - k),
        z_{u-k+i} = gamma_i              (i <= k).

    Only the null block is ranked.  Once `ScaledSystem.check` has shown that
    the system's Gram matrix is diag(norms), pairing a dependence
    sum a_i x_i + sum b_i y_i + sum c_i z_i = 0 with x_j leaves
    a_j <x_j, x_j> = 0, so a_j = 0 since that norm is nonzero, and likewise
    every b_j = 0.  So the system is independent exactly when its z's are.

    A degenerate space reads which z's lie in its radical, ker G, off one
    `pairing` of the z's with the unit vectors: z is radical when G z = 0.
    It then searches a complement U of its radical that holds the x's, y's
    and non-radical z's: one elimination grows them by unit vectors.  A
    nondegenerate space skips the search, and its output is the one the
    search gives.  Its radical is zero, so no z lies in it, no gamma is
    made, and independence modulo the radical is the independence just
    shown: neither check of the search can fail.  U is the whole
    space, and the unit basis stands for it.  U's basis is read only where
    the arena starts: `_perp_within(U, xs + ys)` returns
    `lll_reduce(row_space(...))`, and `row_space` is the canonical
    content-free reduced echelon basis of the span, so from there on
    everything depends on spans alone.  With no x or y the arena is U as
    given.  With no z either, the search's U is the units.  With one z it
    is z and the units but e_l, l the last index with z_l != 0, and
    `_split_null` takes from it the first vector that pairs with z.
    z pairs with itself to 0, and for g = G z, if g_j = 0 for all j < l
    then <z, z> = z_l g_l != 0, so the first e_j with g_j != 0 is not e_l;
    both bases give the same unit and so the same split.  Two or more z's
    peel the arena by `_perp_within` first.

    A split pair (z + h)/2, (z - h)/2 of `_split_null` has the norms
    +-<z, h>/2 exactly: the split returns the plus norm, and the minus norm
    is its negation, so no pair is paired again.
    """
    n = space.dim
    w_system.check(space)

    xs = w_system.positives()
    ys = w_system.negatives()
    zs = w_system.nulls()
    if zs and linalg.rank(zs) != len(zs):
        raise PreconditionError("system vectors must be linearly independent")

    rad_v = space.ambient_radical()
    if rad_v.dim:
        # z lies in rad V = ker G exactly when G z, its pairings with the units, is 0
        units = [tuple(row) for row in linalg.identity(n)]
        in_rad = [not any(row) for row in space.pairing(zs, units)]
        if in_rad != sorted(in_rad):
            raise PreconditionError("ambient-radical null vectors must come last")
        k = len(zs) - sum(in_rad)
        z_split, z_rad = zs[:k], zs[k:]

        # complement U of the ambient radical containing the non-radical part; it
        # exists exactly when the elimination keeps all of that part
        head = xs + ys + z_split
        u_basis = linalg.extend_to_independent(list(rad_v.basis), head + units, n)[rad_v.dim:]
        if u_basis[:len(head)] != head:
            raise PreconditionError(
                "null vectors outside the ambient radical must be independent modulo it")
        u_sub = Subspace._independent(n, tuple(u_basis))
        gammas = linalg.extend_to_independent(z_rad, list(rad_v.basis), rad_v.dim)
    else:
        # no radical: U is the whole space, and an independent system is
        # independent modulo the radical
        z_split, gammas, u_sub = zs, [], Subspace.full(n)

    # split each null into a +1/-1 pair, peeling its plane off the arena; z lies in
    # U, is orthogonal to the xs, ys and the other zs, and each earlier pair was
    # split inside the perp of z, so the arena holds z and no rank checks it
    arena = _perp_within(space, u_sub, xs + ys)
    pairs = []
    for i, z in enumerate(z_split):
        pairs.append(_split_null(space, _perp_within(space, arena, z_split[i + 1:]), z))
        arena = _perp_within(space, arena, pairs[-1][:2])
    fill = scaled_system(space, arena)
    if fill.signature.nul:
        raise PreconditionError("complement of the radical is unexpectedly degenerate")

    alphas = xs + [p for p, _, _ in pairs] + fill.positives()
    betas = ys + [m for _, m, _ in pairs] + fill.negatives()
    halves = [half for _, _, half in pairs]  # <z, h>/2; the minus norm is its negation
    pos_norms = [m for m in w_system.norms if m > 0] + halves + [m for m in fill.norms if m > 0]
    neg_norms = ([m for m in w_system.norms if m < 0] + [-m for m in halves]
                 + [m for m in fill.norms if m < 0])
    return ScaledSystem(tuple(alphas + betas + gammas),
                        tuple(pos_norms + neg_norms + [0] * len(gammas)))


def _orient_frame(vectors: Sequence[Vector], pair_slots: list[tuple[int, int]]) -> list[Vector]:
    """Frame columns with positive leading entries; their norms are unchanged.

    A column whose leading entry is negative is negated.  A hyperbolic pair
    is negated jointly, going by its first member, so that the sum patterns
    spanning the flag parts survive.  No column is rescaled: scaling one by
    a > 0 scales its norm by a^2, and the square root of the norm ratio in
    an isometry witness absorbs the factor a.
    """
    decider = list(range(len(vectors)))  # the column whose leading sign each follows
    for ia, ib in pair_slots:
        decider[ib] = ia
    return [v if next(x for x in vectors[d] if x) > 0 else linalg.vec_scale(-1, v)
            for v, d in zip(vectors, decider)]


def adapted_frame(space: QuadraticSpace, f: Flag) -> ScaledSystem:
    """Scaled basis of the whole space adapted to the flag.

    The ambient form must be nondegenerate (PreconditionError otherwise).
    The system is laid out as `extend_basis` lays out its output: the
    positive-norm vectors, then the negative-norm ones.  Both flag parts
    are spanned by fixed coefficient patterns in it, which the flag
    invariants alone determine.  Each null vector that an extension splits
    is the sum x + y of a pair with <x, x> = -<y, y>, and each such pair is
    oriented as one.
    """
    # a lattice-reduced big basis keeps the exact construction well
    # conditioned; the small part is diagonalized from its row space
    big = Subspace._independent(f.big.ambient_dim,
                                tuple(linalg.lll_reduce(linalg.row_space(f.big.basis))))

    # system of the small part, its null block reordered so that the
    # rad(big) members come last
    small = Subspace._independent(space.dim, tuple(linalg.row_space(f.small.basis)))
    sys_small = scaled_system(space, small)
    nulls = sys_small.nulls()
    cap = linalg.row_space(_annihilated(space, big.basis, nulls)) if nulls else []
    if cap:
        reordered = linalg.extend_to_independent(cap, nulls, len(nulls))
        nulls = reordered[len(cap):] + reordered[: len(cap)]
    sys_small = ScaledSystem(tuple(sys_small.positives() + sys_small.negatives() + nulls),
                             sys_small.norms)

    # extend to a system of the big part, working in big coordinates
    # `restrict` returns canonical entries, which the space stores as they are
    space_big = QuadraticSpace(tuple(map(tuple, restrict(space, big))))
    sys_small_b = ScaledSystem(tuple(big.coordinates_of(v) for v in sys_small.vectors),
                               sys_small.norms)
    sys_big_b = extend_basis(space_big, sys_small_b)
    sys_big = ScaledSystem(tuple(linalg.combine(c, big.basis) for c in sys_big_b.vectors),
                           sys_big_b.norms)

    # extend to the whole (nondegenerate) space: every null of big splits
    full = extend_basis(space, sys_big)
    if full.signature.nul:
        raise PreconditionError("ambient form must be nondegenerate")

    # hyperbolic-pair slots carry the sum patterns of both flag parts
    s_sm, t_sm, u_sm = sys_small.signature.as_tuple()
    s_bg, t_bg, u_bg = sys_big.signature.as_tuple()
    p_full = full.signature.pos
    pair_slots = ([(s_sm + i, p_full + t_sm + i) for i in range(u_sm - len(cap))]
                  + [(s_bg + i, p_full + t_bg + i) for i in range(u_bg)])
    return ScaledSystem(tuple(_orient_frame(full.vectors, pair_slots)), full.norms)


def subspaces_equivalent(space: QuadraticSpace, u_sub: Subspace, w_sub: Subspace) -> bool:
    """True iff some linear isometry of the space maps one subspace onto the other.

    Works for degenerate ambient forms: the criterion is equal signatures
    plus equal intersection dimension with the ambient radical.  That
    dimension is dim U - rank <U, V> for the whole space V, and equal
    signatures give equal dimensions, so the ranks are compared.
    """
    if u_sub.ambient_dim != space.dim or w_sub.ambient_dim != space.dim:
        raise linalg.ShapeError("subspace ambient dimension mismatch")
    if signature(space, u_sub) != signature(space, w_sub):
        return False
    if space.is_nondegenerate():
        return True
    units = Subspace.full(space.dim).basis
    return (linalg.rank(space.pairing(u_sub.basis, units))
            == linalg.rank(space.pairing(w_sub.basis, units)))
