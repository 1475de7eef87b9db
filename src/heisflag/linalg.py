"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists and vectors are tuples.  Input entries may
be `int` or `fractions.Fraction`.  One rule holds for every exact result,
here and in the package: it is canonical, an `int` where the value is an
integer and a `Fraction` (denominator > 1) where it is not.  Its home is
`ratio(a, b)`, the one true division and the one maker of a `Fraction`, so
no quotient of two `int`s becomes a float and no integer is boxed; the
readers `mat` and `vec` write an integral `Fraction` as its `int`.
(`integer_inverse` returns an `int` matrix and its denominator.)
All routines are pure and exact: no floating point, no tolerances.
This module is the one exact input boundary, and a public routine reads
each operand once: `shape` once for its row lengths, then its entries once.
An entry is an `int` or a `Fraction`; `bool` is an `int` (True is 1) and is
read as one.  Any other entry (a float, a str, None) raises
`EntryTypeError`, a `ShapeError` that names its position and type, from
`_int_rows`, the one entry reader: it scales each row to integers, and every
elimination, `mat`, `vec`, `combine`, `scaled_to_int`, `read_gram`,
`bilinear`, `primitive_vector` and `lll_reduce` read entries through it
alone, so none of them parses a string or a float.  `combine` reads
[coeffs, *vectors] as one matrix, so every entry is read, a zero one and
the vector of a zero coefficient included.  `shape` is the one reader of
row lengths: every check of a matrix's dimensions, and of rows of one
length, goes through it, so a matrix or a row that is not a sequence (a
number, None, a set or a dict) raises a `ShapeError` that names it.  A vector argument's length is read
once as well, and one that is not a sequence is named as that argument.
`require_ints` names an integer parameter that is not an `int`, and
`read_gram` is the one Gram reader: it returns L * M as `int` rows and L
after the one square-and-symmetric check.
The private workers take what a public routine has read: `_forward`,
`_reduce` and `_bilinear_sums` run on `int` rows, and `_int_rows` reads
entries after `shape` has read the rows.
`combine` sums in `int`: all-`int` input as it is, after a type test at C
speed (`_INTS.issuperset(map(type, v))`), and any other input as the rows
that `_int_rows` reads, over the lcm of the scales of its nonzero
coefficients, by which `ratio` divides each finished entry once; zero
coefficients are skipped, so `int`s flow on to the next product.
`bilinear` reads M once as `int` rows and hands them to `_bilinear_sums`,
which reads xs and ys once each, sums in `int` and divides each entry by
its scale once.  `forms.QuadraticSpace` reads its Gram matrix once,
through `read_gram`, and every pairing hands the kept rows (and their
diagonal, when the matrix is diagonal) to the same worker.
One fraction-free elimination serves `rank`, `kernel`, `row_space`,
`solve`, `integer_inverse` and `extend_to_independent`: `_forward` takes
the rows scaled to integers by `_int_rows` and replaces a row by
(p * row - x * pivot row) / content, and `_reduce` clears upwards the same
way.  It keeps only rows and pivot columns: nothing here needs a
determinant.  Dividing by the content, not by the previous pivot as
Bareiss does, keeps each row no larger than the rational row over a common
denominator.  `kernel` and `row_space` return the content-free `int` rows;
`solve` divides the last entry of each reduced row of [A | b] by its pivot.
The inverse is read off the reduced rows of [M | e_u ...] by
`_inverse_rows`, which appends only the unit columns its caller asks for
and calls M singular when the left half has fewer than n pivots:
`integer_inverse` appends all n and keeps the inverse in `int` as M / d,
with d the lcm of the pivots, for callers that go on multiplying in `int`
(the group action and the Cayley samplers), and the curvature report
appends e_a and e_b alone, for the two columns of G^{-1} it reads.  No
routine here returns a `Fraction` inverse.
Signatures of symmetric matrices are obtained by congruence (never from
eigenvalues): `congruence_diagonalize` is one symmetric elimination on
content-reduced integer rows, each update computed on the upper triangle
and mirrored.  It records only `int`s: each pivot step's direction, pivot
and content divisor, and each clear move's pivot and numerators.  A
signature is read off the pivots' signs, so `classify_metric` and
`forms.signature` build no rational.  The diagonal, that of the same
elimination over Q, and the columns of the transform P are built when a
caller first reads them: the record is replayed into content-free `int`
columns, one rational scale each, which `forms.scaled_system` reads as
they are and `transform` divides once.  It divides by the content, not by
the previous pivot as Bareiss does, for the reason `_forward` does.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul

Vector = tuple[int | Fraction, ...]  # canonical: `int` where integral
Matrix = list[list[int | Fraction]]

LLL_DELTA = (3, 4)  # Lovasz condition constant 3/4 of `lll_reduce`, as (numerator, denominator)
_SEQUENCES = frozenset((list, tuple))  # the row and vector types read without an isinstance test
_INTS = frozenset((int,))  # `_INTS.issuperset(map(type, v))`: every entry of v an `int`, read at C speed


class ShapeError(ValueError):
    """Malformed input: wrong dimensions, missing symmetry or an entry of the wrong type."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class EntryTypeError(ShapeError):
    """An entry that is neither an `int` nor a `Fraction`, named by its position and type."""


class GramError(ShapeError, PreconditionError):
    """A Gram matrix that is not square or not symmetric."""


def _a(x) -> str:
    """The name of x's type with its indefinite article: "a float", "an int"."""
    name = type(x).__name__
    return f"{'an' if name[0] in 'aeiouAEIOU' else 'a'} {name}"


def _entry_error(m) -> ShapeError:
    """The error for a matrix that could not be read: m itself or the first row of
    m that is not a sequence, or else the first entry that is not an `int` or a
    `Fraction`."""
    if not isinstance(m, Sequence):
        return ShapeError(f"a matrix is a sequence of rows, not {_a(m)}")
    for i, row in enumerate(m):
        if not isinstance(row, Sequence):
            return ShapeError(f"row {i} is {_a(row)}, not a sequence")
    i, j, x = next((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row)
                   if not isinstance(x, (int, Fraction)))
    return EntryTypeError(f"entry ({i}, {j}) is {_a(x)}, not an int or a Fraction")


def ratio(a, b) -> int | Fraction:
    """a / b for `int` or `Fraction` a and b, canonical: an `int` when b divides a, else
    the exact `Fraction`.  The package's one true division and its one maker of rationals,
    so that no quotient of two `int`s becomes a float and no integer is boxed."""
    n, d = a.numerator * b.denominator, a.denominator * b.numerator
    return Fraction(n, d) if n % d else n // d


def require_ints(**params) -> None:
    """Raise PreconditionError naming the first parameter that is not an `int`."""
    for name, value in params.items():
        if not isinstance(value, int):
            raise PreconditionError(f"{name} must be an int, not a {type(value).__name__}")


def read_gram(m: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(L * M as `int` rows, L) as `scaled_to_int` reads them, after the one Gram check:
    GramError unless M is square and symmetric, its fault named after the check fails."""
    n, c = shape(m)
    a, scale = _scaled(m)
    if n == c and all(tuple(row) == col for row, col in zip(a, zip(*a))):
        return a, scale
    fault = (f"{n} rows of length {c}" if n != c else next(
        f"entries ({i}, {j}) and ({j}, {i}) differ"
        for i in range(n) for j in range(i) if a[i][j] != a[j][i]))
    raise GramError(f"Gram matrix must be symmetric and square: {fault}")


def mat(rows: Sequence[Sequence]) -> Matrix:
    """The rows as lists of canonical entries, read by `_int_rows`: a row of scale 1 is
    its `int`s, and a row of `int`s x over scale s is written as the entries ratio(x, s)."""
    shape(rows)
    return [row if s == 1 else [ratio(x, s) for x in row] for row, s in zip(*_int_rows(rows))]


def vec(entries: Sequence | Iterator) -> Vector:
    """The entries, a sequence or an iterator read once, as a tuple of canonical entries."""
    return tuple(mat([tuple(entries) if isinstance(entries, Iterator) else entries])[0])


def zeros(r: int, c: int) -> Matrix:
    require_ints(rows=r, columns=c)
    if r < 0 or c < 0:
        raise ShapeError(f"no matrix has {r} rows and {c} columns")
    return [[0] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def diag(values: Sequence | Iterator) -> Matrix:
    """The diagonal matrix of the values, read by `vec`."""
    vals = vec(values)
    m = zeros(len(vals), len(vals))
    for i, v in enumerate(vals):
        m[i][i] = v
    return m


def shape(m: Sequence[Sequence]) -> tuple[int, int]:
    """(rows, columns): the one reader of row lengths, 0 columns for no rows.

    It reads the type and `len` of m and of every row: a matrix or a row
    that is not a sequence (a set or dict is none) raises the `ShapeError`
    of `_entry_error`, which names it; rows of unequal length raise one too.
    """
    if type(m) not in _SEQUENCES and not isinstance(m, Sequence):
        raise _entry_error(m)
    rows = len(m)
    if not _SEQUENCES.issuperset(map(type, m)) and not all(isinstance(row, Sequence) for row in m):
        raise _entry_error(m)
    lengths = set(map(len, m))
    if len(lengths) > 1:
        raise ShapeError(f"rows of lengths {sorted(lengths)} in one matrix: a row of the "
                         f"wrong length, where every row must have one length")
    return rows, lengths.pop() if lengths else 0


def _vector_length(v: Sequence, name: str) -> int:
    """len(v), for the vector argument `name`; one that is not a sequence (a number,
    None, a set or a dict) raises `ShapeError` naming it."""
    if type(v) in _SEQUENCES or isinstance(v, Sequence):
        return len(v)
    raise ShapeError(f"{name} must be a vector, a sequence of entries, not {_a(v)}")


def transpose(m: Matrix) -> Matrix:
    shape(m)
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """AB: row i is the combination sum_k a_ik b_k of the rows of B, by `combine`."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return [list(combine(row, b)) for row in a]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Mv: the combination sum_k v_k m_k of the columns of M, by `combine` (r x 0: zeros)."""
    r, c = shape(m)
    k = _vector_length(v, "v")
    if c != k:
        raise ShapeError(f"cannot apply {r}x{c} to vector of length {k}")
    return combine(v, transpose(m)) if c else (0,) * r


def vec_add(u: Vector, v: Vector) -> Vector:
    return combine((1, 1), (u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return combine((1, -1), (u, v))


def vec_scale(c, v: Vector) -> Vector:
    return combine((c,), (v,))


def combine(coeffs: Sequence, vectors: Sequence[Sequence]) -> Vector:
    """The combination sum_k c_k v_k as canonical entries, summed in `int`, skipping
    zero coefficients.

    When every coefficient and every vector entry is an `int`, a test of
    the entry types at C speed (`_INTS.issuperset(map(type, ...))`) sends
    the sum straight to `_int_sum`.  Otherwise `_int_rows` reads the
    coefficients and the vectors as one matrix [coeffs, *vectors]: c_k =
    C_k / s and v_k = V_k / s_k in `int`s, every entry read, the vector of
    a zero coefficient included.  The sum is then one `_int_sum` of the V_k
    times C_k (D / s_k), D the lcm of the s_k of the nonzero coefficients,
    and `ratio` divides each finished entry by s D once.
    Either way an integral entry comes back as an `int`, so a caller can
    feed the entries to another sum.  An entry that is neither an `int` nor
    has a denominator raises `EntryTypeError`, at position (0, k) for
    coefficient k and (k + 1, j) for entry j of vector k.
    """
    k = _vector_length(coeffs, "coeffs")
    rows, length = shape(vectors)
    if k != rows:
        raise ShapeError(f"{k} coefficients for {rows} vectors")
    if _INTS.issuperset(map(type, chain(coeffs, *vectors))):
        return tuple(_int_sum(coeffs, vectors, length))
    (cs, *vs), (scale, *scales) = _int_rows([coeffs, *vectors])
    den = lcm(*(s for c, s in zip(cs, scales) if c))
    acc = _int_sum([c * (den // s) for c, s in zip(cs, scales)], vs, length)
    den *= scale
    return tuple(acc) if den == 1 else tuple(ratio(a, den) for a in acc)


def _int_sum(coeffs: Iterable[int], rows: Iterable[Sequence[int]], length: int) -> list[int]:
    """sum_k c_k row_k as `length` `int`s (the first `length` entries of longer rows),
    skipping zero coefficients: the one loop that sums rows, for `combine`, the rows
    x^T (L M) of `_bilinear_sums` and `heisenberg.act_on_metric`, on `int`s they have read."""
    acc = [0] * length
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * x for a, x in zip(acc, row)]
    return acc


def bilinear(xs: Sequence[Sequence], m: Matrix, ys: Sequence[Sequence]) -> Matrix:
    """The matrix of x^T M y for x in xs (rows) and y in ys (columns).

    M is read once, after `shape`, as L * M in `int` rows (`_scaled`), and
    `_bilinear_sums` reads xs and ys and sums.  The row length is len(ys) even
    when M is 0 x 0.
    """
    dims = shape(m)
    return _bilinear_sums(xs, *_scaled(m), ys, dims)


def _bilinear_sums(xs: Sequence[Sequence], a: list[list[int]], scale: int,
                   ys: Sequence[Sequence], dims: tuple[int, int],
                   diagonal: Sequence[int] | None = None) -> Matrix:
    """x^T M y for x in xs and y in ys, on a read r x c matrix M = a / scale, a
    the `int` rows of L * M and `diagonal` their diagonal when M is diagonal.

    The sums of `bilinear` and `QuadraticSpace.pairing`, which read M once
    and hand its rows in.  It reads xs and ys, `shape` and then each x and
    each y times the lcm of its own denominators, d_x and d_y (`_int_rows`);
    when ys is xs, as in every Gram matrix of a basis, they are read once.
    Row x^T (L M) is the elementwise product with `diagonal`, or else the
    rows of a summed by x's nonzero coordinates (`_int_sum`); entry (x, y)
    is its `int` dot product with y, which `ratio` divides by L d_x d_y once.
    """
    r, c = dims
    nx, cx = shape(xs)
    ny, cy = (nx, cx) if ys is xs else shape(ys)
    if nx and cx != r or ny and cy != c:
        raise ShapeError(f"vector length does not match the {r}x{c} matrix")
    x_rows, x_scales = _int_rows(xs)
    y_rows, y_scales = (x_rows, x_scales) if ys is xs else _int_rows(ys)
    y_ints = max(y_scales, default=1) == 1
    out = []
    for x, dx in zip(x_rows, x_scales):
        xm = list(map(mul, diagonal, x)) if diagonal is not None else _int_sum(x, a, c)
        acc = [sum(map(mul, xm, y)) for y in y_rows]
        d = dx * scale
        out.append(acc if d == 1 and y_ints else [ratio(u, d * dy) for u, dy in zip(acc, y_scales)])
    return out


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


def _content_free(ints: list[int]) -> list[int]:
    """Integers divided by their content (their gcd), the leading nonzero one made positive."""
    g = gcd(*ints)
    if g and next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints] if g else ints


def primitive_vector(v: Vector) -> Vector:
    """Rational rescaling of v to coprime `int` entries, leading entry positive, computed
    in `int` off the entries scaled by their common denominator; zeros stay `int` zeros."""
    shape([v])
    return tuple(_content_free(_int_rows([v])[0][0]))


def _int_rows(m: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """(rows, scales): row i of m times scales[i], the lcm of its denominators, in `int`s.

    The one entry reader, after `shape` has read the rows; the rows are new
    lists, which an elimination may change.  A row of `int`s is copied as it
    is; any other row is read off its entries' numerators and denominators
    in one pass inside a `try`.  An entry with no denominator fails that
    pass, and only then is its position searched for `EntryTypeError`.
    """
    rows, scales = [], []
    try:
        for row in m:
            if _INTS.issuperset(map(type, row)):
                rows.append(list(row))
                scales.append(1)
                continue
            d = lcm(*(x.denominator for x in row))
            rows.append([x.numerator for x in row] if d == 1
                        else [x.numerator * (d // x.denominator) for x in row])
            scales.append(d)
    except (AttributeError, TypeError):
        raise _entry_error(m) from None
    return rows, scales


def scaled_to_int(m: Matrix) -> tuple[list[list[int]], int]:
    """(L * M as `int` rows, L), L the lcm of all of M's denominators."""
    shape(m)
    return _scaled(m)


def _scaled(m: Matrix) -> tuple[list[list[int]], int]:
    """`scaled_to_int` after `shape` has read m: the rows of `_int_rows`, each
    brought to the common scale."""
    rows, scales = _int_rows(m)
    scale = lcm(*scales)
    if scale == 1:
        return rows, 1
    for i, d in enumerate(scales):
        if d != scale:
            f = scale // d
            rows[i] = [x * f for x in rows[i]]
    return rows, scale


def sign_counts(values: Iterable[Fraction]) -> tuple[int, int, int]:
    """The numbers of positive, negative and zero values."""
    values = list(values)
    pos = sum(1 for d in values if d > 0)
    neg = sum(1 for d in values if d < 0)
    return pos, neg, len(values) - pos - neg


def _pivot_counts(pivots: Sequence[tuple[int, int, int]], size: int) -> tuple[int, int, int]:
    """Sign counts of `size` directions whose pivot steps (k, p, g) are `pivots`: the diagonal
    entry p / c has the sign of p, as c > 0, and a direction with no step is null."""
    pos = sum(1 for _, p, _ in pivots if p > 0)
    return pos, len(pivots) - pos, size - len(pivots)


@dataclass(frozen=True, eq=False, repr=False)
class CongruenceResult:
    """A rational congruence P^T S P = diag(D), recorded in `int`.

    The elimination runs on integer rows A = c * S, c > 0 a rational
    scale, and the record holds only integers: the lcm `_scale` of the
    input's denominators (the first c), for each pivot step the direction
    k, the pivot p and the content g that divided the update (0 for a step
    with nothing left to clear, which leaves c alone), and the moves, each
    clear with its pivot and the numerators -x_i.  `sign_counts()` and
    `leading_counts` read the pivots' signs (`_pivot_counts`), so counting
    signs builds no rational.
    The rest is built on first read, each a `cached_property`:
    `diagonal` replays c from `_scale` and each step's |p| and g, giving
    D_k = p / c.  `columns` replays P from the record in `int`: the moves
    are the basis changes in order, ("swap", k, j) exchanging b_k and b_j,
    ("pair", k, j) replacing them by b_k + b_j and b_k - b_j, and a clear
    adding -x_i / p times b_k to each b_i.  Column j of P is kept as
    (C, a, b), the column (a / b) C with C a content-free `int` column
    whose leading entry is positive and a / b in lowest terms, b > 0; each
    move sums two columns over one common denominator (`_column_sum`).
    `transform` is P itself, each column divided once by `ratio`.  In each
    ratio the scale cancels, so these are the rationals of the same
    elimination over Q, each canonical.
    `leading_counts` are the sign counts of the leading block named by
    `leading`; without one, the whole matrix's.  Two results are equal
    when their diagonals and leading counts are.
    """

    leading_counts: tuple[int, int, int]
    _n: int
    _scale: int
    _pivots: tuple[tuple[int, int, int], ...]  # (k, p, g) per pivot step
    _record: tuple[tuple, ...]  # the moves in order, a clear as ("clear", k, p, ((i, -x_i), ...))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CongruenceResult):
            return NotImplemented
        return self.leading_counts == other.leading_counts and self.diagonal == other.diagonal

    def __hash__(self) -> int:
        return hash((self.diagonal, self.leading_counts))

    def __repr__(self) -> str:
        return (f"CongruenceResult(diagonal={self.diagonal!r}, "
                f"leading_counts={self.leading_counts!r})")

    def sign_counts(self) -> tuple[int, int, int]:
        return _pivot_counts(self._pivots, self._n)

    @cached_property
    def diagonal(self) -> Vector:
        diagonal = [0] * self._n
        c = self._scale
        for k, p, g in self._pivots:
            diagonal[k] = ratio(p, c)
            if g:
                c = ratio(c * abs(p), g)
        return tuple(diagonal)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        cols = [([int(r == j) for r in range(self._n)], 1, 1) for j in range(self._n)]
        for kind, k, arg, *clears in self._record:
            if kind == "swap":
                cols[k], cols[arg] = cols[arg], cols[k]
            elif kind == "pair":
                ck, cj = cols[k], cols[arg]
                cols[k], cols[arg] = _column_sum(ck, cj, 1, 1), _column_sum(ck, cj, -1, 1)
            else:  # arg is the pivot p, and b_i gains -x_i / p times b_k
                for i, x in clears[0]:
                    cols[i] = _column_sum(cols[i], cols[k], x, arg)
        return tuple((tuple(c), a, b) for c, a, b in cols)

    @cached_property
    def transform(self) -> Matrix:
        return transpose([[ratio(a * x, b) for x in c] for c, a, b in self.columns])


def _column_sum(u: tuple, v: tuple, num: int, den: int) -> tuple[list[int], int, int]:
    """u + (num / den) v for columns (C, a, b) = (a / b) C of `CongruenceResult.columns`,
    summed in `int` over one common denominator and written the same way: C content-free
    with its leading entry positive, a / b in lowest terms with b > 0."""
    (cu, au, bu), (cv, av, bv) = u, v
    n, d = num * av, den * bv
    if d < 0:
        n, d = -n, -d
    common = lcm(bu, d)
    s, t = au * (common // bu), n * (common // d)
    w = [s * x + t * y for x, y in zip(cu, cv)]
    c = _content_free(w)
    g = next(x // y for x, y in zip(w, c) if y)
    h = gcd(g, common)
    return c, g // h, common // h


def congruence_diagonalize(s: Matrix, leading: int | None = None) -> CongruenceResult:
    """Diagonalize a symmetric matrix by a rational congruence.

    One symmetric elimination on integer rows.  The input is scaled once by
    the lcm of all its denominators, by `read_gram`, which checks that copy.
    The block not yet eliminated is kept as integers A = c * S, where S is
    the rational block and c > 0 a rational scale.  A nonzero pivot p with
    row x (A's entries beside it) records the step (k, p, g) and the clear
    move (p, -x_i), from which `CongruenceResult` builds the diagonal entry
    p / c = S_kk and the factors -x_i / p = -S_ik / S_kk on first read.  It
    replaces the rest of the block by (p * A - x x^T) / (sign(p) * g), g
    the content of p * A - x x^T, so that c becomes c * |p| / g; a unit
    pivot takes the same update.  The update is computed, scanned for its
    content and divided on the upper triangle (j >= i) alone, which holds
    every entry once, and then mirrored to the lower one.  Dividing by the
    content, not by the previous pivot as Bareiss does, leaves A the
    primitive integer multiple of S after each division, so no entry
    carries the scalings of earlier steps the way a whole minor does: on
    the n = 32 classify input a Bareiss variant is some 25 times slower.
    Zero pivots never force square roots: if a zero a_kk pairs with a later
    j, b_k and b_j swap when a_jj is nonzero, and otherwise
    (b_k, b_j) -> (b_k+b_j, b_k-b_j) manufactures pivots +-2*a_kj; a
    direction orthogonal to all later ones stays null.  Both moves act on
    the full integer rows and keep c.  Diagonal entries are left
    unnormalized; only their signs carry the signature.

    With `leading` = m, the first m directions look for zero-pivot partners
    among themselves only, so the first m pivot steps then diagonalize
    the leading m x m block and give `leading_counts`.  A leading direction
    left null there stays in the block, with zeros against every later
    leading direction, so each later pivot only scales its row, and it is
    finished afterwards against the trailing ones.  The full diagonal gives
    the whole matrix's signature either way.
    """
    a, scale = read_gram(s)
    n = len(a)
    m = n if leading is None else leading
    require_ints(leading=m)
    if not 0 <= m <= n:
        raise ShapeError(f"leading block size {m} outside 0..{n}")

    # a is the block not yet eliminated, c * S; its position t holds direction order[t]
    order = list(range(n))
    pivots: list[tuple[int, int, int]] = []
    moves: list[tuple] = []

    def eliminate(t: int, partners: range) -> bool:
        """Pivot on block position t and drop it; False, with no change, if it stays null."""
        row = a[t]
        if not row[t]:
            u = next((u for u in partners if row[u]), None)
            if u is None:
                return False
            if a[u][u]:
                a[t], a[u] = a[u], a[t]
                for r in a:
                    r[t], r[u] = r[u], r[t]
                moves.append(("swap", order[t], order[u]))
            else:
                akj = row[u]
                ru = a[u]
                for i, r in enumerate(a):
                    if i != t and i != u:
                        x, y = r[t], r[u]
                        r[t] = row[i] = x + y
                        r[u] = ru[i] = x - y
                row[t], ru[u] = 2 * akj, -2 * akj
                row[u] = ru[t] = 0
                moves.append(("pair", order[t], order[u]))
        k = order.pop(t)
        x = a.pop(t)
        p = x.pop(t)
        for r in a:
            del r[t]
        clears = tuple((order[i], -xi) for i, xi in enumerate(x) if xi)
        if not clears:
            pivots.append((k, p, 0))
            return True
        moves.append(("clear", k, p, clears))
        upper = [[p * y - xi * xj for y, xj in zip(r[i:], x[i:])] if xi else [p * y for y in r[i:]]
                 for i, (r, xi) in enumerate(zip(a, x))]
        g = 0
        for r in upper:
            g = gcd(g, *r)
            if g == 1:
                break
        g = g or 1
        d = g if p > 0 else -g
        a.clear()
        for i, r in enumerate(upper):
            a.append([above[i] for above in a] + (r if d == 1 else [y // d for y in r]))
        pivots.append((k, p, g))
        return True

    deferred = 0  # leading directions left null so far, at block positions 0..deferred-1
    for k in range(m):
        if not eliminate(deferred, range(deferred + 1, deferred + m - k)):
            deferred += 1
    leading_counts = _pivot_counts(pivots, m)
    while a:
        if not eliminate(0, range(1, len(a))):
            del order[0], a[0]
            for r in a:
                del r[0]
    return CongruenceResult(leading_counts, n, scale, tuple(pivots), tuple(moves))


def _forward(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """One fraction-free forward elimination: integer echelon rows and pivot columns.

    It takes the `int` rows that its caller read with `_int_rows`, each row
    scaled to integers, and works on them in place.  The pivot is
    the first nonzero entry at or below the current row.  A row below it
    with entry x != 0 in the pivot column becomes
    (p * row - x * pivot row) / g: p and x are first divided by their gcd,
    and g is the content (the gcd of the entries) of the result.  So a
    row stays a nonzero rational multiple of the row that the
    same elimination over Q would hold, no larger than that row over a
    common denominator, and pivot rows are never normalized.
    """
    cols = len(a[0]) if a else 0
    rows = len(a)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        p = prow[c]
        ptail = prow[c + 1:]
        for i in range(r + 1, rows):
            row = a[i]
            x = row[c]
            if x:
                g = gcd(p, x)
                up, x = p // g, x // g
                # entries left of column c are zero in both rows; column c cancels
                tail = [up * y - x * z for y, z in zip(row[c + 1:], ptail)]
                g = gcd(*tail)
                row[c] = 0
                row[c + 1:] = [y // g for y in tail] if g > 1 else tail
        pivots.append(c)
    return a, pivots


def _reduce(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon rows in integers and pivot columns: `_forward` of the read `int`
    rows a, then back substitution.

    Each pivot, last to first, clears its column in the rows above it by
    the update of `_forward`, applied to whole rows.  No row is normalized:
    row r is an integer multiple of row r of the reduced echelon form, with
    its pivot a_r,c_r in place of 1.
    """
    a, pivots = _forward(a)
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        prow = a[r]
        p = prow[c]
        for i in range(r):
            row = a[i]
            x = row[c]
            if x:
                g = gcd(p, x)
                up, x = p // g, x // g
                new = [up * y - x * z for y, z in zip(row, prow)]
                g = gcd(*new)  # > 0: row i keeps its own pivot
                a[i] = [y // g for y in new] if g > 1 else new
    return a, pivots


def rank(m: Matrix) -> int:
    """Number of pivots of one forward elimination."""
    shape(m)
    return len(_forward(_int_rows(m)[0])[1])


def kernel(m: Matrix) -> list[Vector]:
    """Basis of the exact null space {v : M v = 0}.

    Empty iff M has full column rank.  Basis vectors are normalized to
    coprime `int` entries with positive leading entry, read off the
    integer rows of `_reduce`: free column f gives v_f = 1 and
    v_c = -a_rf / a_rc at each pivot (r, c), all scaled by the lcm of those
    pivots a_rc.
    """
    cols = shape(m)[1]
    a, pivots = _reduce(_int_rows(m)[0])
    pivot_cols = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        hits = [(row[f], row[c], c) for row, c in zip(a, pivots) if row[f]]
        scale = lcm(*(p for _, p, _ in hits))
        v = [0] * cols
        v[f] = scale
        for x, p, c in hits:
            v[c] = -x * (scale // p)
        basis.append(tuple(_content_free(v)))
    return basis


def _inverse_rows(m: Matrix, units: Sequence[int] | None = None) -> list[tuple[list[int], int]]:
    """Row r of the inverse, at the columns `units` (all of them when None), as an
    `int` row and its divisor: (right half, pivot a_r) of row r of the `_reduce`
    rows of [M | e_u for u in units].

    When M is invertible the left half reduces to a diagonal of pivots, so
    entry (r, u) of the inverse is the right half's entry for u over a_r.
    M is singular exactly when the left half has fewer than n pivots; the
    right half need not hold a pivot then, since the e_u may lie in M's
    range.
    """
    n, c = shape(m)
    if n != c:
        raise ShapeError("inverse requires a square matrix")
    units = range(n) if units is None else units
    a, pivots = _reduce(_int_rows([[*row, *(1 if j == i else 0 for j in units)]
                                   for i, row in enumerate(m)])[0])
    if sum(1 for col in pivots if col < n) < n:
        raise SingularMatrixError("matrix is singular")
    return [(row[n:], row[r]) for r, row in enumerate(a)]


def integer_inverse(m: Matrix) -> tuple[list[list[int]], int]:
    """The inverse as M / d: M an `int` matrix and d > 0 the lcm of the pivots
    of `_inverse_rows`, each row scaled by d over its own pivot."""
    rows = _inverse_rows(m)
    d = lcm(*(p for _, p in rows))
    return [[x * (d // p) for x in row] for row, p in rows], d


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    Read off the `_reduce` rows of [A | b]: the system is inconsistent iff
    a pivot lands in the last column, and otherwise x_c is the last entry of
    the row with pivot column c over that pivot, and every free x_c is 0.
    The entries are canonical: an exact quotient is an `int`.
    """
    rows, cols = shape(a)
    if _vector_length(b, "b") != rows:
        raise ShapeError("right-hand side length does not match row count")
    reduced, pivots = _reduce(_int_rows([[*row, bv] for row, bv in zip(a, b)])[0])
    if pivots and pivots[-1] == cols:
        return None
    x = [0] * cols
    for row, c in zip(reduced, pivots):
        x[c] = ratio(row[cols], row[c])
    return tuple(x)


def row_space(vectors: Sequence[Vector]) -> list[Vector]:
    """Canonical basis of the span: the rows of `_reduce` rescaled to coprime `int`s."""
    shape(vectors)
    a, pivots = _reduce(_int_rows(vectors)[0])
    return [tuple(_content_free(a[r])) for r in range(len(pivots))]


def lll_reduce(vectors: Sequence[Vector]) -> list[Vector]:
    """Integer basis with the same rational span, made of short vectors.

    Lenstra-Lenstra-Lovasz reduction, with Lovasz constant LLL_DELTA, of the
    lattice that the primitive integer forms of the input vectors generate.
    It is de Weger's integral LLL (H. Cohen, A Course in Computational
    Algebraic Number Theory, 1993, Algorithm 2.6.7): the rows stay `int`,
    and in place of the Gram-Schmidt basis it keeps the integers
    d_i = det Gram(b_0..b_{i-1}) and lambda_kj = d_{j+1} mu_kj.  A swap
    updates them in O(n) by exact integer divisions; nothing is rebuilt.
    Its decisions are those of the textbook rational version: b_k is
    size-reduced against b_{k-1} down to b_0 by round(mu_kj) (half to even)
    when |mu_kj| > 1/2, then tested for the Lovasz condition.

    Each reduced vector is then rescaled to a primitive `int` one, which can undo
    the size reduction, so the result is not always LLL-reduced: on
    (2,0,-2,0,1,3,-1), (0,2,0,0,-1,-3,1) it returns (1,1,-1,0,0,0,0),
    (0,2,0,0,-1,-3,1), whose mu is 2/3.  Used to keep entries small before
    expensive exact constructions; any basis of the span is as good as any
    other for the callers.  Raises ShapeError when the vectors are linearly
    dependent.
    """
    shape(vectors)
    b = [_content_free(row) for row in _int_rows(vectors)[0]]
    n = len(b)
    num, den = LLL_DELTA
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ShapeError("lll_reduce: the vectors must be linearly independent")
            else:
                d[i + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                q = round(ratio(lam[k][j], d[j + 1]))
                # b_k -= q b_j leaves every d_i alone and shifts row k of lambda
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
                lam[k][j] -= q * d[j + 1]
        t = lam[k][k - 1]
        # |b_k*|^2 >= (delta - mu^2) |b_{k-1}*|^2, times den d_k d_{k-1} > 0
        if den * d[k + 1] * d[k - 1] >= num * d[k] ** 2 - den * t * t:
            k += 1
        else:
            # swapping b_{k-1}, b_k changes d_k alone, and lambda only in
            # rows k-1, k and columns k-1, k; every division is exact
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new_dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
            for i in range(k + 1, n):
                old = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * old) // d[k]
                lam[i][k - 1] = (new_dk * old + t * lam[i][k]) // d[k + 1]
            d[k] = new_dk
            k = max(k - 1, 1)
    return [tuple(_content_free(row)) for row in b]


def extend_to_independent(base: Sequence[Vector], pool: Sequence[Vector],
                          target_rank: int) -> list[Vector]:
    """Grow `base` by vectors from `pool` until the span has the target rank.

    Takes the first pool pivots of one forward elimination of the columns
    [base | pool]: each pool vector outside the span of the columns before it.
    Vectors of unequal length raise `ShapeError`.
    """
    require_ints(target_rank=target_rank)
    shape(base), shape(pool)
    pivots = _forward(_int_rows(transpose([*base, *pool]))[0])[1]
    from_pool = [c - len(base) for c in pivots if c >= len(base)]
    base_rank = len(pivots) - len(from_pool)
    if base_rank > target_rank:
        raise ShapeError(f"base has rank {base_rank}, above the target rank {target_rank}")
    need = target_rank - base_rank
    if need > len(from_pool):
        raise ShapeError("pool does not span enough directions")
    return list(base) + [pool[c] for c in from_pool[:need]]
