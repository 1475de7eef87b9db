"""Malformed input raises a named error: a campaign over the exact input boundary.

A hypothesis campaign over the public callables that take a matrix, a
vector or a signature: those in `heisflag.__all__` and the public routines
of `heisflag.linalg`.  Each call gets valid base arguments with one of them
malformed:
- one entry made a float, a str, None, a bool, a list, a Decimal, a
  complex number or bytes (a square matrix gets it at (i, j) and (j, i));
- one row made ragged, or made a number or None, which is no sequence, or
  a set or dict of the row's length, which has no order; a fixed-size
  argument given one row or entry too many; a whole vector or matrix
  argument made a number or None, or a set or dict of its length, which
  the call must read, and refuse, before it takes its `len` or iterates it;
- one integer parameter made a float, a str, None, a `Fraction`, a list
  (which is unhashable, so it must be named before a cache hashes it), a
  bool, a negative int or a class id out of range.
The call must raise `PreconditionError`, `ShapeError` or
`SingularMatrixError` (or a subclass), or return a correct value.  A product
reads the type of every entry, a zero one and the vector of a zero
coefficient included, so it has no exception of its own:
- `bool` is read as the `int` it is, so a call with a bool must equal the
  call with that int;
- `is_scaled_automorphism` answers False for a negative size n, which no
  matrix has.
Any other return fails, and so does any other exception: `AttributeError`,
a bare `TypeError`, `IndexError`, `KeyError`, `ZeroDivisionError` or
`AssertionError`.  No exact result may hold a float.  Empty matrices and
vectors are valid input to most routines; `test_empty_input` checks their
answers.

`shape` reads row lengths and no entry, so it gets the row malformations
alone.  Left out: the helpers `transpose`, `is_zero_vector` and
`sign_counts`, which move or compare entries and make no number of
them; the check `require_ints` itself; the
callables that take built objects (spaces, subspaces, flags and scaled
systems) rather than matrices, vectors or signatures; and the float side
of the witness (`witness_residuals`, `subspace_distance`).
"""

import dataclasses
from decimal import Decimal
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

import heisflag
from heisflag import linalg
from heisflag.linalg import PreconditionError, ShapeError, SingularMatrixError

NAMED = (PreconditionError, ShapeError, SingularMatrixError)

ALG = heisflag.HeisenbergAlgebra(4)
GRAM = [[1, 0, 2, 0], [0, -1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]  # signature (2, 2)
VEC = (1, -2, 0, 3)
BLOCK = [[3, 1, 2, 5], [0, 1, 4, 7], [0, 0, 2, 1], [0, 0, 1, 1]]  # a scaled automorphism
SPACE = heisflag.QuadraticSpace.standard(2, 2)
FLAG = heisflag.representative_flag(7, 2, 2)
NULLS = [(1, 0, 1, 0), (0, 1, 0, 1)]


def witness(*args):
    return heisflag.isometry_witness(*args).tolist()


# name: (callable, base arguments, the kind of each argument)
# kinds: M a matrix, G a matrix of fixed row count, N a matrix malformed in its
# entries only, R a matrix malformed in its rows only, V a vector, W a vector of fixed length, E an entry, I an
# integer parameter, O one that may be None, C a class id, L a list of integer
# parameters, - left as it is
TARGETS = {
    "linalg.mat": (linalg.mat, (GRAM,), "M"),
    "linalg.shape": (linalg.shape, (GRAM,), "R"),
    "linalg.vec": (linalg.vec, (VEC,), "V"),
    "linalg.diag": (linalg.diag, (VEC,), "V"),
    "linalg.zeros": (linalg.zeros, (2, 3), "II"),
    "linalg.identity": (linalg.identity, (3,), "I"),
    "linalg.mat_mul": (linalg.mat_mul, (GRAM, GRAM), "MG"),
    "linalg.mat_vec": (linalg.mat_vec, (GRAM, VEC), "MW"),
    "linalg.combine": (linalg.combine, (VEC, GRAM), "WG"),
    "linalg.bilinear": (linalg.bilinear, ([VEC], GRAM, [VEC, VEC[::-1]]), "MGM"),
    "linalg.vec_add": (linalg.vec_add, (VEC, VEC[::-1]), "WW"),
    "linalg.vec_sub": (linalg.vec_sub, (VEC, VEC[::-1]), "WW"),
    "linalg.vec_scale": (linalg.vec_scale, (3, VEC), "EV"),
    "linalg.primitive_vector": (linalg.primitive_vector, (VEC,), "V"),
    "linalg.scaled_to_int": (linalg.scaled_to_int, (GRAM,), "M"),
    "linalg.read_gram": (linalg.read_gram, (GRAM,), "G"),
    "linalg.congruence_diagonalize": (linalg.congruence_diagonalize, (GRAM, 2), "GO"),
    "linalg.rank": (linalg.rank, (GRAM,), "M"),
    "linalg.kernel": (linalg.kernel, (GRAM,), "M"),
    "linalg.row_space": (linalg.row_space, (GRAM,), "M"),
    "linalg.integer_inverse": (linalg.integer_inverse, (GRAM,), "G"),
    "linalg.solve": (linalg.solve, (GRAM, VEC), "GW"),
    "linalg.lll_reduce": (linalg.lll_reduce, (GRAM,), "M"),
    "linalg.extend_to_independent": (
        linalg.extend_to_independent, (GRAM[:1], GRAM[1:], 4), "MMI"),
    "QuadraticSpace": (heisflag.QuadraticSpace, (tuple(map(tuple, GRAM)),), "G"),
    "QuadraticSpace.from_matrix": (heisflag.QuadraticSpace.from_matrix, (GRAM,), "G"),
    "QuadraticSpace.standard": (heisflag.QuadraticSpace.standard, (2, 2), "II"),
    "Subspace": (heisflag.Subspace, (4, (VEC, (0, 1, 0, 0))), "IM"),
    "Subspace.spanned_by": (heisflag.Subspace.spanned_by, ([VEC, VEC], 4), "MI"),
    "Subspace.coordinate": (heisflag.Subspace.coordinate, (4, [0, 2]), "IL"),
    "Subspace.full": (heisflag.Subspace.full, (4,), "I"),
    "Signature": (heisflag.Signature, (1, 2, 0), "III"),
    "possible_codim2_signatures": (heisflag.possible_codim2_signatures, (3, 2), "II"),
    "possible_line_signatures": (heisflag.possible_line_signatures, (1, 1, 0), "III"),
    "matsuki_data": (heisflag.matsuki_data, (FLAG, 2, 2), "-II"),
    "lightlike_split": (heisflag.lightlike_split, (SPACE, FLAG.big, (1, 0, 1, 0)), "--W"),
    "extend_nullsystem": (heisflag.extend_nullsystem, (SPACE, NULLS), "-M"),
    "HeisenbergAlgebra": (heisflag.HeisenbergAlgebra, (4,), "I"),
    "admissible_classes": (heisflag.admissible_classes, (3, 3), "II"),
    "survey_flags": (heisflag.survey_flags, (3, 3), "II"),
    "parabolic_sample": (heisflag.parabolic_sample, (4, 1), "I-"),
    "representative": (heisflag.representative, (7, 2, 2), "CII"),
    "representative_flag": (heisflag.representative_flag, (7, 2, 2), "CII"),
    "classify_metric": (heisflag.classify_metric, (ALG, GRAM), "-G"),
    "curvature_report": (heisflag.curvature_report, (ALG, GRAM), "-G"),
    "riemann": (heisflag.riemann, (ALG, GRAM), "-G"),
    "act_on_metric": (heisflag.act_on_metric, (BLOCK, GRAM), "GG"),
    "is_scaled_automorphism": (heisflag.is_scaled_automorphism, (BLOCK, 4), "NI"),
    "ScaledAutomorphism.from_matrix": (heisflag.ScaledAutomorphism.from_matrix, (BLOCK,), "G"),
    "isometry_witness": (witness, (2, 2, FLAG, FLAG), "II--"),
}

BAD_ENTRIES = st.one_of(st.floats(), st.text(max_size=2), st.none(), st.booleans(),
                        st.sampled_from([[], [1], (), Decimal("0.5"), Decimal(0), 1j, b"1"]))
BAD_INTS = st.one_of(st.floats(), st.sampled_from(["3", "", None, F(3), F(1, 2), []]),
                     st.booleans(), st.integers(-5, -1))
BAD_IDS = BAD_INTS | st.sampled_from([0, 22, 100])
BAD_OPTIONAL_INTS = BAD_INTS.filter(lambda x: x is not None)
NOT_ROWS = st.sampled_from([0, 1, -1, None, 0.5, F(1, 2)])  # nor vectors


def unordered(k):
    """A set and a dict of k ints: each has a row's length, but no order."""
    return st.sampled_from([set(range(1, k + 1)), dict.fromkeys(range(k), 1)])
# a case is (target name, argument index, how it is malformed, where, the malformed value)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(TARGETS)))
    _, base, kinds = TARGETS[name]
    i = draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind != "-"]))
    kind, arg = kinds[i], base[i]
    if kind in "IOCE":
        values = {"I": BAD_INTS, "O": BAD_OPTIONAL_INTS, "C": BAD_IDS, "E": BAD_ENTRIES}[kind]
        return name, i, "value", None, draw(values)
    if kind in "LVW":
        hows = (["entry"] + (["longer"] if kind == "W" else [])
                + (["vector"] if kind != "L" else []))
        how = draw(st.sampled_from(hows))
        if how == "vector":
            return name, i, how, None, draw(NOT_ROWS | unordered(len(arg)))
        where = draw(st.integers(0, len(arg) - 1))
        return name, i, how, where, draw(BAD_INTS if kind == "L" else BAD_ENTRIES)
    how = draw(st.sampled_from((["entry", "matrix"] if kind != "R" else [])
                               + (["ragged", "row"] if kind != "N" else [])
                               + (["longer"] if kind == "G" else [])))
    if how == "matrix":
        return name, i, how, None, draw(NOT_ROWS | unordered(len(arg)))
    r = draw(st.integers(0, len(arg) - 1))
    c = draw(st.integers(0, len(arg[r]) - 1))
    values = {"entry": BAD_ENTRIES, "row": NOT_ROWS | unordered(len(arg[r]))}
    return name, i, how, (r, c), draw(values[how]) if how in values else None


def malformed(arg, how, where, value):
    """arg with the malformation applied, in arg's own container types."""
    if how in ("value", "vector", "matrix"):
        return value
    if how == "given":
        return where
    if not arg or not isinstance(arg[0], (list, tuple)):  # a vector or a list of ints
        out = list(arg)
        if how == "longer":
            out.append(0)
        else:
            out[where] = value
        return type(arg)(out)
    rows = [list(row) for row in arg]
    r, c = where
    if how == "entry":
        rows[r][c] = value
        if len(rows) == len(rows[r]) and len(rows[c]) > r:  # square: keep it symmetric
            rows[c][r] = value
    elif how == "ragged":
        rows[r] = rows[r][:-1] if c % 2 else rows[r] + [0]
    elif how == "row":
        rows[r] = value
        return type(arg)(row if row is value else type(arg[0])(row) for row in rows)
    else:
        rows.append([0] * len(rows[r]))
    return type(arg)(map(type(arg[0]), rows))


def call(case, value):
    name, i, how, where, _ = case
    func, base, _ = TARGETS[name]
    args = list(base)
    args[i] = malformed(base[i], how, where, value)
    return func(*args)


def holds_float(x) -> bool:
    if isinstance(x, float):
        return True
    if isinstance(x, (list, tuple, set, frozenset)):
        return any(holds_float(y) for y in x)
    if isinstance(x, (dict, MappingProxyType)):
        return any(holds_float(k) or holds_float(v) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return any(holds_float(getattr(x, f.name)) for f in dataclasses.fields(x))
    return False


def given_case(name, i, arg):
    """A case that hands in `arg` itself, malformed as it is."""
    return name, i, "given", arg, None


FLOAT_GRAM = [[0.1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=given_case("curvature_report", 1, FLOAT_GRAM))
@example(case=given_case("QuadraticSpace.from_matrix", 0, FLOAT_GRAM))
@example(case=given_case("linalg.mat", 0, [["0.1"]]))
@example(case=given_case("classify_metric", 1, FLOAT_GRAM))
@example(case=given_case("linalg.rank", 0, FLOAT_GRAM))
@example(case=given_case("linalg.kernel", 0, FLOAT_GRAM))
@example(case=given_case("act_on_metric", 1, FLOAT_GRAM))
@example(case=given_case("linalg.mat_mul", 0, FLOAT_GRAM))
@example(case=given_case("Subspace", 1, ((0.5, 0, 0, 0),)))
@example(case=("HeisenbergAlgebra", 0, "value", None, 4.0))
@example(case=("admissible_classes", 0, "value", None, 3.0))
@example(case=("survey_flags", 0, "value", None, 3.0))
@example(case=("QuadraticSpace.standard", 0, "value", None, 2.0))
@example(case=("parabolic_sample", 0, "value", None, 4.0))
@example(case=given_case("linalg.rank", 0, [[1, 2], [3]]))
@example(case=given_case("Subspace.coordinate", 1, [-1]))
@example(case=("classify_metric", 1, "entry", (0, 0), True))
@example(case=given_case("linalg.kernel", 0, [1, 2]))
@example(case=given_case("Subspace", 1, (1,)))
@example(case=given_case("linalg.bilinear", 0, [1]))
@example(case=given_case("linalg.extend_to_independent", 1, [1, 2]))
@example(case=given_case("linalg.mat_mul", 0, [[1, 0, 0, 0], 0, [0, 0, 1, 0], [0, 0, 0, 1]]))
@example(case=("admissible_classes", 0, "value", None, []))
@example(case=("representative", 1, "value", None, []))
@example(case=given_case("linalg.shape", 0, [[1, 2], [3]]))
@example(case=given_case("linalg.mat_vec", 1, 3))
@example(case=given_case("linalg.solve", 1, 1))
@example(case=given_case("linalg.mat", 0, [{3, 1}]))
@example(case=given_case("linalg.rank", 0, [{1, 2}, [1, 2]]))
@example(case=given_case("linalg.kernel", 0, [{5: 1, 7: 2}]))
@example(case=given_case("linalg.mat_vec", 1, {1, 2, 3, 4}))
@example(case=given_case("linalg.mat_mul", 1, [[None, 0, 2, 0], *GRAM[1:]]))
@example(case=given_case("linalg.vec_scale", 0, None))
@example(case=given_case("linalg.combine", 1, [*GRAM[:2], [None, 0, 1, 0], GRAM[3]]))
@example(case=given_case("classify_metric", 1, None))
@example(case=given_case("act_on_metric", 0, None))
@example(case=given_case("act_on_metric", 1, None))
@example(case=given_case("linalg.extend_to_independent", 0, None))
@example(case=given_case("linalg.extend_to_independent", 1, None))
@example(case=given_case("Subspace.spanned_by", 0, None))
@example(case=given_case("extend_nullsystem", 1, None))
def test_malformed_input_raises_a_named_error(case):
    value = case[4]
    try:
        result = call(case, value)
    except NAMED:
        return
    name, _, how, _, _ = case
    assert name == "isometry_witness" or not holds_float(result), result
    if isinstance(value, bool):
        assert result == call(case, int(value))
    elif name == "is_scaled_automorphism" and type(value) is int:
        assert value < 0 and result is False
    else:
        pytest.fail(f"{name} returned {result!r} for malformed input")


EMPTY_ANSWERS = [
    (linalg.mat, ([],), []),
    (linalg.vec, ((),), ()),
    (linalg.diag, ((),), []),
    (linalg.mat_mul, ([], []), []),
    (linalg.mat_vec, ([], ()), ()),
    (linalg.combine, ((), []), ()),
    (linalg.bilinear, ([], [], []), []),
    (linalg.vec_add, ((), ()), ()),
    (linalg.vec_scale, (2, ()), ()),
    (linalg.primitive_vector, ((),), ()),
    (linalg.scaled_to_int, ([],), ([], 1)),
    (lambda m: linalg.congruence_diagonalize(m).diagonal, ([],), ()),
    (linalg.rank, ([],), 0),
    (linalg.rank, ([[], []],), 0),
    (linalg.kernel, ([],), []),
    (linalg.kernel, ([[], []],), []),
    (linalg.row_space, ([],), []),
    (linalg.vec_sub, ((), ()), ()),
    (linalg.integer_inverse, ([],), ([], 1)),
    (linalg.solve, ([], ()), ()),
    (linalg.lll_reduce, ([],), []),
    (linalg.extend_to_independent, ([], [], 0), []),
    (lambda m: heisflag.QuadraticSpace.from_matrix(m).dim, ([],), 0),
    (lambda b: heisflag.Subspace(0, b).dim, ((),), 0),
    (lambda b: heisflag.Subspace.spanned_by(b, 3).dim, ([],), 0),
    (lambda n: heisflag.extend_nullsystem(SPACE, n).signature, ([],), heisflag.Signature(2, 2, 0)),
    (linalg.read_gram, ([],), ([], 1)),
]
EMPTY_REFUSED = [
    (linalg.extend_to_independent, ([], [], 1)),
    (linalg.solve, ([], (1,))),
    (linalg.mat_mul, (GRAM, [])),
    (linalg.combine, (VEC, [])),
    (heisflag.classify_metric, (ALG, [])),
    (heisflag.curvature_report, (ALG, [])),
    (heisflag.riemann, (ALG, [])),
    (heisflag.act_on_metric, (BLOCK, [])),
    (heisflag.act_on_metric, ([], GRAM)),
    (heisflag.ScaledAutomorphism.from_matrix, ([],)),
    (heisflag.lightlike_split, (SPACE, FLAG.big, ())),
    (heisflag.Subspace.coordinate, (0, [0])),
]


@pytest.mark.parametrize("func, args, answer", EMPTY_ANSWERS)
def test_empty_input(func, args, answer):
    assert func(*args) == answer


@pytest.mark.parametrize("func, args", EMPTY_REFUSED)
def test_empty_input_refused(func, args):
    with pytest.raises(NAMED):
        func(*args)


def test_typed_cache_keeps_floats_out_of_the_table():
    heisflag.heisenberg._admissible_cached.cache_clear()
    for first in (True, False):
        if not first:
            assert type(heisflag.admissible_classes(3, 3).p) is int
        with pytest.raises(PreconditionError, match="p must be an int, not a float"):
            heisflag.admissible_classes(3.0, 3)
    assert type(heisflag.admissible_classes(3, 3).p) is int
    with pytest.raises(PreconditionError, match="q must be an int, not a float"):
        heisflag.survey_flags(3, 3.0)


@pytest.mark.parametrize("call_none", [
    lambda: heisflag.classify_metric(ALG, None),
    lambda: heisflag.act_on_metric(None, GRAM),
    lambda: heisflag.act_on_metric(BLOCK, None),
    lambda: linalg.extend_to_independent(None, GRAM, 4),
    lambda: linalg.extend_to_independent(GRAM[:1], None, 4),
    lambda: heisflag.Subspace.spanned_by(None, 4),
    lambda: heisflag.extend_nullsystem(SPACE, None),
], ids=["classify_metric", "act_on_metric-g", "act_on_metric-gram", "extend_to_independent-base",
        "extend_to_independent-pool", "spanned_by", "extend_nullsystem"])
def test_a_whole_matrix_that_is_no_sequence_is_named(call_none):
    # each call reads its matrix argument before it takes its `len`, unpacks or iterates it
    with pytest.raises(ShapeError, match="a matrix is a sequence of rows, not a NoneType"):
        call_none()


def test_errors_name_the_entry_and_the_parameter():
    with pytest.raises(linalg.EntryTypeError, match=r"entry \(2, 1\) is a float"):
        linalg.rank([[1, 2], [3, 4], [5, 0.5]])
    with pytest.raises(linalg.EntryTypeError, match=r"entry \(0, 1\) is a str"):
        linalg.mat([[1, "1/2"]])
    with pytest.raises(ShapeError, match="row 1 is a NoneType, not a sequence"):
        linalg.kernel([[1, 2], None])
    with pytest.raises(ShapeError, match="row 0 is an int, not a sequence"):
        linalg.kernel([1, 2])
    with pytest.raises(ShapeError, match="row 0 is an int, not a sequence"):
        linalg.shape([1, 2])
    with pytest.raises(ShapeError, match="row 0 is an int, not a sequence"):
        heisflag.Subspace(4, (1,))
    with pytest.raises(ShapeError, match=r"rows of lengths \[1, 2\] in one matrix"):
        linalg.shape([[1, 2], [3]])
    with pytest.raises(ShapeError, match="v must be a vector, a sequence of entries, not an int"):
        linalg.mat_vec([[1]], 3)
    with pytest.raises(ShapeError, match="b must be a vector, a sequence of entries, not an int"):
        linalg.solve([[1]], 1)
    with pytest.raises(ShapeError, match="coeffs must be a vector, a sequence of entries, not a"):
        linalg.combine(None, [[1]])
    # a set or dict has a length but no order, so it is no row and no vector
    with pytest.raises(ShapeError, match="row 0 is a set, not a sequence"):
        linalg.mat([{3, 1}])
    with pytest.raises(ShapeError, match="row 0 is a set, not a sequence"):
        linalg.rank([{1, 2}, [1, 2]])
    with pytest.raises(ShapeError, match="row 0 is a dict, not a sequence"):
        linalg.kernel([{5: 1, 7: 2}])
    with pytest.raises(ShapeError, match="v must be a vector, a sequence of entries, not a set"):
        linalg.mat_vec([[1, 2]], {1, 2})
    # a product reads every entry, a falsy one and one under a zero coefficient too
    with pytest.raises(linalg.EntryTypeError, match=r"entry \(1, 0\) is a NoneType"):
        linalg.mat_mul([[1]], [[None]])
    with pytest.raises(linalg.EntryTypeError, match=r"entry \(0, 0\) is a NoneType"):
        linalg.vec_scale(None, (1, 2))
    with pytest.raises(linalg.EntryTypeError, match=r"entry \(2, 1\) is a float"):
        linalg.combine((1, 0), ((1, 2), (3, 0.0)))
    with pytest.raises(PreconditionError, match="p must be an int, not a list"):
        heisflag.admissible_classes([], 3)
    with pytest.raises(PreconditionError, match="p must be an int, not a list"):
        heisflag.representative(7, [], 2)
    with pytest.raises(PreconditionError, match="n must be an int, not a float"):
        heisflag.HeisenbergAlgebra(4.0)
    with pytest.raises(PreconditionError, match="class_id must be an int, not a str"):
        heisflag.representative("7", 2, 2)
    # one Gram check, which is both kinds of error
    with pytest.raises(linalg.GramError, match="Gram matrix must be symmetric") as info:
        heisflag.classify_metric(ALG, BLOCK)
    assert isinstance(info.value, PreconditionError) and isinstance(info.value, ShapeError)
    assert heisflag.PreconditionError is PreconditionError is heisflag.forms.PreconditionError
