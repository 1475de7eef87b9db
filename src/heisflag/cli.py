"""Command-line interface.

Subcommands: classify, table, verify, witness, curvature, matsuki.  Output
is line-oriented "key: value" text; `--record` appends one machine-readable
JSON line.  Exit codes: 0 success, 1 malformed input, 2 precondition
violation (out-of-scope signature, degenerate matrix, bad shape), 3 failed
verification check or witness residual above tolerance.

Subcommands raise; `main` alone turns an error into `error: <message>` on
stderr and an exit code, by the error's type.  An error of any other type
is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import linalg, sampling
from .curvature import curvature_report
from .enumeration import survey_flags
from .forms import (
    Flag,
    PreconditionError,
    QuadraticSpace,
    Subspace,
    flag_invariants,
    matsuki_data,
)
from .heisenberg import (
    HeisenbergAlgebra,
    admissible_classes,
    classify_metric,
    parabolic_sample,
    act_on_metric,
    representative,
)
from .matrixio import MatrixFormatError, parse_rational, read_matrix
from .witness import (
    InequivalentFlagsError,
    WitnessFailureError,
    isometry_witness,
    witness_residuals,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_PRECONDITION = 2
EXIT_CHECK_FAILED = 3


class UsageError(ValueError):
    """Command-line arguments that do not fit together (exit 1)."""


def _print_record(args, record: dict) -> None:
    if args.record:
        print("record: " + json.dumps(record, sort_keys=True))


def _parse_flag_spec(spec: str, small_count: int, n: int) -> Flag:
    vectors = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise MatrixFormatError("empty vector in flag spec")
        vectors.append(tuple(parse_rational(tok.strip()) for tok in chunk.split(",")))
    if len({len(v) for v in vectors}) != 1:
        raise MatrixFormatError("flag spec vectors must share one length")
    if len(vectors[0]) != n:
        raise UsageError("flag vectors must have length p + q")
    if len(vectors) < 2:
        raise MatrixFormatError("a flag needs at least two vectors, the flag spec has 1")
    if not 1 <= small_count < len(vectors):
        raise MatrixFormatError(f"the small part must take 1 to {len(vectors) - 1} of the "
                                f"{len(vectors)} flag spec vectors, got {small_count}")
    small = Subspace.spanned_by(vectors[:small_count], n)
    if small.dim < small_count:
        raise MatrixFormatError(f"the {small_count} small-part vectors of the flag spec are "
                                f"linearly dependent (rank {small.dim})")
    big = Subspace.spanned_by(vectors, n)
    if big.dim < len(vectors):
        raise MatrixFormatError(f"the {len(vectors)} flag spec vectors are linearly dependent "
                                f"(rank {big.dim})")
    return Flag(small, big)


def cmd_classify(args) -> int:
    gram = read_matrix(args.path)
    alg = HeisenbergAlgebra(len(gram))
    result = classify_metric(alg, gram)
    row = result.metric_class
    print(f"p: {result.p}")
    print(f"q: {result.q}")
    print(f"swapped: {'true' if result.swapped else 'false'}")
    print(f"class_id: {result.class_id}")
    print(f"center_signature: {result.center_signature}")
    print(f"derived_refined: {result.refined}")
    record = {
        "command": "classify", "p": result.p, "q": result.q,
        "swapped": result.swapped, "class_id": result.class_id,
        "center_signature": result.center_signature.as_tuple(),
        "derived_refined": str(result.refined),
        "notes": f"center pattern {row.pattern_str()}",
    }
    if args.curvature:
        report = curvature_report(alg, gram)
        print(f"flat: {'true' if report.is_flat else 'false'}")
        print(f"scalar_curvature: {report.scalar_curv}")
        record["flat"] = report.is_flat
        record["scalar_curvature"] = str(report.scalar_curv)
    print(f"notes: center pattern {row.pattern_str()}")
    _print_record(args, record)
    return EXIT_OK


def cmd_table(args) -> int:
    table = admissible_classes(args.p, args.q)
    print(f"p: {table.p}")
    print(f"q: {table.q}")
    for row in table.classes:
        concrete = row.center_signature(table.p, table.q)
        print(f"class {row.id}: pattern {row.pattern_str()} = "
              f"{concrete}, refined {row.refined}")
    print(f"count: {table.count}")
    _print_record(args, {
        "command": "table", "p": table.p, "q": table.q,
        "ids": list(table.ids), "count": table.count,
    })
    return EXIT_OK


def _expected_count(p: int, q: int) -> int:
    p, q = max(p, q), min(p, q)
    if q >= 3:
        return 21
    if q == 2:
        return 15 if p >= 3 else 10
    return 6


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    table = admissible_classes(args.p, args.q)
    p, q = table.p, table.q
    n = p + q
    alg = HeisenbergAlgebra(n)
    rng = random.Random(args.seed)
    trials = args.trials
    print(f"p: {p}")
    print(f"q: {q}")
    print(f"seed: {args.seed}")
    print(f"trials: {trials}")
    failures = []

    def report(name: str, ok: bool, detail: str) -> None:
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures.append(name)

    expected = _expected_count(p, q)
    report("class_count", table.count == expected,
           f"derived {table.count}, expected {expected}")

    space = QuadraticSpace.standard(p, q)
    survey = survey_flags(p, q)
    expected_inv = {row.flag_invariants(p, q) for row in table.classes}
    observed = survey.observed_invariants
    report("enumeration_completeness", observed == expected_inv,
           f"observed {len(observed)} orbit types, "
           f"missing {len(expected_inv - observed)}, extra {len(observed - expected_inv)}")

    report("matsuki_duality_count", len(survey.matsuki) == len(observed),
           f"matsuki {len(survey.matsuki)}, invariants {len(observed)}")

    # the Gram of a basis (line, rest of the big part, two more) names the
    # row of its flag's orbit, so every row is hit once its orbit is observed
    seen_ids: set[int] = set()
    astray = 0
    for inv, (f, *_) in survey.invariants.items():
        basis = linalg.extend_to_independent(
            f.small.basis, [*f.big.basis, *linalg.identity(n)], n)
        row = classify_metric(alg, space.pairing(basis, basis)).metric_class
        seen_ids.add(row.id)
        astray += row.flag_invariants(p, q) != inv
    report("metric_class_coverage", not astray and seen_ids == set(table.ids),
           f"observed ids {sorted(seen_ids)}, {astray} off their orbit")

    bad = 0
    for _ in range(trials):
        row = table.classes[rng.randrange(table.count)]
        base = act_on_metric(parabolic_sample(n, rng).matrix, representative(row.id, p, q))
        acted = act_on_metric(parabolic_sample(n, rng).matrix, base)
        if classify_metric(alg, acted).class_id != row.id:
            bad += 1
    report("parabolic_invariance", bad == 0, f"{trials - bad}/{trials} trials")

    bad = 0
    for _ in range(trials):
        f = sampling.random_flag(p, q, rng)
        g = sampling.random_opq(p, q, rng)
        if flag_invariants(space, sampling.apply_to_flag(g, f)) != flag_invariants(space, f):
            bad += 1
    report("flag_invariance", bad == 0, f"{trials - bad}/{trials} trials")

    ok = not failures
    print(f"result: {'pass' if ok else 'FAIL: ' + ', '.join(failures)}")
    _print_record(args, {
        "command": "verify", "p": p, "q": q, "seed": args.seed, "trials": trials,
        "failures": failures, "observed_ids": sorted(seen_ids),
        "orbit_types": len(observed), "matsuki_tuples": len(survey.matsuki),
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_witness(args) -> int:
    p, q = args.p, args.q
    f1 = _parse_flag_spec(args.flag1, args.small, p + q)
    f2 = _parse_flag_spec(args.flag2, args.small, p + q)
    if f1.shape != f2.shape:
        raise UsageError(f"flag shapes differ: {f1.shape} vs {f2.shape}")
    print(f"p: {p}")
    print(f"q: {q}")
    try:
        g = isometry_witness(p, q, f1, f2)
    except InequivalentFlagsError as ex:
        print("equivalent: false")
        print(f"inequivalent: {ex.reason}")
        _print_record(args, {"command": "witness", "p": p, "q": q,
                             "equivalent": False, "reason": ex.reason})
        return EXIT_OK
    res = witness_residuals(p, q, g, f1, f2)
    print("equivalent: true")
    print("witness:")
    for row in g:
        print("  " + " ".join(f"{x: .12e}" for x in row))
    print(f"residual_form: {res['form']:.3e}")
    print(f"residual_small: {res['small']:.3e}")
    print(f"residual_big: {res['big']:.3e}")
    _print_record(args, {"command": "witness", "p": p, "q": q, "equivalent": True,
                         "residual_form": res["form"], "residual_small": res["small"],
                         "residual_big": res["big"]})
    return EXIT_OK


def cmd_curvature(args) -> int:
    table = admissible_classes(args.p, args.q)
    p, q = table.p, table.q
    alg = HeisenbergAlgebra(p + q)
    ids = list(table.ids) if args.class_id is None else [args.class_id]
    reports = [curvature_report(alg, representative(cid, p, q)) for cid in ids]
    print(f"p: {p}")
    print(f"q: {q}")
    rows = []
    for cid, report in zip(ids, reports):
        c, _ = report.soliton  # every nondegenerate metric is a soliton
        einstein = report.is_einstein
        print(f"class {cid}:")
        print(f"  flat: {'true' if report.is_flat else 'false'}")
        print(f"  scalar_curvature: {report.scalar_curv}")
        print(f"  ricci_diagonal: {' '.join(str(report.ricci[i][i]) for i in range(p + q))}")
        print(f"  soliton: c = {c}, derivation {'zero' if einstein else 'nonzero'}")
        print(f"  einstein: {'true' if einstein else 'false'}")
        rows.append({"class_id": cid, "flat": report.is_flat,
                     "scalar": str(report.scalar_curv), "soliton_c": str(c),
                     "einstein": einstein})
    _print_record(args, {"command": "curvature", "p": p, "q": q, "classes": rows})
    return EXIT_OK


def cmd_matsuki(args) -> int:
    p, q = args.p, args.q
    f = _parse_flag_spec(args.flag, 1, p + q)
    data = matsuki_data(f, p, q)
    print(f"p: {p}")
    print(f"q: {q}")
    for name, val in zip(("c_plus", "c_minus", "c_zero", "d_plus", "d_minus",
                          "d_zero", "d_pm"), data.as_tuple()):
        print(f"{name}: {val}")
    _print_record(args, {"command": "matsuki", "p": p, "q": q,
                         "data": list(data.as_tuple())})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisflag",
        description="Exact classification of left-invariant pseudo-Riemannian "
                    "metrics on the Heisenberg group times a Euclidean factor.")
    sub = parser.add_subparsers(dest="command", required=True)
    record = argparse.ArgumentParser(add_help=False)
    record.add_argument("--record", action="store_true")
    signature = argparse.ArgumentParser(add_help=False, parents=[record])
    signature.add_argument("p", type=int)
    signature.add_argument("q", type=int)

    p_classify = sub.add_parser("classify", parents=[record],
                                help="classify a Gram matrix file")
    p_classify.add_argument("path", help="matrix file: header n, then n rows of rationals")
    p_classify.add_argument("--curvature", action="store_true",
                            help="also report flatness and scalar curvature")
    p_classify.set_defaults(func=cmd_classify)

    p_table = sub.add_parser("table", parents=[signature],
                             help="print the admissible class table")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", parents=[signature], help="run the verification checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_witness = sub.add_parser("witness", parents=[signature],
                               help="isometry witness between two flags")
    p_witness.add_argument("flag1", help="semicolon-separated vectors of comma-separated rationals")
    p_witness.add_argument("flag2")
    p_witness.add_argument("--small", type=int, default=1,
                           help="how many leading vectors span the small part")
    p_witness.set_defaults(func=cmd_witness)

    p_curv = sub.add_parser("curvature", parents=[signature], help="per-class curvature report")
    p_curv.add_argument("--class-id", type=int, default=None)
    p_curv.set_defaults(func=cmd_curvature)

    p_matsuki = sub.add_parser("matsuki", parents=[signature],
                               help="seven coordinate counts of a flag")
    p_matsuki.add_argument("flag", help="flag spec; first vector spans the line")
    p_matsuki.set_defaults(func=cmd_matsuki)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MatrixFormatError, UsageError) as ex:
        error, code = ex, EXIT_MALFORMED
    except (PreconditionError, linalg.ShapeError) as ex:
        error, code = ex, EXIT_PRECONDITION
    except WitnessFailureError as ex:
        error, code = ex, EXIT_CHECK_FAILED
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
