"""Command-line frontend.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check fails or an internal invariant breaks, 2 on usage errors, 3 when a
resource budget is exhausted.
JSON output is deterministic for fixed flags (the elapsedSeconds field of
sweep reports is the one timing exception).  The sweep report is written
case by case, in the bytes `json.dumps(report, indent=2)` would give.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .cells import (
    build_ideal,
    cell_generators,
    patch_generators,
    paving,
)
from .combinat import (
    HessenbergFunction,
    Permutation,
    fixed_points,
    is_fixed_point,
)
from .frobenius import (
    compatibility_check,
    make_splitting_context,
    splitting_apply,
)
from .grading_hilbert import (
    check_exact_trunc,
    hilbert_formula,
    hilbert_oracle,
    weights_for,
)
from .groebner import (
    BudgetExceededError,
    buchberger_check,
    order_n_w,
    reduced_gb_oracle,
    triangular_analysis,
)
from .polyring import Monomial, Polynomial
from .sweep import SWEEP_CEILING, SweepOptions, iter_sweep
from .sweep import sweep  # bound for perfbench's sweep.sweep span


def _parse_perm(args) -> Permutation:
    w = Permutation.parse(args.w)
    if w.n != args.n:
        raise ValueError(f"permutation {args.w!r} does not have size {args.n}")
    return w


def _parse_h(args) -> HessenbergFunction:
    h = HessenbergFunction.parse(args.h)
    if h.n != args.n:
        raise ValueError(f"Hessenberg function {args.h!r} does not have size {args.n}")
    return h


def _check_ceiling(args) -> None:  # for commands that walk all n! permutations
    if not 1 <= args.n <= SWEEP_CEILING:
        raise ValueError(f"n must be between 1 and {SWEEP_CEILING}")


def _emit(args, lines, doc) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def _matrix_entries(mat):
    out = []
    for i in range(1, mat.n + 1):
        for j in range(1, mat.n + 1):
            entry = mat.entry(i, j)
            if not entry.is_zero:
                out.append((i, j, entry))
    return out


def cmd_generators(args) -> int:
    """patch-gens and cell-gens: the nonzero entries of the conjugate
    matrix, and for cell-gens with --h the ideal's generator positions."""
    w = _parse_perm(args)
    if args.command == "patch-gens":
        mat, prefix = patch_generators(w), "f"
    else:
        mat, prefix = cell_generators(w), "g"
    entries = _matrix_entries(mat)
    lines = [f"{prefix}_{i}_{j} = {e.to_text()}" for i, j, e in entries]
    doc = {
        "n": args.n,
        "w": w.to_json(),
        "entries": [
            {"k": i, "l": j, "text": e.to_text(), "poly": e.to_json_dict()}
            for i, j, e in entries
        ],
    }
    if args.command == "cell-gens" and args.h:
        h = _parse_h(args)
        pres = build_ideal(w, h, "cell")
        labels = [pres.generator_label(k, l) for k, l, _ in pres.generators]
        lines.append("ideal generators: " + (", ".join(labels) or "(none)"))
        doc["h"] = h.to_json()
        doc["idealGenerators"] = [{"k": k, "l": l} for k, l, _ in pres.generators]
    _emit(args, lines, doc)
    return 0


def cmd_ideal(args) -> int:
    w = _parse_perm(args)
    h = _parse_h(args)
    pres = build_ideal(w, h, args.kind)
    lines = [
        f"{args.kind} ideal for w={w}, h={h}: "
        f"{pres.lambda_size} generators, height {pres.height}"
    ]
    for k, l, g in pres.generators:
        mark = ""
        if not g.is_zero and g.is_constant:
            mark = "   [constant: empty intersection]"
        lines.append(f"{pres.generator_label(k, l)} = {g.to_text()}{mark}")
    if pres.certifies_empty:
        lines.append("intersection is certified empty")
    doc = {
        "n": args.n,
        "w": w.to_json(),
        "h": h.to_json(),
        "kind": args.kind,
        "lambdaSize": pres.lambda_size,
        "Lambda": pres.height,
        "generators": [
            {
                "k": k,
                "l": l,
                "text": g.to_text(),
                "poly": g.to_json_dict(),
                "isConstant": (not g.is_zero) and g.is_constant,
            }
            for k, l, g in pres.generators
        ],
        "emptyCertified": pres.certifies_empty,
    }
    _emit(args, lines, doc)
    return 0


def cmd_fixed_points(args) -> int:
    _check_ceiling(args)
    h = _parse_h(args)
    points = fixed_points(h)
    lines = [str(w) for w in points]
    lines.append(f"{len(points)} fixed points")
    doc = {
        "n": args.n,
        "h": h.to_json(),
        "fixedPoints": [w.to_json() for w in points],
        "count": len(points),
    }
    _emit(args, lines, doc)
    return 0


def cmd_gb_check(args) -> int:
    w = _parse_perm(args)
    h = _parse_h(args)
    pres = build_ideal(w, h, "cell")
    order = order_n_w(w)
    rep = triangular_analysis(pres, order)
    gb_ok = buchberger_check(pres.generator_polys(), order)
    ok = rep.is_triangular and gb_ok
    doc = {
        "n": args.n,
        "w": w.to_json(),
        "h": h.to_json(),
        "fixedPoint": is_fixed_point(w, h),
        "Lambda": rep.height,
        "initialTerms": [
            {
                "k": k,
                "l": l,
                "sign": sign,
                "variable": var.name if var is not None else None,
            }
            for (k, l, _), (sign, var) in zip(
                rep.ordered_generators, rep.initial_terms
            )
        ],
        "freeVariables": [v.name for v in rep.free_variables],
        "triangular": rep.is_triangular,
        "buchberger": gb_ok,
        "gvdSufficient": rep.squarefree_initial_ideal,
        "radicalCertified": rep.squarefree_initial_ideal,
        "ok": ok,
    }
    lines = [
        f"triangular: {rep.is_triangular}",
        f"buchberger: {gb_ok}",
        f"Lambda: {rep.height}",
        "free variables: " + (", ".join(v.name for v in rep.free_variables) or "(none)"),
    ]
    if args.oracle:
        basis = reduced_gb_oracle(pres.generator_polys(), order, args.budget)
        unit = basis == [Polynomial.one()]
        doc["oracleBasis"] = [p.to_text() for p in basis]
        doc["unitIdeal"] = unit
        lines.append("oracle basis: " + "; ".join(p.to_text() for p in basis))
    lines.append("ok" if ok else "FAILED")
    _emit(args, lines, doc)
    return 0 if ok else 1


def cmd_hilbert(args) -> int:
    w = _parse_perm(args)
    h = _parse_h(args)
    check_exact_trunc(args.n, args.trunc)
    series = hilbert_formula(w, h)
    rep = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
    wt = weights_for(w)
    formula_coeffs = series.expand(args.trunc)
    oracle_coeffs = hilbert_oracle(rep, wt, args.trunc)
    agrees = formula_coeffs == oracle_coeffs
    doc = {
        "n": args.n,
        "w": w.to_json(),
        "h": h.to_json(),
        **series.to_json(),
        "trunc": args.trunc,
        "coefficients": formula_coeffs,
        "oracleAgrees": agrees,
    }
    lines = [
        f"numerator factors: {doc['numeratorFactors']}",
        f"denominator factors: {doc['denominatorFactors']}",
        f"coefficients (to t^{args.trunc}): {formula_coeffs}",
        f"oracle agrees: {agrees}",
    ]
    _emit(args, lines, doc)
    return 0 if agrees else 1


def cmd_paving(args) -> int:
    _check_ceiling(args)
    h = _parse_h(args)
    table = paving(h)
    lines = [
        f"{r.w}  length={r.length}  Lambda={r.height}  dim={r.dim}"
        for r in table.rows
    ]
    poly_text = " + ".join(
        (f"{c}*q^{d}" if c > 1 else f"q^{d}") if d else str(c)
        for d, c in enumerate(table.coefficients)
        if c
    )
    lines.append(f"generating polynomial: {poly_text}")
    lines.append(f"max dimension: {table.max_dim}")
    doc = {"n": args.n, **table.to_json()}
    _emit(args, lines, doc)
    return 0


def _random_poly(ctx, rng, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        chosen = rng.sample(ctx.variables, min(3, len(ctx.variables)))
        mono = Monomial({v: rng.randint(0, 2) for v in chosen})
        terms[mono] = terms.get(mono, 0) + rng.randint(1, ctx.p - 1 or 1)
    return Polynomial(terms, ctx.p)


def cmd_frobenius_check(args) -> int:
    w = _parse_perm(args)
    h = _parse_h(args)
    if not is_fixed_point(w, h):  # before the splitting, which can take minutes
        raise ValueError(f"w={w} is not a fixed point for h={h}")
    ctx = make_splitting_context(w, args.p)
    report = compatibility_check(ctx, h)
    rng = random.Random(args.seed)
    axioms_ok = True
    for _ in range(20):
        a = _random_poly(ctx, rng)
        b = _random_poly(ctx, rng)
        if splitting_apply(a + b, ctx) != splitting_apply(a, ctx) + splitting_apply(b, ctx):
            axioms_ok = False
        if ctx.variables:
            z = rng.choice(list(ctx.variables))
            zp = Polynomial.variable(z, ctx.p) ** ctx.p
            if splitting_apply(zp * a, ctx) != Polynomial.variable(z, ctx.p) * splitting_apply(a, ctx):
                axioms_ok = False
    ok = report.all_compatible and axioms_ok
    doc = report.to_json()
    doc["axiomSpotChecks"] = axioms_ok
    doc["ok"] = ok
    lines = [
        f"phi(1) = 1: {report.splits_one}",
        f"axiom spot checks: {axioms_ok}",
    ]
    for k, l, r in report.entries:
        status = "ok" if r.is_zero else f"remainder {r.to_text()}"
        lines.append(f"phi(g_{k}_{l}) in ideal: {status}")
    lines.append("compatible" if ok else "NOT compatible")
    _emit(args, lines, doc)
    return 0 if ok else 1


_SCALARS = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    str: _encode_str,
}


def _json_value(value, pad: str) -> str:
    """`json.dumps(value, indent=2)` with `pad` before each line but the
    first; types other than None, bool, int, str and list go to json.dumps."""
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if type(value) is list:
        inner = pad + "  "
        items = (",\n" + inner).join(_json_value(v, inner) for v in value)
        return f"[\n{inner}{items}\n{pad}]" if value else "[]"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _case_json(case: dict) -> str:
    """One case as the report's indented case list holds it."""
    return "    {\n      " + ",\n      ".join(
        f"{_encode_str(key)}: {_json_value(value, '      ')}"
        for key, value in case.items()
    ) + "\n    }"


def _write_json_report(out, head: dict, cases, tail: dict) -> None:
    """Write `json.dumps({**head, "cases": [...], **tail}, indent=2)` and a newline."""
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "cases": [')
    sep = "\n"
    for case in cases:
        out.write(sep + _case_json(case))
        sep = ",\n"
    out.write("],\n" if sep == "\n" else "\n  ],\n")
    out.write(json.dumps(tail, indent=2)[2:] + "\n")


def cmd_sweep(args) -> int:
    primes = tuple(int(p) for p in args.frobenius.split(",")) if args.frobenius else ()
    opts = SweepOptions(primes, args.oracle_nonfixed, args.trunc, args.budget)
    head, cases, tail = iter_sweep(args.max_n, opts, args.jobs)
    summary = tail["summary"]
    if args.format == "json":
        _write_json_report(sys.stdout, head, cases, tail)
    else:
        for case in cases:
            if not case["ok"]:
                print(f"FAIL n={case['n']} h={case['h']} w={case['w']}: "
                      + "; ".join(case["failures"]))
        print(f"{summary['cases']} cases, {summary['fixedPointCases']} fixed points, "
              f"{summary['failedCases']} failures")
    return 0 if summary["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesscells",
        description="Exact ideals of Hessenberg Schubert cells: generators, "
        "Groebner certification, pavings, Hilbert series, Frobenius splittings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    trunc = argparse.ArgumentParser(add_help=False)
    trunc.add_argument("--trunc", type=int, default=30,
                       help="truncation order for series comparisons")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=100_000,
                        help="reduction-step budget for the completion oracle")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patch-gens", parents=[common],
                       help="patch generator matrix at w")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("cell-gens", parents=[common],
                       help="cell generator matrix at w")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--h", default=None)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("ideal", parents=[common],
                       help="ordered ideal presentation for (w, h)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--kind", choices=("patch", "cell"), required=True)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("fixed-points", parents=[common],
                       help="torus fixed points of the Hessenberg variety")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("gb-check", parents=[common, budget],
                       help="Groebner and triangularity certification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the rational completion oracle")
    p.set_defaults(func=cmd_gb_check)

    p = sub.add_parser("hilbert", parents=[common, trunc],
                       help="Hilbert series, closed form vs counting oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("paving", parents=[common],
                       help="affine paving cell dimensions for h")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=cmd_paving)

    p = sub.add_parser("frobenius-check", parents=[common],
                       help="Frobenius splitting compatibility mod p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized spot checks")
    p.set_defaults(func=cmd_frobenius_check)

    p = sub.add_parser("sweep", parents=[common, trunc, budget],
                       help="full verification sweep up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--frobenius", default=None,
                   help="comma separated primes, e.g. 2,3")
    p.add_argument("--oracle-nonfixed", action="store_true",
                   dest="oracle_nonfixed",
                   help="run the unit-ideal oracle at every n, not just n <= 4")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: auto)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # the package has no assert statements: this is a broken invariant
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 1


def main_script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_script()
