"""Command-line frontend.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check fails or an internal invariant breaks, 2 on usage errors, 3 when a
resource budget is exhausted, and 141 from `main_script` when stdout
is closed before the output is written.
JSON output is deterministic for fixed flags (the elapsedSeconds field of
sweep reports is the one timing exception).  The sweep report is written
h by h, in the bytes `json.dumps(report, indent=2)` would give: each distinct
entry through `json.dumps`, the int lists "h" and "w" through `_int_list`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    FROBENIUS_CEILINGS,
    compatibility_check,
    make_splitting_context,
)
from .grading_hilbert import (
    TRUNC_CEILING,
    check_trunc,
    hilbert_formula,
    hilbert_oracle,
    weights_for,
)
from .groebner import (
    BudgetExceededError,
    InternalError,
    buchberger_check,
    order_n_w,
    reduced_gb_oracle,
    triangular_analysis,
)
from .polyring import Polynomial
from .sweep import MAX_JOBS, SweepOptions, case_rows, check_size, entry_dict, iter_sweep
from .sweep import sweep  # bound for perfbench's sweep.sweep span


def _parse_perm(args) -> Permutation:
    s = args.w.strip()  # values separated by commas, or one digit each
    if (s.count(",") + 1 if "," in s else len(s)) != args.n:
        raise ValueError(f"permutation {args.w!r} does not have size {args.n}")
    return Permutation.parse(args.w)


def _parse_h(args) -> HessenbergFunction:
    if args.h.count(",") + 1 != args.n:
        raise ValueError(f"Hessenberg function {args.h!r} does not have size {args.n}")
    return HessenbergFunction.parse(args.h)


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
    check_size("n", args.n)
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
        "gvdSufficient": rep.is_triangular,
        "radicalCertified": rep.is_triangular,
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
    check_trunc(args.trunc)
    series = hilbert_formula(w, h)
    rep = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
    wt = weights_for(w)
    formula_coeffs = series.expand(args.trunc)
    agrees = series.equals(hilbert_oracle(rep, wt))
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
    check_size("n", args.n)
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


def cmd_frobenius_check(args) -> int:
    check_size("n", args.n, (args.p,))
    w = _parse_perm(args)
    h = _parse_h(args)
    # before the splitting context, whose cost the ceiling bounds
    if not is_fixed_point(w, h):
        raise ValueError(f"w={w} is not a fixed point for h={h}")
    report = compatibility_check(make_splitting_context(w, args.p), h)
    ok = report.all_compatible
    lines = [f"phi(1) = 1: {report.splits_one}"]
    for k, l, r in report.entries:
        status = "ok" if r.is_zero else f"remainder {r.to_text()}"
        lines.append(f"phi(g_{k}_{l}) in ideal: {status}")
    lines.append("compatible" if ok else "NOT compatible")
    _emit(args, lines, {**report.to_json(), "ok": ok})
    return 0 if ok else 1


_MEMO_TYPES = {type(None), bool, int, str}


def _int_list(values) -> str:
    """`json.dumps(list(values), indent=2)` of ints, indented as a case's item."""
    items = ",\n        ".join(map(int.__repr__, values))
    return f"[\n        {items}\n      ]" if values else "[]"


def _write_json_report(out, head: dict, stream, tail: dict) -> None:
    """Write `json.dumps({**head, "cases": [...], **tail}, indent=2)` and a
    newline, with the cases of `case_rows(stream)`.  As a table arrives,
    its entries go through `json.dumps` of their `entry_dict`, memoized by
    the entry and the exact types of its values (1 == True == 1.0; only
    _MEMO_TYPES, as 0.0 == -0.0), and w's "w" item and column of entry
    texts, one per h, are kept.  Once n's last table is in, each h's cases
    go out in one join and one write.  The "h" and "w" items, one per case,
    take `_int_list`: `json.dumps` there about doubled the writer's time."""
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "cases": [')
    texts, sep = {}, "\n"
    for hs, ws, tables in stream:
        columns = {}
        for w, (entries, index) in tables:
            strings = []
            for entry in entries:
                key = entry, *map(type, entry[0])
                text = texts.get(key)
                if text is None:  # less "{\n" and the first line's indent
                    text = json.dumps(entry_dict(entry), indent=2).replace("\n", "\n    ")[8:]
                    if set(key[1:]) <= _MEMO_TYPES:
                        texts[key] = text
                strings.append(text)
            columns[w] = (f',\n      "w": {_int_list(w)},\n      ',
                          [strings[place] for place in index])
        pieces = [None] * (3 * len(ws))
        pieces[1::3], columns = zip(*[columns.pop(w) for w in ws])
        for h, texts_of_h in zip(hs, zip(*columns)):
            h_item = f'    {{\n      "n": {len(ws[0])},\n      "h": {_int_list(h)}'
            pieces[::3] = [",\n" + h_item] * len(ws)
            pieces[0], pieces[2::3] = sep + h_item, texts_of_h
            out.write("".join(pieces))
            sep = ",\n"
    out.write("],\n" if sep == "\n" else "\n  ],\n")
    out.write(json.dumps(tail, indent=2)[2:] + "\n")


def cmd_sweep(args) -> int:
    opts = SweepOptions(args.frobenius, args.oracle_nonfixed, args.trunc, args.budget)
    head, stream, tail = iter_sweep(args.max_n, opts, args.jobs)
    summary = tail["summary"]
    try:
        if args.format == "json":
            _write_json_report(sys.stdout, head, stream, tail)
        else:
            for h, w, (_, failures) in case_rows(stream, failing=True):
                print(f"FAIL n={len(w)} h={list(h)} w={list(w)}: " + "; ".join(failures))
            print(f"{summary['cases']} cases, {summary['fixedPointCases']} fixed "
                  f"points, {summary['failedCases']} failures")
    except ValueError as exc:  # the arguments are checked: a broken invariant
        raise InternalError(exc) from exc
    return 0 if summary["ok"] else 1


def prime_list(text: str) -> tuple:
    """--frobenius: one integer or more, separated by commas."""
    if "" in map(str.strip, text.split(",")):
        raise argparse.ArgumentTypeError(f"must list primes separated by commas, not {text!r}")
    return tuple(map(int, text.split(",")))


def step_count(text: str) -> int:
    """--budget: a count of reduction steps, 0 or more."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _ceilings_help(flag: str) -> str:
    """The per-prime ceilings of Frobenius checks, said of `flag`."""
    ceilings = ", ".join(f"{n} at p = {p}" for p, n in FROBENIUS_CEILINGS.items())
    return f"{flag} is at most {ceilings}; no other prime is accepted"


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
                       help="order of the series coefficients hilbert prints, "
                       f"1 to {TRUNC_CEILING}; sweep only echoes it in its "
                       "report, and no verdict reads it")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=step_count, default=100_000,
                        help="reduction-step budget for the completion oracle")
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, required=True)
    perm = argparse.ArgumentParser(add_help=False)
    perm.add_argument("--w", required=True)
    hess = argparse.ArgumentParser(add_help=False)
    hess.add_argument("--h", required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patch-gens", parents=[common, size, perm],
                       help="patch generator matrix at w")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("cell-gens", parents=[common, size, perm],
                       help="cell generator matrix at w")
    p.add_argument("--h", default=None)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("ideal", parents=[common, size, perm, hess],
                       help="ordered ideal presentation for (w, h)")
    p.add_argument("--kind", choices=("patch", "cell"), required=True)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("fixed-points", parents=[common, size, hess],
                       help="torus fixed points of the Hessenberg variety")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("gb-check", parents=[common, budget, size, perm, hess],
                       help="Groebner and triangularity certification")
    p.add_argument("--oracle", action="store_true",
                   help="also run the rational completion oracle")
    p.set_defaults(func=cmd_gb_check)

    p = sub.add_parser("hilbert", parents=[common, trunc, size, perm, hess],
                       help="Hilbert series, closed form vs counting oracle")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("paving", parents=[common, size, hess],
                       help="affine paving cell dimensions for h")
    p.set_defaults(func=cmd_paving)

    p = sub.add_parser("frobenius-check", parents=[common, size, perm, hess],
                       help="Frobenius splitting compatibility mod p")
    p.add_argument("--p", type=int, required=True,
                   help="a prime; " + _ceilings_help("--n"))
    p.set_defaults(func=cmd_frobenius_check)

    p = sub.add_parser("sweep", parents=[common, trunc, budget],
                       help="full verification sweep up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--frobenius", type=prime_list, default=(),
                   help="comma separated primes, e.g. 2,3; "
                   + _ceilings_help("--max-n"))
    p.add_argument("--oracle-nonfixed", action="store_true",
                   dest="oracle_nonfixed",
                   help="run the unit-ideal oracle at every n, not just n <= 4")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"worker processes, 1 to {MAX_JOBS} (default: auto)")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError, IndexError) as exc:
        # InternalError is how the package reports a broken invariant; it
        # has no assert statements and no argument reaches an index bounds
        # check, so an AssertionError or IndexError is a broken one too
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 1


def main_script() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # point stdout at devnull, so that the flush at exit cannot fail
        # again (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, a shell's status for a process SIGPIPE ends
    sys.exit(code)


if __name__ == "__main__":
    main_script()
