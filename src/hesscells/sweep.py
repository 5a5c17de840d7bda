"""Exhaustive verification sweep over (h, w) pairs.

For every n up to a ceiling, every indecomposable Hessenberg function h,
and every permutation w, the sweep classifies w as a fixed point or not.
Fixed points get the full battery: triangular analysis, the from-scratch
Buchberger check, the initial-term formula, homogeneity, the Hilbert
formula against its counting oracle, and optionally Frobenius
compatibility.  Non-fixed points must exhibit a constant generator, and
at small n the rational completion oracle must certify the unit ideal.
The oracle returns the unit ideal at the first constant generator it
reads, before any reduction step, so at a non-fixed point
`emptyCertified` repeats `constantGenerator`; it is not an independent
check there.

`iter_sweep` is the one sweep path: it yields the cases in (n, h, w)
order and tallies the summary.  `sweep()` collects them into one report;
the CLI writes each case as it arrives and keeps none.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

from .cells import build_ideal
from .combinat import (
    HessenbergFunction,
    Permutation,
    all_permutations,
    enumerate_hessenberg,
    fixed_points,  # bound for perfbench's combinat.fixed_points span
    is_fixed_point,
    v_of_w,
)
from .frobenius import compatibility_check, is_prime, make_splitting_context
from .grading_hilbert import (
    check_exact_trunc,
    hilbert_formula,
    hilbert_oracle,
    is_homogeneous,
    weights_for,
)
from .groebner import (
    BudgetExceededError,
    buchberger_check,
    order_n_w,
    reduced_gb_oracle,
    triangular_analysis,
)
from .polyring import Polynomial, zvar

ORACLE_NONFIXED_CEILING = 4
FROBENIUS_CEILING = 4
SWEEP_CEILING = 7
# Cases per task sent to a pool worker, at most.
MAX_CHUNK = 4096


@dataclass(frozen=True)
class SweepOptions:
    frobenius_primes: tuple = ()
    oracle_nonfixed: bool = False
    trunc: int = 30
    budget: int = 100_000


@lru_cache(maxsize=None)
def _frobenius_verdicts(w: Permutation, p: int) -> dict:
    """h.values -> whether the one splitting of the cell of w mod p is
    compatible with I_{w,h}, for every indecomposable h fixing w."""
    ctx = make_splitting_context(w, p)
    return {
        h.values: compatibility_check(ctx, h).all_compatible
        for h in enumerate_hessenberg(w.n, indecomposable_only=True)
        if is_fixed_point(w, h)
    }


def run_case(args):
    """Run all checks for one (h, w) pair; returns a JSON-ready dict."""
    h_values, w_images, opts = args
    h = HessenbergFunction(h_values)
    w = Permutation(w_images)
    n = h.n
    v = v_of_w(w)
    case = {"n": n, "h": list(h_values), "w": list(w_images)}
    failures = []

    fixed = is_fixed_point(w, h)
    case["fixedPoint"] = fixed
    pres = build_ideal(w, h, "cell")
    if pres.lambda_size != h.lambda_size():
        failures.append("generator count differs from the partition size")
    order = order_n_w(w)

    if fixed:
        case["Lambda"] = pres.height
        case["dim"] = w.length() - pres.height
        rep = triangular_analysis(pres, order)
        case["triangularOk"] = rep.is_triangular
        if rep.height != pres.height:
            failures.append("nonzero generator count disagrees with the index filter")
        if rep.is_triangular and rep.dimension != case["dim"]:
            failures.append("free variable count disagrees with length minus height")

        init_ok = True
        vi, v_inv = v.images, v.inverse().images  # vi[k - 1] = v(k)
        for (k, l, _), (sign, var) in zip(
            rep.ordered_generators, rep.initial_terms
        ):
            expected = zvar(n + 1 - vi[k - 1], v_inv[vi[l - 1]])
            if sign != -1 or var != expected:
                init_ok = False
        case["initialTermsOk"] = init_ok

        case["gbOk"] = buchberger_check(pres.generator_polys(), order)

        wt = weights_for(w)
        hom_ok = all(
            is_homogeneous(g, wt) == vi[k - 1] - vi[l - 1] - 1
            for k, l, g in pres.nonzero_generators()
        )
        case["homogeneousOk"] = hom_ok

        if rep.is_triangular:
            series = hilbert_formula(w, h)
            case["hilbertOk"] = (
                series.expand(opts.trunc) == hilbert_oracle(rep, wt, opts.trunc)
            )
        else:
            case["hilbertOk"] = False

        if opts.frobenius_primes:
            case["frobeniusOk"] = all(
                _frobenius_verdicts(w, p)[h.values] for p in opts.frobenius_primes
            )

        if pres.certifies_empty:
            failures.append("constant generator at a fixed point")
        for key in ("triangularOk", "initialTermsOk", "gbOk",
                    "homogeneousOk", "hilbertOk", "frobeniusOk"):
            if not case.get(key, True):
                failures.append(f"{key} failed")
    else:
        constant = pres.certifies_empty
        case["constantGenerator"] = constant
        if not constant:
            failures.append("no constant generator at a non-fixed point")
        if n <= ORACLE_NONFIXED_CEILING or opts.oracle_nonfixed:
            try:
                basis = reduced_gb_oracle(
                    pres.generator_polys(), order, opts.budget
                )
                unit = basis == [Polynomial.one()]
                case["emptyCertified"] = unit
                if not unit:
                    failures.append("oracle did not certify the unit ideal")
            except BudgetExceededError:
                case["emptyCertified"] = None
                failures.append("budget exhausted in the completion oracle")

    case["failures"] = failures
    case["ok"] = not failures
    return case


def _case_args(max_n: int, opts: SweepOptions):
    for n in range(1, max_n + 1):
        perms = [w.images for w in all_permutations(n)]
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            for w in perms:
                yield (h.values, w, opts)


def _run_cases(args: list, jobs: int):
    """Yield run_case(a) for each a in args, in order, on `jobs` workers."""
    if jobs > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, min(len(args) // (jobs * 4), MAX_CHUNK))
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
            results = pool.map(run_case, args, chunksize=chunk)
        except OSError:  # the pool cannot start: run serially
            if pool is not None:
                pool.shutdown()
        else:
            try:
                yield from results
            finally:  # on an early close too: cancel the chunks not started
                pool.shutdown(cancel_futures=True)
            return
    for a in args:
        yield run_case(a)


def iter_sweep(max_n: int, opts: SweepOptions, jobs: int | None = 1) -> tuple:
    """Check the arguments; return (head, cases, tail) of the report
    {**head, "cases": [...], **tail}.  `cases` yields the case dicts in
    (n, h, w) order for any job count; `tail` holds their summary, and
    elapsedSeconds once they are exhausted.  `hilbertOk` compares series
    up to t^trunc, which `check_exact_trunc` requires to be exact."""
    check_exact_trunc(max_n, opts.trunc)
    primes = opts.frobenius_primes
    ceiling = FROBENIUS_CEILING if primes else SWEEP_CEILING
    if not 1 <= max_n <= ceiling:
        raise ValueError(
            f"max_n must be between 1 and {ceiling}"
            + (" when Frobenius checks are enabled" if primes else "")
        )
    for p in primes:  # before any case is written
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    head = {
        "maxN": max_n,
        "options": {
            "frobeniusPrimes": list(primes),
            "oracleNonfixed": opts.oracle_nonfixed,
            "trunc": opts.trunc,
            "budget": opts.budget,
        },
    }
    workers = min(os.cpu_count() or 1, 8) if jobs is None else jobs
    summary = {"cases": 0, "fixedPointCases": 0, "failedCases": 0, "ok": True}
    tail = {"summary": summary, "elapsedSeconds": None}

    def cases():
        # in full before the first case: perfbench's set-up mark is its end
        args = list(_case_args(max_n, opts))
        start = time.monotonic()
        for case in _run_cases(args, workers):
            summary["cases"] += 1
            summary["fixedPointCases"] += case["fixedPoint"]
            summary["failedCases"] += not case["ok"]
            summary["ok"] = summary["ok"] and case["ok"]
            yield case
        tail["elapsedSeconds"] = time.monotonic() - start

    return head, cases(), tail


def sweep(
    max_n: int,
    frobenius_primes=(),
    oracle_nonfixed: bool = False,
    trunc: int = 30,
    budget: int = 100_000,
    jobs: int | None = 1,
) -> dict:
    """Run the full verification sweep and return its report."""
    opts = SweepOptions(tuple(frobenius_primes), oracle_nonfixed, trunc, budget)
    head, cases, tail = iter_sweep(max_n, opts, jobs)
    report = {**head, "cases": list(cases)}
    report.update(tail)
    return report
