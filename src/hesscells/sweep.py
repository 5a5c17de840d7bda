"""Exhaustive verification sweep over (h, w) pairs.

For every n up to a ceiling, every indecomposable Hessenberg function h,
and every permutation w, the sweep classifies w as a fixed point or not.
Fixed points get the full battery: triangular analysis, the from-scratch
Buchberger check, the initial-term formula, homogeneity, the Hilbert
formula against its counting oracle, and optionally Frobenius
compatibility.  The two Hilbert series are compared exactly, as cancelled
products of factors (1 - t^e), so `trunc` changes no verdict.  Non-fixed
points must exhibit a constant generator, and at small n the rational
completion oracle must certify the unit ideal.  The oracle returns the
unit ideal at the first constant generator it reads, before any reduction
step, so at a non-fixed point `emptyCertified` repeats
`constantGenerator`; it is not an independent check there.

Each I_{w,h} selects the entries at `cells.ideal_positions(h)` of one
matrix, so the sweep runs in two phases.  Phase A (`_w_table`, once per w)
decides every case of w: it reads masks off that matrix (and off
`cells.index_filter`), each position (k, l) one bit, runs each check that
reads only the ideal once per distinct I_{w,h}, and returns one entry
(values, failures) per h.  What no h changes it takes once per w
(`_WFacts`): ℓ(w), v, the weights, the index filter's degrees, and per
generator position the initial term and weighted degree of g_{k,l}; the
Frobenius contexts of w share one splitting base.  Every check that reads
the ideal (the triangular report, the from-scratch Buchberger check, the
Hilbert series) still runs per ideal.  Phase B reads each case's entry
off w's table.
A pool runs phase A only, so each ideal is checked once.  Phase A runs
w-major, so the per-w caches under it (`cell_generators`, `order_n_w`,
...) hold only the w it checks.

`iter_sweep` is the one sweep path: it yields one row (h, w, entry) per
case in (n, h, w) order and tallies the summary from the entries, with no
case list: per n, phase A's tables come from one iterator, serial or
pooled, before n's first row.  `case_dict` turns a row into the report's
case, for `sweep()` and `run_case`; the CLI writes each row as it arrives
and encodes each distinct entry once.

Phase A's cost grows steeply with ℓ(w), the cell's dimension, so
`_run_cases` hands each n's w out longest first, in batches of 1, 1, 2, 2,
4, 4, ... w: the few long w are shared out one by one, and the many short
ones go in few tasks and even out the workers' finish.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import ge

from .cells import build_ideal, cell_generators, ideal_positions, index_filter
from .combinat import (
    Permutation,
    all_permutations,
    enumerate_hessenberg,
    fixed_points,  # bound for perfbench's combinat.fixed_points span
    least_hessenberg,
    v_of_w,
)
from .frobenius import compatibility_check, frobenius_ceiling, make_splitting_context
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
    generator_lead,
    order_n_w,
    reduced_gb_oracle,
    triangular_analysis,  # bound for perfbench's groebner.triangular_analysis span
    triangular_report,
)
from .polyring import Polynomial, zvar

ORACLE_NONFIXED_CEILING = 4
SWEEP_CEILING = 7
MAX_JOBS = 64


@dataclass(frozen=True)
class SweepOptions:
    frobenius_primes: tuple = ()
    oracle_nonfixed: bool = False
    trunc: int = 30
    budget: int = 100_000

    def __post_init__(self):
        # a tuple, so that the options can key `_TABLES`
        object.__setattr__(self, "frobenius_primes", tuple(self.frobenius_primes))


# Case keys from fixedPoint on, in report order, by fixedPoint.  An entry
# stops short of the keys it did not check: frobeniusOk without primes,
# emptyCertified without the oracle.
_KEYS = {
    True: ("fixedPoint", "Lambda", "dim", "triangularOk", "initialTermsOk", "gbOk",
           "homogeneousOk", "hilbertOk", "frobeniusOk"),
    False: ("fixedPoint", "constantGenerator", "emptyCertified"),
}
# (w.images, opts) -> `_w_table(w.images, opts)`, all that phase B reads;
# `_run_cases` holds one n's tables at a time, all stored before n's first
# case, and `run_case` fills it on a miss for a direct caller.
_TABLES = {}


def _mask(n: int, positions) -> int:
    """The integer with bit k * n + l set for each (k, l, ...) of `positions`."""
    return sum(1 << (k * n + l) for k, l, *_ in positions)


@lru_cache(maxsize=None)
def _h_facts(n: int) -> dict:
    """h.values -> (i, h, positions, miscount) for each indecomposable h of
    size n, in enumeration order: i is h's place in a w's table, positions
    is the `_mask` of h's `ideal_positions`, and miscount holds the failure
    when their number is not h's partition size."""
    facts = {}
    for i, h in enumerate(enumerate_hessenberg(n, indecomposable_only=True)):
        positions = _mask(n, ideal_positions(h))
        miscount = () if positions.bit_count() == h.lambda_size() else (
            "generator count differs from the partition size",)
        facts[h.values] = i, h, positions, miscount
    return facts


class _WFacts:
    """The facts of w that phase A reads for every ideal of w, each taken
    once per w: the order, ℓ(w), the weights, and the index filter's
    degree v(k) - v(l) - 1 of each position (k, l) below the diagonal that
    passes it; and per generator position, on first use, the facts of
    g_{k,l} (`generator`)."""

    def __init__(self, w: Permutation):
        n = w.n
        self.order, self.length, self.weights = order_n_w(w), w.length(), weights_for(w)
        below = [(k, l) for k in range(2, n + 1) for l in range(1, k)]
        self.degrees = {(k, l): d for k, l, d in index_filter(w, below)}
        v = v_of_w(w)
        self._v, self._v_inv = v.images, v.inverse().images  # _v[k - 1] = v(k)
        self._generators = {}

    def generator(self, k: int, l: int, g: Polynomial) -> tuple:
        """(`generator_lead` of g = g_{k,l}, whether its initial term is
        -z_{n+1-v(k), v^{-1}(v(l))}, g's weighted degree or None as
        `is_homogeneous` gives it), kept per position (k, l)."""
        got = self._generators.get((k, l))
        if got is None:
            lead, v = generator_lead(g, self.order), self._v
            formula = zvar(len(v) + 1 - v[k - 1], self._v_inv[v[l - 1]])
            got = self._generators[k, l] = (lead, lead[3] == -1 and lead[4] == formula,
                                            is_homogeneous(g, self.weights))
        return got


def _run_battery(pres, facts: _WFacts) -> tuple:
    """The checks of a fixed point that read only the ideal: the values
    of Lambda through hilbertOk and the failure messages, in report order.
    The per-generator facts come from w's `facts`; the triangular report,
    the Buchberger check and the Hilbert series are taken per ideal."""
    w = pres.w
    dim = facts.length - pres.height
    failures = []
    gens = pres.nonzero_generators()
    per_gen = [facts.generator(k, l, g) for k, l, g in gens]
    rep = triangular_report(pres, [lead for lead, _, _ in per_gen])
    if rep.height != pres.height:
        failures.append("nonzero generator count disagrees with the index filter")
    if rep.is_triangular and rep.dimension != dim:
        failures.append("free variable count disagrees with length minus height")

    init_ok = all(init for _, init, _ in per_gen)
    gb_ok = buchberger_check(pres.generator_polys(), facts.order)
    degrees = facts.degrees
    # a generator outside the filter has no degree: it fails, whatever
    # is_homogeneous says (None for a generator that is not homogeneous)
    hom_ok = all((k, l) in degrees and hom == degrees[k, l]
                 for (k, l, _), (_, _, hom) in zip(gens, per_gen))
    hilbert_ok = rep.is_triangular and (  # exact: see HilbertSeries.canonical
        hilbert_formula(w, pres.h).canonical()
        == hilbert_oracle(rep, facts.weights).canonical()
    )
    if pres.certifies_empty:
        failures.append("constant generator at a fixed point")
    values = (pres.height, dim, rep.is_triangular, init_ok, gb_ok, hom_ok, hilbert_ok)
    failures += [f"{key} failed" for key, ok in zip(_KEYS[True][3:], values[2:])
                 if not ok]
    return values, tuple(failures)


def _w_table(w_images: tuple, opts: SweepOptions) -> tuple:
    """Phase A: the entry (values from fixedPoint on, failures) of each case
    of w, one per h of `_h_facts(n)` in that order.  The h with an
    equal key share one entry, so each check that reads only the ideal runs
    once per distinct I_{w,h}: the battery and the Frobenius check (it reads
    only the generators) for the h fixing w, the oracle for the others.
    The facts of w that no h changes are taken once, in `_WFacts`."""
    w = Permutation(w_images)
    n, rows = w.n, cell_generators(w).rows
    below = [(k, l, rows[k - 1][l - 1]) for k in range(2, n + 1) for l in range(1, k)]
    facts = _WFacts(w)
    # the entries below the diagonal that are nonzero, nonzero constants, and
    # in the index filter
    nonzero = _mask(n, [(k, l) for k, l, g in below if not g.is_zero])
    constant = _mask(n, [(k, l) for k, l, g in below if not g.is_zero and g.is_constant])
    filtered = _mask(n, facts.degrees)
    hw = least_hessenberg(w)
    contexts = [make_splitting_context(w, p) for p in opts.frobenius_primes]
    oracle = n <= ORACLE_NONFIXED_CEILING or opts.oracle_nonfixed
    entries, table = {}, []
    for _, h, positions, miscount in _h_facts(n).values():
        fixed = all(map(ge, h.values, hw))  # h >= h_w: w is a fixed point of h
        if fixed:
            key = fixed, miscount, nonzero & positions, filtered & positions
        else:
            has_constant = (constant & positions) != 0
            key = fixed, miscount, has_constant, nonzero & positions if oracle else None
        if key not in entries:
            if fixed:
                values, failures = _run_battery(build_ideal(w, h), facts)
                if contexts:
                    ok = all(compatibility_check(c, h).all_compatible for c in contexts)
                    values += (ok,)
                    failures += () if ok else ("frobeniusOk failed",)
            else:
                values = (has_constant,)
                failures = () if has_constant else (
                    "no constant generator at a non-fixed point",)
                if oracle:
                    polys = build_ideal(w, h).generator_polys()
                    try:  # None: the oracle ran out of budget
                        unit = reduced_gb_oracle(polys, facts.order, opts.budget) == [
                            Polynomial.one()]
                    except BudgetExceededError:
                        unit = None
                    values += (unit,)
                    if unit is None:
                        failures += ("budget exhausted in the completion oracle",)
                    elif not unit:
                        failures += ("oracle did not certify the unit ideal",)
            entries[key] = (fixed, *values), miscount + failures
        table.append(entries[key])
    return tuple(table)


def case_dict(h_values: tuple, w_images: tuple, entry: tuple) -> dict:
    """The report's JSON-ready dict of one case: a row (h, w, entry) of the
    sweep, the entry (values, failures) from w's table."""
    values, failures = entry
    case = {"n": len(w_images), "h": list(h_values), "w": list(w_images)}
    case.update(zip(_KEYS[values[0]], values))
    case["failures"] = list(failures)
    case["ok"] = not failures
    return case


def run_case(args):
    """Look one (h, w) pair up in w's table, built here on a miss; returns
    its `case_dict`.  On a miss the options and w's size n are checked
    first, as `iter_sweep` checks them for max_n = n; then, as on a hit,
    ValueError unless h is an indecomposable Hessenberg function of size
    n."""
    h_values, w_images, opts = args
    n = len(w_images)
    table = _TABLES.get((w_images, opts))
    if table is None:
        _check_args("n", n, opts, 1)
    facts = _h_facts(n).get(h_values)
    if facts is None:
        raise ValueError(f"h = {h_values!r} is not an indecomposable Hessenberg "
                         f"function of size {n}")
    if table is None:
        table = _TABLES[w_images, opts] = _w_table(w_images, opts)
    return case_dict(h_values, w_images, table[facts[0]])


def _case_args(max_n: int):
    """Per n up to max_n: the h values in `_h_facts(n)` order and the w
    images, one tuple per w shared by every h of n."""
    for n in range(1, max_n + 1):
        yield list(_h_facts(n)), [w.images for w in all_permutations(n)]


def _batches(n_ws: list, cap: int) -> list:
    """n's w, longest first with ties in lexicographic order, in batches of
    1, 1, 2, 2, 4, 4, ... w, none over `cap`."""
    # a stable sort: ties keep the lexicographic order of n_ws
    ws = sorted(n_ws, key=lambda w: -Permutation(w).length())
    batches, start = [], 0
    while start < len(ws):
        size = min(cap, 1 << (len(batches) // 2))
        batches.append(ws[start:start + size])
        start += size
    return batches


def _w_tables(batch: list, opts: SweepOptions) -> list:
    """Phase A for each w of `batch`: one task of the pool, or of a serial run."""
    return [_w_table(w, opts) for w in batch]


def _run_cases(inputs: list, opts: SweepOptions, jobs: int):
    """Yield the row (h, w, entry) of each (hs, ws) of `inputs`, h in hs and
    w in ws (each ws in lexicographic order), the entry read off w's table.
    One iterator of phase A batches, run here or by a pool of `jobs`
    workers, yields each n's tables, stored by w before n's first row.

    Phase A's cost sits in the longest w: at n = 7 the mean CPU of a w
    grows about 3x per unit of ℓ(w) near the top, and the 184 longest w
    (3.7 %) take two thirds of it.  So each n's w are handed out longest
    first (longest-processing-time-first, Graham 1969); ℓ(w), the cell's
    dimension, is read off the input.  The batches grow 1, 1, 2, 2, 4, ...
    up to `cap`: the long w go out one or two at a time and are shared
    between the workers, and the short ones even out the workers' ends in
    few tasks, since each task costs a round trip to a worker.  The cap
    splits all the w into 16 chunks per worker."""
    cap = max(1, sum(len(n_ws) for _, n_ws in inputs) // (jobs * 16))
    batches = [_batches(n_ws, cap) for _, n_ws in inputs]
    queue = [batch for n_batches in batches for batch in n_batches]
    tables, pool = map(_w_tables, queue, repeat(opts)), None
    if jobs > 1 and len(queue) > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
            futures = deque(pool.submit(_w_tables, batch, opts) for batch in queue)
            tables = (futures.popleft().result() for _ in queue)  # dropped once read
        except OSError as exc:  # the pool cannot start: build the tables here
            import logging  # loaded already, by concurrent.futures

            logging.getLogger(__name__).warning(
                "hesscells sweep: no process pool (%s); building the tables serially",
                exc)
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            pool = None
    try:
        for (hs, n_ws), n_batches in zip(inputs, batches):
            _TABLES.clear()
            for batch, batch_tables in zip(n_batches, islice(tables, len(n_batches))):
                _TABLES.update(((w, opts), table)
                               for w, table in zip(batch, batch_tables))
            n_tables = [_TABLES[w, opts] for w in n_ws]
            for i, h in enumerate(hs):  # h's place in each table of n
                for w, table in zip(n_ws, n_tables):
                    yield h, w, table[i]
            del n_tables  # n's tables go before the next n's arrive
    finally:  # on an early close too: cancel the tables not started
        _TABLES.clear()
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _check_args(name: str, n: int, opts: SweepOptions, jobs: int | None) -> None:
    """Raise ValueError unless a sweep up to size n may run under `opts`
    with `jobs` workers: trunc as `check_exact_trunc` accepts it, n (called
    `name`) at most the ceiling of the options' primes, jobs (None: one
    per CPU) at most MAX_JOBS and budget at least 0.  Nothing here grows
    with n, so a refused n costs nothing."""
    check_exact_trunc(n, opts.trunc)
    primes = opts.frobenius_primes
    ceiling = frobenius_ceiling(primes) if primes else SWEEP_CEILING
    if not 1 <= n <= ceiling:
        raise ValueError(
            f"{name} must be between 1 and {ceiling}"
            + (f" for Frobenius checks at p = {','.join(map(str, primes))}"
               if primes else "")
        )
    if jobs is not None and not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {MAX_JOBS}")
    if opts.budget < 0:
        raise ValueError(f"budget must be at least 0, not {opts.budget}")


def iter_sweep(max_n: int, opts: SweepOptions, jobs: int | None = 1) -> tuple:
    """Check the arguments; return (head, rows, tail) of the report
    {**head, "cases": [...], **tail}.  `rows` yields the row (h values,
    w images, entry) of each case in (n, h, w) order for any job count, the
    entry (values, failures) shared with every case of an equal key of w's
    table; `case_dict(*row)` is the case.  `tail` holds the summary, and
    elapsedSeconds once the rows are exhausted.  `hilbertOk` compares the
    two series exactly; `trunc` is still checked by `check_exact_trunc` and
    reported, and no accepted value changes a verdict.  Serially as in a
    pool, all tables of n are built before n's first row: that moves no
    work and raises no peak, for n's first h reads every w's table, so all
    are held by the end of that h either way.  An error raised once `rows`
    has started is not one of the arguments."""
    _check_args("max_n", max_n, opts, jobs)
    primes = opts.frobenius_primes
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

    def rows():
        # in full before the first row: perfbench's set-up mark is its end
        inputs = list(_case_args(max_n))
        start = time.monotonic()
        for row in _run_cases(inputs, opts, workers):
            values, failures = row[2]
            summary["cases"] += 1
            summary["fixedPointCases"] += values[0]
            summary["failedCases"] += bool(failures)
            summary["ok"] = summary["ok"] and not failures
            yield row
        tail["elapsedSeconds"] = time.monotonic() - start

    return head, rows(), tail


def sweep(
    max_n: int,
    frobenius_primes=(),
    oracle_nonfixed: bool = False,
    trunc: int = 30,
    budget: int = 100_000,
    jobs: int | None = 1,
) -> dict:
    """Run the full verification sweep and return its report."""
    opts = SweepOptions(frobenius_primes, oracle_nonfixed, trunc, budget)
    head, rows, tail = iter_sweep(max_n, opts, jobs)
    report = {**head, "cases": [case_dict(*row) for row in rows]}
    report.update(tail)
    return report
