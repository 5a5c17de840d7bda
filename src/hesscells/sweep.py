"""Exhaustive verification sweep over (h, w) pairs.

For every n up to a ceiling, every indecomposable Hessenberg function h,
and every permutation w, the sweep classifies w as a fixed point or not.
Fixed points get the full battery: triangular analysis, the from-scratch
Buchberger check, the initial-term formula, homogeneity, the Hilbert
formula against its counting oracle, and optionally Frobenius
compatibility.  The two Hilbert series N1/D1 and N2/D2, products of
factors (1 - t^e), are compared exactly by `HilbertSeries.equals`, as the
multisets N1 + D2 and N2 + D1, so `trunc` changes no verdict.  Non-fixed
points must exhibit a constant generator, and at small n the rational
completion oracle must certify the unit ideal.  The oracle returns the
unit ideal at the first constant generator it reads, before any reduction
step, so at a non-fixed point `emptyCertified` repeats
`constantGenerator`; it is not an independent check there.

Each I_{w,h} selects the entries at `cells.ideal_positions(h)` of one
matrix, so the sweep runs in two phases.  Phase A (`_w_table`, once per w)
decides every case of w.  `_WFacts` holds what no h changes, taken once:
ℓ(w), v, the weights, the index filter's degrees, masks of the matrix's
nonzero, constant and filtered entries (one bit per position (k, l)), one
splitting context per prime on one splitting base, and per generator
position the initial term and weighted degree of g_{k,l}.  Per h, phase A
builds one key, makes one dict probe and reads whether w fixes h off
`_fixed_flags`; each check that reads the ideal runs once per distinct
I_{w,h}.  `_run_battery` runs a fixed point's checks, Frobenius among
them, and names each false verdict "{key} failed", in report order.
Phase B reads each case's entry off w's table.
A pool runs phase A only, so each ideal is checked once.  Phase A runs
w-major, so the per-w caches under it (`cell_generators`, `order_n_w`,
...) hold only the w it checks.

`iter_sweep` is the one sweep path, with no case list: per n, its stream
hands on each table (w's distinct entries, one index of them per h) as it
arrives, serial or pooled, tallies the summary from the index, and ends
with n's last table.  `case_rows` reads the rows (h, w, entry) off it in
(n, h, w) order, for `sweep()`, or only the failing rows, for the text
report; `case_dict` makes a row the report's case, ending in `entry_dict`.

Phase A's cost grows steeply with ℓ(w), the cell's dimension, so
`_run_cases` hands each n's w out longest first, in batches of 1, 1, 2, 2,
4, 4, ... w: the few long w are shared out one by one, and the many short
ones go in few tasks and even out the workers' finish.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter, deque
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import ge

from .cells import build_ideal, cell_generators, ideal_positions, index_filter
from .combinat import (
    Permutation,
    all_permutations,
    check_integer,
    check_integers,
    enumerate_hessenberg,
    fixed_points,  # bound for perfbench's combinat.fixed_points span
    least_hessenberg,
    v_of_w,
)
from .frobenius import (
    compatibility_check,
    frobenius_ceiling,
    make_splitting_context,
)
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
# (w.images, opts) -> its `_w_table`, filled by `run_case` on a miss
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
    """Every fact of w that phase A reads, each taken once per w: the
    order, ℓ(w), the weights, the index filter's degree v(k) - v(l) - 1 of
    each position (k, l) below the diagonal that passes it, the `_mask`s of
    the nonzero, constant and filtered entries below the diagonal of w's
    matrix, one splitting context per prime of `primes`; and per generator
    position, on first use, the facts of g_{k,l} (`generator`)."""

    def __init__(self, w: Permutation, primes: tuple = ()):
        n, rows = w.n, cell_generators(w).rows
        self.order, self.length, self.weights = order_n_w(w), w.length(), weights_for(w)
        below = [(k, l) for k in range(2, n + 1) for l in range(1, k)]
        self.degrees = {(k, l): d for k, l, d in index_filter(w, below)}
        self.nonzero = self.constant = 0
        for k, l in below:
            if g := rows[k - 1][l - 1]:
                self.nonzero |= 1 << (k * n + l)
                self.constant |= g.is_constant << (k * n + l)
        self.filtered = _mask(n, self.degrees)
        self.contexts = [make_splitting_context(w, p) for p in primes]
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


def _run_battery(pres, facts: _WFacts, constant: bool) -> tuple:
    """The checks of a fixed point that read only the ideal: the values
    of Lambda through hilbertOk, then frobeniusOk if w's `facts` hold
    splitting contexts, and the failure messages in report order, a false
    verdict failing as "{key} failed".  The per-generator facts come from
    `facts`, and `constant` says whether a generator is a nonzero constant;
    the triangular report and the other checks are taken per ideal."""
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
    gb_ok = buchberger_check([g for _, _, g in gens], facts.order)
    degrees = facts.degrees
    # a generator outside the filter has no degree: it fails, whatever
    # is_homogeneous says (None for a generator that is not homogeneous)
    hom_ok = all((k, l) in degrees and hom == degrees[k, l]
                 for (k, l, _), (_, _, hom) in zip(gens, per_gen))
    hilbert_ok = rep.is_triangular and hilbert_formula(pres.w, pres.h).equals(
        hilbert_oracle(rep, facts.weights))  # exact: see HilbertSeries.equals
    if constant:
        failures.append("constant generator at a fixed point")
    values = (pres.height, dim, rep.is_triangular, init_ok, gb_ok, hom_ok, hilbert_ok)
    if facts.contexts:
        values += (all(compatibility_check(c, pres.h).all_compatible
                       for c in facts.contexts),)
    failures += [f"{key} failed" for key, ok in zip(_KEYS[True][3:], values[2:])
                 if not ok]
    return values, tuple(failures)


@lru_cache(maxsize=None)
def _fixed_flags(hw: tuple) -> bytes:
    """Per h of `_h_facts(len(hw))`, 1 if h >= hw (h fixes each w of h_w = hw), else 0."""
    return bytes(all(map(ge, h.values, hw)) for _, h, _, _ in _h_facts(len(hw)).values())


def _w_table(w_images: tuple, opts: SweepOptions) -> tuple:
    """Phase A: w's table (entries, index), the i-th h of `_h_facts(n)`
    having the entry (values from fixedPoint on, failures) entries[index[i]].
    The h with an equal key share one entry, so each check that reads only
    the ideal runs once per distinct I_{w,h}: the battery, the Frobenius
    check among it, for the h fixing w, the oracle for the others.  Every
    fact of w is taken once, in `_WFacts`."""
    w = Permutation(w_images)
    n, facts = w.n, _WFacts(w, opts.frobenius_primes)
    nonzero, constant, filtered = facts.nonzero, facts.constant, facts.filtered
    oracle = n <= ORACLE_NONFIXED_CEILING or opts.oracle_nonfixed
    entries, places, index = [], {}, array("H")  # 429 h at n = 8: not bytes
    for (_, h, positions, miscount), fixed in zip(_h_facts(n).values(),
                                                  _fixed_flags(least_hessenberg(w))):
        # a fixed point's key has three items and another's two; constant
        # is a part of nonzero, so nonzero & positions says has_constant
        if fixed:
            key = miscount, nonzero & positions, filtered & positions
        else:
            key = miscount, (nonzero & positions) if oracle else (constant & positions) != 0
        place = places.get(key)
        if place is None:
            has_constant = (constant & positions) != 0
            if fixed:
                values, failures = _run_battery(build_ideal(w, h), facts, has_constant)
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
            place = places[key] = len(entries)
            entries.append(((bool(fixed), *values), miscount + failures))
        index.append(place)
    return tuple(entries), index


def entry_dict(entry: tuple) -> dict:
    """A case's keys fixedPoint through ok, of an entry (values, failures)."""
    values, failures = entry
    return {**dict(zip(_KEYS[values[0]], values)), "failures": list(failures),
            "ok": not failures}


def case_dict(h_values: tuple, w_images: tuple, entry: tuple) -> dict:
    """The report's JSON-ready dict of one case: a row (h, w, entry) of
    `case_rows`, the entry from w's table."""
    return {"n": len(w_images), "h": list(h_values), "w": list(w_images), **entry_dict(entry)}


def run_case(args):
    """Look one (h, w) pair up in w's table, built here on a miss; returns
    its `case_dict`.  ValueError first unless h and w hold ints (an equal
    float would find the ints' table); on a miss, next unless the options
    and w's size n pass as `iter_sweep` checks them for max_n = n; then, as
    on a hit, unless h is an indecomposable Hessenberg function of size n."""
    h_values, w_images, opts = args
    check_integers("h", h_values)
    check_integers("w", w_images)
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
    entries, index = table
    return case_dict(h_values, w_images, entries[index[facts[0]]])


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
    """Yield (hs, ws, tables) per (hs, ws) of `inputs`, `tables` yielding
    (w, w's table) as w's batch arrives, to be read out before the next n:
    one phase A iterator, `map` of `_w_tables` over the batches, run here
    or by `ProcessPoolExecutor.map` with `jobs` workers, serves every n.
    The executor's `map` submits every batch at once, yields the tables in
    order and drops each once read; closing the pool cancels the batches
    not started.

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
            tables = pool.map(_w_tables, queue, repeat(opts))
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
            arrived = zip(n_batches, islice(tables, len(n_batches)))
            yield hs, n_ws, (pair for batch, got in arrived for pair in zip(batch, got))
    finally:  # on an early close too: cancel the tables not started
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def check_size(name: str, n: int, primes: tuple = ()) -> None:
    """Raise ValueError unless 1 <= n (called `name`) <= the least
    `frobenius_ceiling` of `primes`, or SWEEP_CEILING without primes."""
    ceiling = frobenius_ceiling(primes) if primes else SWEEP_CEILING
    if not 1 <= n <= ceiling:
        raise ValueError(
            f"{name} must be between 1 and {ceiling}"
            + (f" for Frobenius checks at p = {','.join(map(str, primes))}"
               if primes else "")
        )


def _check_args(name: str, n: int, opts: SweepOptions, jobs: int | None) -> None:
    """Raise ValueError unless a sweep up to size n may run under `opts`
    with `jobs` workers: n (called `name`), trunc, budget and jobs (None:
    one per CPU) each an int (`check_integer`), trunc as
    `check_exact_trunc` accepts it, n as `check_size` accepts it at the
    options' primes, jobs at most MAX_JOBS, budget at least 0 and
    oracle_nonfixed a bool.  Nothing here grows with n, so a refused n costs nothing."""
    for key, value in ((name, n), ("trunc", opts.trunc), ("budget", opts.budget),
                       ("jobs", 1 if jobs is None else jobs)):
        check_integer(key, value)
    if type(opts.oracle_nonfixed) is not bool:
        raise ValueError(f"oracle_nonfixed must be a bool, not {opts.oracle_nonfixed!r}")
    check_exact_trunc(n, opts.trunc)
    check_size(name, n, opts.frobenius_primes)
    if jobs is not None and not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {MAX_JOBS}")
    if opts.budget < 0:
        raise ValueError(f"budget must be at least 0, not {opts.budget}")


def iter_sweep(max_n: int, opts: SweepOptions, jobs: int | None = 1) -> tuple:
    """Check the arguments; return (head, stream, tail) of the report
    {**head, "cases": [...], **tail}.  Per n, `stream` yields (hs, ws,
    tables): n's h values in `_h_facts(n)` order, its w images in
    lexicographic order, and (w, `_w_table` of w) per w as it arrives,
    longest first; what is unread is read before the next n.  `tail` holds
    the summary, tallied per table, and elapsedSeconds once the stream is
    exhausted.  `hilbertOk` is exact: no accepted `trunc` changes a verdict.
    An error raised once `stream` has started is not one of the arguments."""
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

    def tally(arrival):
        entries, index = arrival[1]
        for place, count in Counter(index).items():
            values, failures = entries[place]
            summary["cases"] += count
            summary["fixedPointCases"] += count if values[0] else 0
            summary["failedCases"] += count if failures else 0
        summary["ok"] = not summary["failedCases"]
        return arrival

    def stream():
        # in full before the first table: perfbench's set-up mark is its end
        inputs = list(_case_args(max_n))
        start = time.monotonic()
        for hs, ws, tables in _run_cases(inputs, opts, workers):
            yield hs, ws, (tables := map(tally, tables))
            deque(tables, maxlen=0)  # the tables the consumer left unread
        tail["elapsedSeconds"] = time.monotonic() - start

    return head, stream(), tail


def case_rows(stream, failing: bool = False):
    """Yield the row (h values, w images, entry) of each case of an
    `iter_sweep` stream in (n, h, w) order, once all of n's tables are in;
    with `failing`, only the rows whose entry has failures, and no row is
    walked of an n whose tables hold no failing entry."""
    with closing(stream):  # closing the rows closes the stream, and its pool
        for hs, ws, tables in stream:
            n_tables = dict(tables)
            if failing and not any(f for entries, _ in n_tables.values() for _, f in entries):
                continue
            n_tables = [*map(n_tables.get, ws)]
            for i, h in enumerate(hs):
                for w, (entries, index) in zip(ws, n_tables):
                    if not failing or entries[index[i]][1]:
                        yield h, w, entries[index[i]]


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
    head, stream, tail = iter_sweep(max_n, opts, jobs)
    report = {**head, "cases": [case_dict(*row) for row in case_rows(stream)]}
    report.update(tail)
    return report
