"""Standard representations of every S-polynomial: evidence for `gbOk`
apart from the division kernel.

    PYTHONPATH=src python tests/gb_certificates.py --max-n 6

G is a Groebner basis iff every S-polynomial S(g_i, g_j) has a standard
representation S = sum q_k g_k, one in which no lead of q_k g_k exceeds
lead(S) (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2
§9; Becker and Weispfenning, Groebner Bases, 1993).  Such a
representation is checked with products and one equality, with no
division.  For each pair i < j of nonzero generators, `certify` forms S
with `s_polynomial` (`Polynomial` code, not the Buchberger check's packed
pair), takes `reduce`'s quotients of S by the generators and requires:
- a remainder of 0;
- sum q_k g_k, rebuilt with `Polynomial` products and sums, equal to S;
- every lead of q_k g_k at most lead(S) under `order.key`.
A division that drops or miscounts a term leaves a sum that is not S, so
the certificate fails even where the remainder it leaves is 0.

Per n it certifies each distinct fixed ideal (distinct per w) and prints
the counts and the seconds on one line; it exits 1 when any pair fails,
or 2 for a max-n outside 1..`SWEEP_CEILING`.
"""

import argparse
import sys
import time
from itertools import combinations

from hesscells import (
    Polynomial,
    all_permutations,
    build_ideal,
    enumerate_hessenberg,
    is_fixed_point,
    order_n_w,
)
from hesscells.groebner import reduce, s_polynomial
from hesscells.sweep import SWEEP_CEILING


def certify(polys, order) -> tuple:
    """(nonzero S-pairs, failures) of the nonzero `polys` under `order`:
    one failure (i, j, reason) per pair i < j of them whose S-polynomial
    has no standard representation from `reduce`'s quotients."""
    gens = [g for g in polys if not g.is_zero]
    pairs, failures = 0, []
    for i, j in combinations(range(len(gens)), 2):
        s = s_polynomial(gens[i], gens[j], order)
        if s.is_zero:
            continue
        pairs += 1
        quotients, remainder = reduce(s, gens, order)
        if not remainder.is_zero:
            failures.append((i, j, "remainder is not 0"))
            continue
        products = [q * g for q, g in zip(quotients, gens) if not q.is_zero]
        if sum(products, Polynomial.zero(s.char)) != s:
            failures.append((i, j, "sum of q_k g_k is not S"))
        top = max(map(order.key, s.terms))
        if any(max(map(order.key, p.terms)) > top for p in products):
            failures.append((i, j, "a lead of q_k g_k exceeds lead(S)"))
    return pairs, failures


def fixed_ideals(n: int):
    """(w, nonzero generators) of each fixed ideal of size n, distinct per w."""
    hs = list(enumerate_hessenberg(n, indecomposable_only=True))
    for w in all_permutations(n):
        seen = set()
        for h in hs:
            if is_fixed_point(w, h):
                gens = build_ideal(w, h).nonzero_generators()
                key = tuple((k, l) for k, l, _ in gens)
                if key not in seen:
                    seen.add(key)
                    yield w, [g for _, _, g in gens]


def check_n(n: int) -> tuple:
    """(ideals, nonzero S-pairs, failed pairs) over the fixed ideals of n."""
    ideals = pairs = failed = 0
    for w, gens in fixed_ideals(n):
        got, failures = certify(gens, order_n_w(w))
        ideals, pairs, failed = ideals + 1, pairs + got, failed + len(failures)
    return ideals, pairs, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=6, dest="max_n")
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= SWEEP_CEILING:
        print(f"max-n must be between 1 and {SWEEP_CEILING}", file=sys.stderr)
        return 2
    failed = 0
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        ideals, pairs, n_failed = check_n(n)
        failed += n_failed
        print(f"n = {n}: {ideals} fixed ideals, {pairs} nonzero S-pairs, "
              f"{n_failed} failures, {time.monotonic() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
