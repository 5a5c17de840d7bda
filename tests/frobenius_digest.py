"""One SHA-256 over every Frobenius splitting value at a given n and p.

    PYTHONPATH=src python tests/frobenius_digest.py --n 5 --p 5

For each w of size n, in `all_permutations` order, it hashes the JSON of
phi(1) and of phi(g) for each generator g of the splitting context, in the
context's order, then the JSON of the compatibility report of each
indecomposable h fixing w, in `enumerate_hessenberg` order.  Two versions
of the package that print the same digest compute the same splitting
values and reports.  It prints the counts and the digest on one line.
"""

import argparse
import hashlib
import json

from hesscells import (
    Polynomial,
    all_permutations,
    compatibility_check,
    enumerate_hessenberg,
    is_fixed_point,
    make_splitting_context,
    splitting_apply,
)


def digest(n: int, p: int) -> tuple:
    """(number of phi values, number of reports, SHA-256 hex digest)."""
    sha = hashlib.sha256()
    values = reports = 0

    def feed(doc):
        sha.update(json.dumps(doc, sort_keys=True).encode() + b"\n")

    hs = list(enumerate_hessenberg(n, indecomposable_only=True))
    for w in all_permutations(n):
        ctx = make_splitting_context(w, p)
        for f in [Polynomial.one(p)] + [g for _, _, g in ctx.generators]:
            feed(splitting_apply(f, ctx).to_json_dict())
            values += 1
        for h in hs:
            if is_fixed_point(w, h):
                feed(compatibility_check(ctx, h).to_json())
                reports += 1
    return values, reports, sha.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    args = parser.parse_args()
    values, reports, hexdigest = digest(args.n, args.p)
    print(f"n = {args.n}, p = {args.p}: {values} phi values, {reports} reports, "
          f"sha256 {hexdigest}")


if __name__ == "__main__":
    main()
