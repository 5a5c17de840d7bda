"""One SHA-256 over every Frobenius splitting value at a given n and p.

    PYTHONPATH=src python tests/frobenius_digest.py --n 5 --p 5

For each w of size n, in `all_permutations` order, it hashes the JSON of
phi(1) and of phi(g) for each generator g of the splitting context, in the
context's order, then the JSON of the compatibility report of each
indecomposable h fixing w, in `enumerate_hessenberg` order.  Two versions
of the package that print the same digest compute the same splitting
values and reports.  It prints the counts and the digest on one line and,
where PINS holds one for (n, p), whether the two match; it exits 1 on a
mismatch.  An (n, p) that `FROBENIUS_CEILINGS` refuses exits 2 before any
work, with the message on stderr.  The slowest pin, (6, 3), takes about 7 s
on a 2-CPU host.
"""

import argparse
import hashlib
import json
import sys

from hesscells import (
    Polynomial,
    all_permutations,
    compatibility_check,
    enumerate_hessenberg,
    is_fixed_point,
    make_splitting_context,
    splitting_apply,
)
from hesscells.sweep import check_size

# (n, p) -> the digest of every splitting value and report at n and p
PINS = {
    (5, 5): "4738d18cb95c9406bb185dbb84468c74dde0e6de84d372e0b6cfb01b5bd5a8ef",
    (5, 3): "7df9307bbff6c3df97bb98a0c3d89a7b5b5ad38b96fcd37586266fe4c70f5596",
    (6, 2): "5f5605641c1a493b777f1a24f09846c94e745914c38778f4fb1661bd058e8f07",
    (6, 3): "617cac29fc5c39c1bf484cd1d83dcd2644800f71195d82637c5f670f65d114a4",
    (4, 7): "7961bf4566d79e0ba4ad1ac593f1b1b7c9d385413a23551bcdc65ce878c40dd2",
    (4, 11): "3150fd848f604adaafc1902c972da209c553773497e27ec6ff9e92ae8fd8b2ac",
    (4, 13): "141c4fd0be68535d404a7a5f8c781910a35a45aa8bbfa24ff6724888b6e48cbd",
    (4, 17): "b5cb2acc57a355e34b16028c544cd9ef2a726f93439bca9febad9a8e3c7dd86d",
    (4, 19): "86fac8fcbafde721fa88991cce5200f4fc723acf7981a918bb97c44ab723c2de",
}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        check_size("n", args.n, (args.p,))
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    values, reports, hexdigest = digest(args.n, args.p)
    pin = PINS.get((args.n, args.p))
    verdict = "no pin" if pin is None else "matches the pin" if hexdigest == pin else (
        f"MISMATCH, pinned {pin}")
    print(f"n = {args.n}, p = {args.p}: {values} phi values, {reports} reports, "
          f"sha256 {hexdigest} ({verdict})")
    return 1 if pin is not None and hexdigest != pin else 0


if __name__ == "__main__":
    sys.exit(main())
