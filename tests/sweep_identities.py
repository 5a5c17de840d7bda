"""Flag duality and the product formula over every case of the sweep.

    PYTHONPATH=src python tests/sweep_identities.py --max-n 7 --jobs 2

It reads each n's tables from `iter_sweep(max_n, SweepOptions(), jobs)`
once, with no row walk, and checks two identities on them:
- flag duality: the entry of (h, w) equals the entry of (h^T, w0 w w0),
  with `dual_h` and `dual_w` of tests/cells_reference.py;
- Anderson-Tymoczko's product formula: for each h, the fixed cases' dims
  give the coefficients of `q_integer_product` of the h(j) - j + 1.
It prints one line of counts per n and exits 1 on any mismatch, or 2 when
`iter_sweep` refuses the arguments.
"""

import argparse
import sys
from collections import Counter
from contextlib import closing

from cells_reference import dual_h, dual_w, q_integer_product

from hesscells.sweep import SweepOptions, iter_sweep


def check_n(hs: list, tables: dict) -> tuple:
    """(duality mismatches, product formula mismatches) of one n, whose h
    values are `hs` in table order and whose tables are w -> (entries, index)."""
    dual_place = [hs.index(dual_h(h)) for h in hs]
    dual_mismatches = 0
    dims = [Counter() for _ in hs]
    for w, (entries, index) in tables.items():
        dual_entries, dual_index = tables[dual_w(w)]
        for i, place in enumerate(index):
            entry = entries[place]
            dual_mismatches += entry != dual_entries[dual_index[dual_place[i]]]
            if entry[0][0]:  # a fixed point: its values are fixedPoint, Lambda, dim, ...
                dims[i][entry[0][2]] += 1
    formula_mismatches = sum(
        [dim[d] for d in range(max(dim, default=-1) + 1)]
        != q_integer_product([b - j for j, b in enumerate(h)])
        for h, dim in zip(hs, dims))
    return dual_mismatches, formula_mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        _, stream, _ = iter_sweep(args.max_n, SweepOptions(), args.jobs)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    failed = False
    with closing(stream):
        for hs, ws, tables in stream:
            dual, formula = check_n(hs, dict(tables))
            failed |= bool(dual or formula)
            print(f"n = {len(ws[0])}: {len(hs) * len(ws)} cases, {len(hs)} h; flag "
                  f"duality {dual} mismatches, product formula {formula} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
