"""The packed division loop against its heap referee, on phase A's inputs.

    PYTHONPATH=src python tests/division_ab.py --w 7654321
    PYTHONPATH=src python tests/division_ab.py --max-n 6 --chunks 11

It records the inputs of every `hesscells.groebner._divide` call that
phase A of the sweep (`sweep._w_table`) makes for one w, or for every w
of size at most N.  It checks that `_divide` and
`division_reference.heap_divide` return equal (steps, remainder) on each
input, then replays all the inputs through both kernels once per chunk.
Within a chunk the two run back to back, the first of them alternating
from chunk to chunk, so that a drift of the host's speed falls on both
alike; whole-run timings on a host whose speed drifts cannot tell a 10 %
change.  It prints the inputs' sizes, each kernel's CPU time summed over
the chunks, and in how many chunks each was faster.  Exit 1 when the
kernels disagree on an input.  With the default 41 chunks, w0 takes
about 1.5 min at n = 7 and 35 min at n = 8 on a 2-CPU host.
"""

import argparse
import statistics
import sys
import time

from division_reference import heap_divide

from hesscells import Permutation, all_permutations
from hesscells import groebner
from hesscells.sweep import SweepOptions, _w_table


def record(ws) -> list:
    """(rem, divisors, guard, char) of each `_divide` call in phase A of
    each w, rem copied before the call consumes it."""
    calls, divide = [], groebner._divide

    def recording(rem, divisors, guard, char):
        calls.append((dict(rem), divisors, guard, char))
        return divide(rem, divisors, guard, char)

    groebner._divide = recording
    try:
        for w in ws:
            _w_table(w.images, SweepOptions())
    finally:
        groebner._divide = divide
    return calls


def cpu(kernel, calls) -> float:
    """CPU seconds of one pass of `kernel` over the inputs; the copies it
    consumes are made before the clock starts."""
    fresh = [(dict(rem), divisors, guard, char) for rem, divisors, guard, char in calls]
    start = time.process_time()
    for args in fresh:
        kernel(*args)
    return time.process_time() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--w", help="one permutation, as 7654321 or 7,6,5,4,3,2,1")
    which.add_argument("--max-n", type=int, dest="max_n", help="every w of size 1 to N")
    parser.add_argument("--chunks", type=int, default=41)
    args = parser.parse_args()
    if args.w is not None:
        ws = [Permutation.parse(args.w)]
    else:
        ws = [w for n in range(1, args.max_n + 1) for w in all_permutations(n)]
    calls = record(ws)
    if not calls:
        print("phase A made no division")
        return 0
    sizes = [len(rem) for rem, _, _, _ in calls]
    print(f"{len(ws)} w, {len(calls)} divisions, dividend terms: mean "
          f"{statistics.mean(sizes):.1f}, max {max(sizes)}")
    wrong = sum(groebner._divide(dict(rem), d, g, c) != heap_divide(dict(rem), d, g, c)
                for rem, d, g, c in calls)
    if wrong:
        print(f"the kernels disagree on {wrong} of {len(calls)} inputs")
        return 1
    print("both kernels return the same (steps, remainder) on every input")
    kernels = {"sorted list (_divide)": groebner._divide, "heap (heap_divide)": heap_divide}
    totals, wins = dict.fromkeys(kernels, 0.0), dict.fromkeys(kernels, 0)
    for k in range(args.chunks):
        names = list(kernels) if k % 2 == 0 else list(reversed(kernels))
        times = {name: cpu(kernels[name], calls) for name in names}
        for name, t in times.items():
            totals[name] += t
        wins[min(times, key=times.get)] += 1
    for name in kernels:
        print(f"{name}: {totals[name]:.3f} s CPU, faster in {wins[name]} of "
              f"{args.chunks} chunks")
    new, old = totals.values()
    print(f"sorted list / heap: {new / old:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
