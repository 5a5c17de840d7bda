"""The independence map: which src functions each certification route
reaches.

The sweep certifies the Groebner basis twice (`triangular_analysis`, run
as its per-generator and per-ideal steps, against the from-scratch
`buchberger_check`), the Hilbert series twice (`hilbert_formula`, whose
numerator the sweep reads off w's index filter, against `hilbert_oracle`),
`dim` twice (ℓ(w) less the index filter's count, against the triangular
report's free variables) and, at a non-fixed point, emptiness twice
(`is_fixed_point`, through h_w, against the constant generator of the
ideal built from w's matrix).  A change that joins two routes of one
theorem fails here, and must say so.  Each route
runs on one small case under `sys.setprofile`, with every per-w cache and
`ideal_positions` emptied first so that a value the other route cached
hides nothing.  The src functions it reaches are keyed by (file, first
line), so that two comprehensions do not match by name.  The per-case
input (the ideal's generators, the order, the triangular report and the
weights the oracle reads) is built outside the routes: it is shared by
design.
"""

import sys
from pathlib import Path

from per_w_caches import per_w_caches

from hesscells import HessenbergFunction, Permutation, Polynomial, build_ideal
from hesscells.cells import cell_degrees, ideal_positions
from hesscells.combinat import is_fixed_point
from hesscells.grading_hilbert import HilbertSeries, hilbert_formula, hilbert_oracle, weights_for
from hesscells.groebner import buchberger_check, order_n_w, triangular_analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "hesscells"
CACHES = per_w_caches()

# w = 54231, h = 2,4,5,5,5: four generators, a free variable, both series
W, H = Permutation([5, 4, 2, 3, 1]), HessenbergFunction([2, 4, 5, 5, 5])
# and h = 2,3,4,5,5, which w does not fix: a constant generator
H_EMPTY = HessenbergFunction([2, 3, 4, 5, 5])

# (function, reason) of each src function two routes may share
GROEBNER_SHARED = (
    (Polynomial.is_zero.fget, "both skip the zero generators of the ideal"),
)
HILBERT_SHARED = (
    (HilbertSeries.__post_init__, "both build the series they are compared as"),
)
DIM_SHARED = ()
EMPTY_SHARED = (
    (Permutation.n.fget, "both compare the sizes of w and h"),
    (HessenbergFunction.n.fget, "both compare the sizes of w and h"),
    (Permutation.__hash__, "both look w up in a per-w cache"),
    (Permutation.inverse, "h_w reads w^-1, and so do the cell's matrix and "
                          "its coordinates z_{i,j}, i < w(j)"),
)


def reached(fn, *args) -> set:
    """The (file, first line) of each src function a call of fn reaches."""
    for cached in (*CACHES, ideal_positions):
        cached.cache_clear()
    seen = set()
    src = str(SRC)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            seen.add((Path(frame.f_code.co_filename).name, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def keys(shared) -> set:
    """The keys of each allowed function and of the comprehensions in it."""
    out = set()
    codes = [fn.__code__ for fn, _ in shared]
    while codes:
        code = codes.pop()
        out.add((Path(code.co_filename).name, code.co_firstlineno))
        codes += [c for c in code.co_consts if hasattr(c, "co_firstlineno")]
    return out


def test_groebner_routes_share_only_the_allowlist():
    pres, order = build_ideal(W, H), order_n_w(W)
    polys = pres.generator_polys()
    triangular = reached(triangular_analysis, pres, order)
    buchberger = reached(buchberger_check, polys, order)
    assert triangular and buchberger
    assert triangular & buchberger == keys(GROEBNER_SHARED)


def test_hilbert_routes_share_only_the_allowlist():
    pres = build_ideal(W, H)
    rep, wt = triangular_analysis(pres, order_n_w(W)), weights_for(W)
    assert rep.is_triangular and rep.free_variables
    formula = reached(hilbert_formula, W, H)
    oracle = reached(hilbert_oracle, rep, wt)
    assert formula and oracle
    assert formula & oracle == keys(HILBERT_SHARED)


def test_dim_routes_share_only_the_allowlist():
    pres, order = build_ideal(W, H), order_n_w(W)
    rep = triangular_analysis(pres, order)
    assert W.length() - len(cell_degrees(W, H)) == len(rep.free_variables) > 0
    index_filter = reached(lambda: W.length() - len(cell_degrees(W, H)))
    free = reached(lambda: triangular_analysis(pres, order).free_variables)
    assert index_filter and free
    assert index_filter & free == keys(DIM_SHARED)


def test_emptiness_routes_share_only_the_allowlist():
    assert not is_fixed_point(W, H_EMPTY) and build_ideal(W, H_EMPTY).certifies_empty
    fixed = reached(is_fixed_point, W, H_EMPTY)
    constant = reached(lambda: build_ideal(W, H_EMPTY).certifies_empty)
    assert fixed and constant
    assert fixed & constant == keys(EMPTY_SHARED)
