"""Second routes to the cell generators and cell points, kept out of the
package.

The package builds each cell generator by a triangular solve of
Omega^{-1} N Omega.  The paper reaches the same polynomials from the
w_0-patch ideals: the map `PsiMap` from patch coordinates at the longest
permutation to cell coordinates only renames variables or sets them to 0,
and carries patch generators to cell generators.  `random_point_check`
solves the triangular generator system at random integer points and
re-checks exact vanishing of the conjugated shift there.  Tests compare
the package against both, the paving's cell dimensions against the
product formula `q_integer_product`, and each case of the sweep against
its flag dual (`dual_h`, `dual_w`).
"""

import random

from hesscells import (
    Monomial,
    Permutation,
    Polynomial,
    PolyMatrix,
    build_Omega,
    build_ideal,
    order_n_w,
    patch_generators,
    triangular_analysis,
    v_of_w,
    x_universe,
    zvar,
)
from hesscells.cells import _conjugate_shift, ideal_positions


class PsiMap:
    """The specialization identifying w_0-patch coordinates with cell
    coordinates of w.

    Patch variables in `zeroed_vars` map to 0; every other x_{i,j} maps to
    z_{i, v^{-1}(j)} where v = w_0 w.  Restricted to the surviving
    variables the assignment is injective onto the cell coordinates.
    """

    __slots__ = ("w", "v", "zeroed_vars", "assignment")

    def __init__(self, w: Permutation):
        self.w = w
        self.v = v_of_w(w)
        winv = w.inverse()
        vinv = self.v.inverse()
        assignment = {}
        zeroed = set()
        for var in x_universe(w.n):
            i, j = var.row, var.col
            if vinv(j) > winv(i):
                assignment[var] = None
                zeroed.add(var)
            else:
                assignment[var] = zvar(i, vinv(j))
        self.zeroed_vars = frozenset(zeroed)
        self.assignment = assignment

    def apply(self, p: Polynomial) -> Polynomial:
        """Ring homomorphism image of a polynomial in the w_0 patch
        coordinates; raises if p uses a variable outside them.

        Terms with a zeroed variable vanish and the others are relabelled;
        the assignment is injective off the zeroed variables, so no two
        terms merge.
        """
        terms = {}
        for mono, coeff in p.terms.items():
            exps = []
            for var, e in mono.exps:
                if var not in self.assignment:
                    raise ValueError(
                        f"variable {var.name} is not in the target universe"
                    )
                exps.append((self.assignment[var], e))
            if all(img is not None for img, _ in exps):
                terms[Monomial(exps)] = coeff
        return Polynomial(terms, p.char)

    def apply_matrix(self, m: PolyMatrix) -> PolyMatrix:
        return PolyMatrix([[self.apply(e) for e in row] for row in m.rows])

    def __repr__(self):
        return f"PsiMap(w={self.w})"


def cell_generators_via_psi(w: Permutation, k: int, l: int) -> Polynomial:
    """Cell generator (k,l) computed as the specialization of the patch
    generator (v(k), v(l)) at the longest permutation, for v = w_0 w.

    Must agree with cell_generators(w) entry by entry.
    """
    v = v_of_w(w)
    w0 = Permutation.longest_element(w.n)
    f = patch_generators(w0).entry(v(k), v(l))
    return PsiMap(w).apply(f)


def _triangular_report(w, h):
    """The triangular analysis of the cell ideal; raises ValueError if the
    generators are not triangular."""
    report = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
    if not report.is_triangular:
        raise ValueError(f"ideal for w={w}, h={h} is not triangular")
    return report


def _solve(report, free_values: dict) -> dict:
    """`solve_cell_point` on a triangular report, whose initial terms give
    each generator as sign*var + rest, so var = -sign * rest."""
    point = dict(free_values)
    for var in report.free_variables:
        point.setdefault(var, 0)
    for (_, _, g), (sign, var) in zip(
        reversed(report.ordered_generators), reversed(report.initial_terms)
    ):
        rest = g - sign * Polynomial.variable(var)
        point[var] = -sign * rest.evaluate(point)
    return point


def solve_cell_point(w, h, free_values: dict):
    """Extend an assignment of the free cell coordinates to a point of the
    cell, solving the triangular generator system back to front.

    Each nonzero generator is -z + (terms without z) in its initial
    variable z, so the bound variables are determined one at a time.
    Returns a full mapping Var -> int.
    """
    return _solve(_triangular_report(w, h), free_values)


def random_point_check(w, h, trials: int = 10, seed: int = 0) -> bool:
    """Sample integer points of the solved cell and verify that the
    conjugate of the shift matrix vanishes in all positions (k, l) with
    k > h(l), exactly."""
    rng = random.Random(seed)
    report = _triangular_report(w, h)
    omega = build_Omega(w)
    for _ in range(trials):
        free = {v: rng.randint(-9, 9) for v in report.free_variables}
        point = _solve(report, free)
        at_point = PolyMatrix([[Polynomial.const(e.evaluate(point)) for e in row]
                               for row in omega.rows])
        conj = _conjugate_shift(w, at_point)
        if any(not conj.entry(k, l).is_zero for k, l in ideal_positions(h)):
            return False
        # the solved point must also satisfy every generator on the nose
        for k, l, g in report.ordered_generators:
            if g.evaluate(point) != 0:
                return False
    return True


def q_integer_product(sizes):
    """Coefficients of the product of the q-integers [s]_q = 1 + ... + q^(s-1)."""
    coeffs = [1]
    for s in sizes:
        out = [0] * (len(coeffs) + s - 1)
        for d, c in enumerate(coeffs):
            for e in range(s):
                out[d + e] += c
        coeffs = out
    return coeffs


def dual_h(h):
    """h's region {(i, j) : i <= h(j)} reflected in the antidiagonal:
    h^T(j) = max{i : h(n + 1 - i) >= n + 1 - j}, for h as a tuple of values."""
    n = len(h)
    return tuple(
        max(i for i in range(1, n + 1) if h[n - i] >= n + 1 - j)
        for j in range(1, n + 1)
    )


def dual_w(w):
    """w0 w w0, for w as a tuple of images: (w0 w w0)(j) = n + 1 - w(n + 1 - j)."""
    n = len(w)
    return tuple(n + 1 - w[n - j] for j in range(1, n + 1))
