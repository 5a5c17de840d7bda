"""Coordinate matrices, generator polynomials, and ideals of
Hessenberg Schubert cells.

For a permutation w, `build_wM(w)` is the generic point of the translated
unipotent patch through w and `build_Omega(w)` is the generic point of the
Schubert cell of w.  Conjugating the regular nilpotent shift matrix by
either one gives the generator polynomials; selecting the entries (k, l)
with k > h(l) presents the defining ideal of the intersection with the
Hessenberg variety of h.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .combinat import (
    HessenbergFunction,
    Permutation,
    fixed_points,
    v_of_w,
)
from .polyring import (
    Polynomial,
    PolyMatrix,
    inverse_unitriangular_conjugate,
    left_mul_perm,
    right_mul_perm,
    substitute,
    x_universe,
    xvar,
    z_universe,
    zvar,
)
from . import groebner


def build_wM(w: Permutation) -> PolyMatrix:
    """Generic point of the patch through w: entry (i,j) is 1 when
    i = w(j), 0 when j > w^{-1}(i), and the variable x_{i,j} otherwise."""
    winv = w.inverse()
    n = w.n
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == w(j):
                row.append(Polynomial.one())
            elif j > winv(i):
                row.append(Polynomial.zero())
            else:
                row.append(Polynomial.variable(xvar(i, j)))
        rows.append(row)
    return PolyMatrix(rows)


def build_Omega(w: Permutation) -> PolyMatrix:
    """Generic point of the Schubert cell of w: entry (i,j) is 1 when
    i = w(j), 0 below or to the right of the pivots, and z_{i,j}
    otherwise.  The number of variables equals the length of w."""
    winv = w.inverse()
    n = w.n
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == w(j):
                row.append(Polynomial.one())
            elif i > w(j) or j > winv(i):
                row.append(Polynomial.zero())
            else:
                row.append(Polynomial.variable(zvar(i, j)))
        rows.append(row)
    return PolyMatrix(rows)


def _conjugate_shift(w: Permutation, m: PolyMatrix) -> PolyMatrix:
    """Exact m^{-1} N m for m = w * (lower unitriangular)."""
    lower = left_mul_perm(w.inverse(), m)
    m_inv = inverse_unitriangular_conjugate(w, lower)
    shift = PolyMatrix.nilpotent_shift(m.n, m.char)
    return m_inv @ shift @ m


@lru_cache(maxsize=None)
def patch_generators(w: Permutation) -> PolyMatrix:
    """Matrix of patch generators: the conjugate (wM)^{-1} N (wM)."""
    return _conjugate_shift(w, build_wM(w))


@lru_cache(maxsize=None)
def cell_generators(w: Permutation) -> PolyMatrix:
    """Matrix of cell generators: the conjugate Omega^{-1} N Omega."""
    return _conjugate_shift(w, build_Omega(w))


class PsiMap:
    """The specialization identifying w_0-patch coordinates with cell
    coordinates of w.

    Patch variables in `zeroed_vars` map to 0; every other x_{i,j} maps to
    z_{i, v^{-1}(j)} where v = w_0 w.  Restricted to the surviving
    variables the assignment is injective onto the cell coordinates.
    """

    __slots__ = ("w", "v", "zeroed_vars", "assignment", "_target")

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
        self._target = frozenset(z_universe(w))

    def apply(self, p: Polynomial) -> Polynomial:
        """Ring homomorphism image of a polynomial in the w_0 patch
        coordinates; raises if p uses a variable outside them."""
        sigma = {
            var: (Polynomial.zero(p.char) if img is None
                  else Polynomial.variable(img, p.char))
            for var, img in self.assignment.items()
        }
        return substitute(p, sigma, universe=self._target)

    def apply_matrix(self, m: PolyMatrix) -> PolyMatrix:
        return m.map_entries(self.apply)

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


def conjugate_generators_by_v(w: Permutation) -> PolyMatrix:
    """The patch generator matrix at w_0 conjugated by v = w_0 w, whose
    (k,l) entry is the patch generator (v(k), v(l))."""
    w0 = Permutation.longest_element(w.n)
    v = v_of_w(w)
    f = patch_generators(w0)
    return right_mul_perm(left_mul_perm(v.inverse(), f), v)


@dataclass
class IdealPresentation:
    """Ordered generators of a patch or cell ideal.

    Generators are the conjugate-matrix entries (k, l) with k > h(l),
    read bottom row left to right, then the next row up, and so on.
    `height` counts the nonzero generators; for cell ideals this is the
    number of pairs with v(k) > v(l) + 1.  Constant nonzero generators
    are retained and flagged: they certify an empty intersection.
    """

    kind: str  # "patch" or "cell"
    w: Permutation
    h: HessenbergFunction
    ambient_variables: tuple
    generators: list  # (k, l, Polynomial) in reading order
    height: int

    def nonzero_generators(self):
        return [(k, l, g) for (k, l, g) in self.generators if not g.is_zero]

    def generator_polys(self):
        return [g for _, _, g in self.generators if not g.is_zero]

    def constant_generators(self):
        return [
            (k, l, g.constant_value())
            for (k, l, g) in self.generators
            if not g.is_zero and g.is_constant
        ]

    @property
    def certifies_empty(self) -> bool:
        return bool(self.constant_generators())

    @property
    def lambda_size(self) -> int:
        return len(self.generators)

    def generator_label(self, k: int, l: int) -> str:
        prefix = "f" if self.kind == "patch" else "g"
        return f"{prefix}_{k}_{l}"


def build_ideal(
    w: Permutation, h: HessenbergFunction, kind: str = "cell"
) -> IdealPresentation:
    """Present the patch ideal (kind 'patch') or cell ideal (kind 'cell')
    for w and an indecomposable h."""
    if kind not in ("patch", "cell"):
        raise ValueError(f"kind must be 'patch' or 'cell', got {kind!r}")
    if w.n != h.n:
        raise ValueError("permutation and Hessenberg function sizes differ")
    if not h.is_indecomposable:
        raise ValueError(f"Hessenberg function {h} is decomposable")
    n = w.n
    if kind == "patch":
        conj = patch_generators(w)
        winv = w.inverse()
        ambient = tuple(
            xvar(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if j < winv(i) and i != w(j)
        )
    else:
        conj = cell_generators(w)
        ambient = z_universe(w)
    # 0-based indices: hv[l] = h(l+1), vi[k] = v(k+1), rows[k][l] = (k+1, l+1)
    hv, vi, rows = h.values, v_of_w(w).images, conj.rows
    gens = []
    height = 0
    for k in range(n - 1, 0, -1):
        for l in range(n - 1):
            if k >= hv[l]:
                g = rows[k][l]
                gens.append((k + 1, l + 1, g))
                if kind == "cell":
                    if vi[k] > vi[l] + 1:
                        height += 1
                elif not g.is_zero:
                    height += 1
    return IdealPresentation(
        kind=kind,
        w=w,
        h=h,
        ambient_variables=ambient,
        generators=gens,
        height=height,
    )


@dataclass
class PavingRow:
    w: Permutation
    length: int
    height: int
    dim: int


@dataclass
class PavingTable:
    """Affine paving data: one row per nonempty cell, the cell-dimension
    generating polynomial, and the top dimension."""

    h: HessenbergFunction
    rows: list
    coefficients: list  # coefficients of sum_w q^dim
    max_dim: int

    def to_json(self) -> dict:
        return {
            "h": self.h.to_json(),
            "cells": [
                {
                    "w": r.w.to_json(),
                    "length": r.length,
                    "Lambda": r.height,
                    "dim": r.dim,
                }
                for r in self.rows
            ],
            "generatingPolynomial": list(self.coefficients),
            "maxDim": self.max_dim,
        }


def paving(h: HessenbergFunction) -> PavingTable:
    """Dimensions of the nonempty Hessenberg Schubert cells of h.

    Each fixed point w contributes a cell of dimension length(w) minus
    the number of nonzero ideal generators.
    """
    if not h.is_indecomposable:
        raise ValueError(f"Hessenberg function {h} is decomposable")
    rows = []
    for w in fixed_points(h):
        pres = build_ideal(w, h, "cell")
        r = w.length()
        rows.append(PavingRow(w=w, length=r, height=pres.height,
                              dim=r - pres.height))
    max_dim = max(r.dim for r in rows)
    coeffs = [0] * (max_dim + 1)
    for r in rows:
        coeffs[r.dim] += 1
    return PavingTable(h=h, rows=rows, coefficients=coeffs, max_dim=max_dim)


def solve_cell_point(w: Permutation, h: HessenbergFunction, free_values: dict):
    """Extend an assignment of the free cell coordinates to a point of the
    cell, solving the triangular generator system back to front.

    Each nonzero generator is -z + (terms without z) in its initial
    variable z, so the bound variables are determined one at a time.
    Returns a full mapping Var -> int.
    """
    pres = build_ideal(w, h, "cell")
    order = groebner.order_n_w(w)
    report = groebner.triangular_analysis(pres, order)
    if not report.is_triangular:
        raise ValueError(f"ideal for w={w}, h={h} is not triangular")
    point = dict(free_values)
    for var in report.free_variables:
        point.setdefault(var, 0)
    for (k, l, g), (sign, var) in zip(
        reversed(report.ordered_generators), reversed(report.initial_terms)
    ):
        c, mono = groebner.initial_term(g, order)
        rest = g - Polynomial({mono: c})
        # g = c*var + rest with c = +-1, so solving g = 0 gives:
        point[var] = -c * rest.evaluate(point)
    return point


def random_point_check(
    w: Permutation,
    h: HessenbergFunction,
    trials: int = 10,
    seed: int = 0,
) -> bool:
    """Sample integer points of the solved cell and verify that the
    conjugate of the shift matrix vanishes in all positions (k, l) with
    k > h(l), exactly."""
    rng = random.Random(seed)
    report = groebner.triangular_analysis(
        build_ideal(w, h, "cell"), groebner.order_n_w(w)
    )
    for _ in range(trials):
        free = {v: rng.randint(-9, 9) for v in report.free_variables}
        point = solve_cell_point(w, h, free)
        omega = build_Omega(w).map_entries(
            lambda e: Polynomial.const(e.evaluate(point))
        )
        conj = _conjugate_shift(w, omega)
        for l in range(1, w.n + 1):
            for k in range(h(l) + 1, w.n + 1):
                if not conj.entry(k, l).is_zero:
                    return False
        # the solved point must also satisfy every generator on the nose
        for k, l, g in report.ordered_generators:
            if g.evaluate(point) != 0:
                return False
    return True
