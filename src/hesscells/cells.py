"""Coordinate matrices, generator polynomials, and ideals of
Hessenberg Schubert cells.

For a permutation w, `build_wM(w)` is the generic point of the translated
unipotent patch through w and `build_Omega(w)` is the generic point of the
Schubert cell of w.  Conjugating the regular nilpotent shift matrix N by
either one gives the generator polynomials; selecting the entries (k, l)
with k > h(l) (`ideal_positions`) presents the defining ideal of the
intersection with the Hessenberg variety of h.  For the cell, the nonzero
ones are those with v(k) > v(l) + 1 for v = w_0 w (`index_filter`); the
other modules read both rules from here.  Both points are w times a lower
unitriangular matrix, so the conjugate is found by one forward
substitution, with no inverse formed.  The map `PsiMap` from patch
coordinates at the longest permutation to cell coordinates only renames
variables or sets them to 0.

>>> cell_generators(Permutation([3, 4, 2, 1])).entry(4, 2)
-z_1_1 + z_1_3*z_2_1 + z_2_2
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
    Monomial,
    Polynomial,
    PolyMatrix,
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
    wi, winv = w.images, w.inverse().images
    n = w.n
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == wi[j - 1]:
                row.append(Polynomial.one())
            elif i > wi[j - 1] or j > winv[i - 1]:
                row.append(Polynomial.zero())
            else:
                row.append(Polynomial.variable(zvar(i, j)))
        rows.append(row)
    return PolyMatrix(rows)


def _conjugate_shift(w: Permutation, m: PolyMatrix) -> PolyMatrix:
    """Exact X = m^{-1} N m for m = wL with L lower unitriangular.

    X solves L X = w^{-1} N m, by forward substitution: row i of L is row
    w(i) of m, and row i of w^{-1} N m is row w(i)+1 of m, or zero when
    w(i) = n.  L has 1 on its diagonal, so no division occurs.
    """
    n, rows = m.n, m.rows
    zero = Polynomial.zero(m.char)
    x = []
    for i, wi in enumerate(w.images):
        acc = list(rows[wi]) if wi < n else [zero] * n
        for k, c in enumerate(rows[wi - 1][:i]):
            if c:
                acc = [a - c * b if b else a for a, b in zip(acc, x[k])]
        x.append(acc)
    return PolyMatrix(x, m.char)


@lru_cache(maxsize=1)
def patch_generators(w: Permutation) -> PolyMatrix:
    """Matrix of patch generators: the conjugate (wM)^{-1} N (wM)."""
    return _conjugate_shift(w, build_wM(w))


@lru_cache(maxsize=1)
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


@dataclass
class IdealPresentation:
    """Ordered generators of a patch or cell ideal.

    Generators are the conjugate-matrix entries at `ideal_positions(h)`.
    `height` counts the nonzero generators; for cell ideals this is the
    length of `cell_degrees(w, h)`, read off `index_filter`.
    Constant nonzero generators are retained and flagged: they certify an
    empty intersection.
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

    @property
    def certifies_empty(self) -> bool:
        return any(
            not g.is_zero and g.is_constant for _, _, g in self.generators
        )

    @property
    def lambda_size(self) -> int:
        return len(self.generators)

    def generator_label(self, k: int, l: int) -> str:
        prefix = "f" if self.kind == "patch" else "g"
        return f"{prefix}_{k}_{l}"


@lru_cache(maxsize=None)
def ideal_positions(h: HessenbergFunction) -> tuple:
    """The positions (k, l) with k > h(l) of the generators of every
    I_{w,h}, in reading order: bottom row first, left to right."""
    n = h.n
    return tuple((k, l) for k in range(n, 1, -1) for l in range(1, n) if k > h(l))


def index_filter(w: Permutation, positions) -> list:
    """(k, l, v(k) - v(l) - 1) for each (k, l) of `positions`, in their
    order, with v(k) > v(l) + 1 for v = w_0 w.  On `ideal_positions(h)`
    these are the nonzero generators of I_{w,h} and their degrees."""
    vi = v_of_w(w).images  # vi[k - 1] = v(k)
    return [(k, l, vi[k - 1] - vi[l - 1] - 1) for k, l in positions
            if vi[k - 1] > vi[l - 1] + 1]


def cell_degrees(w: Permutation, h: HessenbergFunction) -> list:
    """The degrees of the nonzero generators of I_{w,h} in reading order, by
    `index_filter` with no polynomial built; their number is the height."""
    return [d for _, _, d in index_filter(w, ideal_positions(h))]


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
    gens = [(k, l, conj.entry(k, l)) for k, l in ideal_positions(h)]
    height = (len(cell_degrees(w, h)) if kind == "cell"
              else sum(not g.is_zero for _, _, g in gens))
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
    the height of I_{w,h} (`cell_degrees`), the number of positions
    (k, l) with k > h(l) and v(k) > v(l) + 1; no polynomial is built.
    """
    if not h.is_indecomposable:
        raise ValueError(f"Hessenberg function {h} is decomposable")
    rows = []
    for w in fixed_points(h):
        r, height = w.length(), len(cell_degrees(w, h))
        rows.append(PavingRow(w=w, length=r, height=height, dim=r - height))
    max_dim = max(r.dim for r in rows)
    coeffs = [0] * (max_dim + 1)
    for r in rows:
        coeffs[r.dim] += 1
    return PavingTable(h=h, rows=rows, coefficients=coeffs, max_dim=max_dim)


def _triangular_report(w: Permutation, h: HessenbergFunction):
    """The triangular analysis of the cell ideal; raises ValueError if the
    generators are not triangular."""
    report = groebner.triangular_analysis(
        build_ideal(w, h, "cell"), groebner.order_n_w(w)
    )
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


def solve_cell_point(w: Permutation, h: HessenbergFunction, free_values: dict):
    """Extend an assignment of the free cell coordinates to a point of the
    cell, solving the triangular generator system back to front.

    Each nonzero generator is -z + (terms without z) in its initial
    variable z, so the bound variables are determined one at a time.
    Returns a full mapping Var -> int.
    """
    return _solve(_triangular_report(w, h), free_values)


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
    report = _triangular_report(w, h)
    omega = build_Omega(w)
    for _ in range(trials):
        free = {v: rng.randint(-9, 9) for v in report.free_variables}
        point = _solve(report, free)
        conj = _conjugate_shift(
            w, omega.map_entries(lambda e: Polynomial.const(e.evaluate(point)))
        )
        if any(not conj.entry(k, l).is_zero for k, l in ideal_positions(h)):
            return False
        # the solved point must also satisfy every generator on the nose
        for k, l, g in report.ordered_generators:
            if g.evaluate(point) != 0:
                return False
    return True
