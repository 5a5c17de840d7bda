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
substitution, with no inverse formed.

>>> cell_generators(Permutation([3, 4, 2, 1])).entry(4, 2)
-z_1_1 + z_1_3*z_2_1 + z_2_2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinat import HessenbergFunction, Permutation, fixed_points, v_of_w
from .polyring import ONE, Monomial, Polynomial, PolyMatrix, xvar, z_universe, zvar


_ZERO, _UNIT = Polynomial._raw({}, 0), Polynomial._raw({ONE: 1}, 0)


@lru_cache(maxsize=None)
def _variables(var, n: int) -> tuple:
    """Row i - 1 holds the shared raw `Polynomial` of var(i, j) at j - 1,
    for 1 <= i, j <= n; entries are read, never changed in place."""
    return tuple(tuple(Polynomial._raw({Monomial._raw(((var(i, j), 1),)): 1}, 0)
                       for j in range(1, n + 1)) for i in range(1, n + 1))


def _generic_point(w: Permutation, var, below: bool) -> PolyMatrix:
    """Entry (i,j) is 1 when i = w(j), 0 when j > w^{-1}(i) or (`below`)
    i > w(j), and the variable var(i, j) otherwise; the entries are one
    shared 0, 1 and `_variables`, and the matrix is not validated again."""
    wi, winv = w.images, w.inverse().images
    rows = []
    for i, variables in enumerate(_variables(var, w.n), 1):
        rows.append(tuple(
            _UNIT if i == wi[j] else
            _ZERO if j >= winv[i - 1] or below and i > wi[j] else
            variables[j]
            for j in range(w.n)))
    return PolyMatrix._raw(tuple(rows), 0)


def build_wM(w: Permutation) -> PolyMatrix:
    """Generic point of the patch through w: entry (i,j) is 1 when
    i = w(j), 0 when j > w^{-1}(i), and the variable x_{i,j} otherwise."""
    return _generic_point(w, xvar, False)


def build_Omega(w: Permutation) -> PolyMatrix:
    """Generic point of the Schubert cell of w: entry (i,j) is 1 when
    i = w(j), 0 below or to the right of the pivots, and z_{i,j}
    otherwise.  The number of variables equals the length of w."""
    return _generic_point(w, zvar, True)


def _conjugate_shift(w: Permutation, m: PolyMatrix) -> PolyMatrix:
    """Exact X = m^{-1} N m for m = wL with L lower unitriangular, over the
    integers: m is a generic point, or one with integer entries.

    X solves L X = w^{-1} N m, by forward substitution: row i of L is row
    w(i) of m, and row i of w^{-1} N m is row w(i)+1 of m, or zero when
    w(i) = n.  L has 1 on its diagonal, so no division occurs.  Each row
    of X is solved on term dicts, c * b taken off term by term with no
    product built, in the order `Polynomial` subtraction adds them when c,
    as each entry of a generic point, has one term.
    """
    n, rows = m.n, m.rows
    x = []
    for i, wi in enumerate(w.images):
        acc = [dict(e.terms) for e in rows[wi]] if wi < n else [{} for _ in range(n)]
        for k, c in enumerate(rows[wi - 1][:i]):
            for cm, cc in c.terms.items():  # a -= c * b
                for a, b in zip(acc, x[k]):
                    for key, v in b.terms.items():
                        key = cm * key
                        v = a.get(key, 0) - cc * v
                        if v:
                            a[key] = v
                        else:
                            a.pop(key, None)
        x.append(tuple(Polynomial._raw(t, 0) for t in acc))
    return PolyMatrix._raw(tuple(x), 0)


@lru_cache(maxsize=1)
def patch_generators(w: Permutation) -> PolyMatrix:
    """Matrix of patch generators: the conjugate (wM)^{-1} N (wM)."""
    return _conjugate_shift(w, build_wM(w))


@lru_cache(maxsize=1)
def cell_generators(w: Permutation) -> PolyMatrix:
    """Matrix of cell generators: the conjugate Omega^{-1} N Omega."""
    return _conjugate_shift(w, build_Omega(w))


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

