"""Circle-action grading on cell coordinates and Hilbert series.

The coordinate z_{i,j} of the cell of w carries weight w(j) - i, which is
positive on the cell.  Under this grading the ideal generators are
homogeneous, and the Hilbert series of the quotient has a closed product
form that is cross-checked here against a direct counting oracle on the
free variables of the triangular presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinat import HessenbergFunction, Permutation, is_fixed_point, v_of_w
from .groebner import TriangularReport
from .polyring import Polynomial, z_universe


@lru_cache(maxsize=None)
def weights_for(w: Permutation) -> dict:
    """Weights of the cell coordinates of w, keyed by variable.  The dict
    is cached per w and shared by every caller, so it must not be mutated.

    Both defining formulas, w(j) - i from the torus action and
    (n + 1 - v(j)) - i from pulling back along the specialization map,
    are evaluated; they must agree and be positive.  z_{i,j} exists only
    for i < w(j), so a failure would be an internal bug, not bad input.
    """
    v = v_of_w(w)
    n = w.n
    weights = {}
    for var in z_universe(w):
        i, j = var.row, var.col
        action = w(j) - i
        pullback = (n + 1 - v(j)) - i
        if action != pullback or action < 1:
            raise AssertionError(
                f"weight formulas at {var.name} give {action} and {pullback}, "
                "not one positive weight"
            )
        weights[var] = action
    return weights


def is_homogeneous(p: Polynomial, wt: dict):
    """The common weighted degree of p's terms, or None if they differ.

    Constants (and the zero polynomial) have degree 0.
    """
    if p.is_zero:
        return 0
    degree = None
    for mono in p.terms:
        d = mono.weighted_degree(wt) if not mono.is_one else 0
        if degree is None:
            degree = d
        elif degree != d:
            return None
    return degree


def series_mul_one_minus(coeffs: list, e: int) -> list:
    """Multiply a truncated series by (1 - t^e)."""
    out = list(coeffs)
    for k in range(len(out) - 1, e - 1, -1):
        out[k] -= coeffs[k - e]
    return out


def series_div_one_minus(coeffs: list, e: int) -> list:
    """Divide a truncated series by (1 - t^e), i.e. multiply by
    1 + t^e + t^{2e} + ..."""
    out = list(coeffs)
    for k in range(e, len(out)):
        out[k] += out[k - e]
    return out


@dataclass(frozen=True)
class HilbertSeries:
    """A rational series prod (1 - t^e) over prod (1 - t^e).

    Factors are kept as sorted multisets of exponents; the raw record is
    never cancelled so it can be matched against the defining product,
    and `canonical()` gives the cancelled comparison form.
    """

    numerator_factors: tuple
    denominator_factors: tuple

    def __post_init__(self):
        if any(e < 1 for e in self.numerator_factors + self.denominator_factors):
            raise ValueError("factor exponents must be positive")
        object.__setattr__(
            self, "numerator_factors", tuple(sorted(self.numerator_factors))
        )
        object.__setattr__(
            self,
            "denominator_factors",
            tuple(sorted(self.denominator_factors)),
        )

    def canonical(self) -> "HilbertSeries":
        """Cancel common factors of numerator and denominator."""
        num = list(self.numerator_factors)
        den = []
        for e in self.denominator_factors:
            if e in num:
                num.remove(e)
            else:
                den.append(e)
        return HilbertSeries(tuple(num), tuple(den))

    def expand(self, truncation: int) -> list:
        """Exact coefficients of degrees 0..truncation."""
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        coeffs = [1] + [0] * truncation
        for e in self.numerator_factors:
            coeffs = series_mul_one_minus(coeffs, e)
        for e in self.denominator_factors:
            coeffs = series_div_one_minus(coeffs, e)
        return coeffs

    def to_json(self) -> dict:
        return {
            "numeratorFactors": list(self.numerator_factors),
            "denominatorFactors": list(self.denominator_factors),
        }


def hilbert_formula(w: Permutation, h: HessenbergFunction) -> HilbertSeries:
    """Closed form of the Hilbert series of the cell quotient ring.

    Numerator factors are the degrees v(k) - v(l) - 1 of the nonzero
    generators; denominator factors are the weights of all cell
    coordinates.  Requires w among the fixed points of h.
    """
    if not h.is_indecomposable:
        raise ValueError(f"Hessenberg function {h} is decomposable")
    if not is_fixed_point(w, h):
        raise ValueError(f"w={w} is not a fixed point for h={h}")
    v = v_of_w(w)
    n = w.n
    num = []
    for k in range(n, 1, -1):
        for l in range(1, n):
            if k > h(l) and v(k) > v(l) + 1:
                num.append(v(k) - v(l) - 1)
    den = [w(var.col) - var.row for var in z_universe(w)]
    return HilbertSeries(tuple(num), tuple(den))


def hilbert_oracle(
    report: TriangularReport, wt: dict, truncation: int
) -> list:
    """Counting oracle: expand the product of 1/(1 - t^weight) over the
    free variables of a passing triangular presentation."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if not report.is_triangular:
        raise ValueError("oracle requires a passing triangular analysis")
    coeffs = [1] + [0] * truncation
    for var in report.free_variables:
        coeffs = series_div_one_minus(coeffs, wt[var])
    return coeffs
