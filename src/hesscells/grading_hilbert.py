"""Circle-action grading on cell coordinates and Hilbert series.

The coordinate z_{i,j} of the cell of w carries weight w(j) - i, which is
positive on the cell.  Under this grading the ideal generators are
homogeneous, and the Hilbert series of the quotient has a closed product
form that is cross-checked here against a direct counting oracle on the
free variables of the triangular presentation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .cells import cell_degrees
from .combinat import HessenbergFunction, Permutation, is_fixed_point, v_of_w
from .groebner import InternalError, TriangularReport
from .polyring import Polynomial, z_universe

TRUNC_CEILING = 10**6


@lru_cache(maxsize=1)
def weights_for(w: Permutation) -> dict:
    """Weights of the cell coordinates of w, keyed by variable.  The dict
    is cached for the last w and shared by its callers, so it must not be
    mutated.

    Both defining formulas, w(j) - i from the torus action and
    (n + 1 - v(j)) - i from pulling back along the specialization map,
    are evaluated; they must agree and be positive.  z_{i,j} exists only
    for i < w(j), so a failure would be an internal bug, not bad input.
    """
    wi, vi, n = w.images, v_of_w(w).images, w.n
    weights = {}
    for var in z_universe(w):
        i, j = var.row, var.col
        action = wi[j - 1] - i
        pullback = (n + 1 - vi[j - 1]) - i
        if action != pullback or action < 1:
            raise InternalError(
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
        d = mono.weighted_degree(wt)
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
    never cancelled so it can be matched against the defining product.
    `canonical()` gives the cancelled form, and `equals` compares series.
    """

    numerator_factors: tuple
    denominator_factors: tuple

    def __post_init__(self):
        num, den = sorted(self.numerator_factors), sorted(self.denominator_factors)
        if min(num[:1] + den[:1], default=1) < 1:
            raise ValueError("factor exponents must be positive")
        object.__setattr__(self, "numerator_factors", tuple(num))
        object.__setattr__(self, "denominator_factors", tuple(den))

    def canonical(self) -> "HilbertSeries":
        """Cancel common factors of numerator and denominator, as multisets.
        A product of factors (1 - t^e) fixes its multiset of exponents
        (peel off the largest cyclotomic factor), so N1/D1 = N2/D2 iff
        N1 + D2 = N2 + D1, iff the canonical forms are equal; `equals`
        compares the sums, with no canonical form built."""
        num, den = Counter(self.numerator_factors), Counter(self.denominator_factors)
        return HilbertSeries(tuple((num - den).elements()), tuple((den - num).elements()))

    def equals(self, other: "HilbertSeries") -> bool:
        """Whether self and other are one series N1/D1 = N2/D2: whether
        N1 + D2 = N2 + D1 as multisets (see `canonical`), each sum sorted
        from two sorted runs.  The sweep's `hilbertOk` and the CLI's
        `oracleAgrees` are this comparison."""
        return (sorted(self.numerator_factors + other.denominator_factors)
                == sorted(other.numerator_factors + self.denominator_factors))

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


def check_exact_trunc(n: int, trunc: int) -> None:
    """Raise ValueError unless max(1, n - 1) <= trunc <= TRUNC_CEILING.
    The ceiling bounds the trunc + 1 coefficients `hilbert` expands and
    prints (29 MB of JSON at w0, n = 7).  Hilbert series of
    an n x n cell that agree up to t^(n-1) are equal: cross-multiplied by
    their denominators, both sides are products of factors (1 - t^e) with
    e <= n - 1, and such a product is fixed by its coefficients up to
    t^(n-1).  So comparing expansions to any accepted trunc gives the
    verdict of `HilbertSeries.equals`, which the sweep's `hilbertOk`
    and the CLI's `oracleAgrees` are: no accepted trunc changes either."""
    if trunc < max(1, n - 1):
        raise ValueError(f"trunc must be at least {max(1, n - 1)} for n = {n}")
    if trunc > TRUNC_CEILING:
        raise ValueError(f"trunc must be at most {TRUNC_CEILING}")


def hilbert_formula(w: Permutation, h: HessenbergFunction) -> HilbertSeries:
    """Closed form of the Hilbert series of the cell quotient ring.

    Numerator factors are the degrees v(k) - v(l) - 1 of the nonzero
    generators (`cell_degrees`); denominator factors are the weights of
    all cell coordinates (`weights_for`).  Requires w among the fixed
    points of h.
    """
    if not h.is_indecomposable:
        raise ValueError(f"Hessenberg function {h} is decomposable")
    if not is_fixed_point(w, h):
        raise ValueError(f"w={w} is not a fixed point for h={h}")
    return HilbertSeries(tuple(cell_degrees(w, h)), tuple(weights_for(w).values()))


def hilbert_oracle(report: TriangularReport, wt: dict) -> HilbertSeries:
    """Counting oracle: the product of 1/(1 - t^weight) over the free
    variables of a passing triangular presentation."""
    if not report.is_triangular:
        raise ValueError("oracle requires a passing triangular analysis")
    return HilbertSeries((), tuple(wt[var] for var in report.free_variables))
