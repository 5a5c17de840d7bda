"""Exact computer algebra for regular nilpotent Hessenberg Schubert cells.

The package builds the defining ideals of intersections of regular
nilpotent Hessenberg varieties with Schubert cells in type A, certifies
that their natural generators are Groebner bases forming triangular
complete intersections, derives affine pavings and Hilbert series, and
verifies Frobenius splitting compatibility in positive characteristic.
All arithmetic is exact, over arbitrary-precision integers or prime
fields.
"""

from .combinat import (
    HessenbergFunction,
    Permutation,
    all_permutations,
    enumerate_hessenberg,
    fixed_points,
    is_fixed_point,
    least_hessenberg,
    v_of_w,
)
from .polyring import (
    Monomial,
    Polynomial,
    PolyMatrix,
    Var,
    poly_from_json,
    poly_parse_text,
    x_universe,
    xvar,
    z_universe,
    zvar,
)
from .cells import (
    IdealPresentation,
    build_ideal,
    build_Omega,
    build_wM,
    cell_generators,
    patch_generators,
    paving,
)
from .groebner import (
    BudgetExceededError,
    InternalError,
    MonomialOrder,
    TriangularReport,
    buchberger_check,
    initial_term,
    order_n,
    order_n_w,
    reduced_gb_oracle,
    s_polynomial,
    triangular_analysis,
)
from .grading_hilbert import (
    HilbertSeries,
    hilbert_formula,
    hilbert_oracle,
    is_homogeneous,
    weights_for,
)
from .frobenius import (
    CompatibilityReport,
    SplittingContext,
    compatibility_check,
    make_splitting_context,
    splitting_apply,
    trace,
)
from .sweep import sweep

__version__ = "0.1.0"

__all__ = [
    "HessenbergFunction",
    "Permutation",
    "all_permutations",
    "enumerate_hessenberg",
    "fixed_points",
    "is_fixed_point",
    "least_hessenberg",
    "v_of_w",
    "Monomial",
    "Polynomial",
    "PolyMatrix",
    "Var",
    "poly_from_json",
    "poly_parse_text",
    "x_universe",
    "xvar",
    "z_universe",
    "zvar",
    "IdealPresentation",
    "build_ideal",
    "build_Omega",
    "build_wM",
    "cell_generators",
    "patch_generators",
    "paving",
    "BudgetExceededError",
    "InternalError",
    "MonomialOrder",
    "TriangularReport",
    "buchberger_check",
    "initial_term",
    "order_n",
    "order_n_w",
    "reduced_gb_oracle",
    "s_polynomial",
    "triangular_analysis",
    "HilbertSeries",
    "hilbert_formula",
    "hilbert_oracle",
    "is_homogeneous",
    "weights_for",
    "CompatibilityReport",
    "SplittingContext",
    "compatibility_check",
    "make_splitting_context",
    "splitting_apply",
    "trace",
    "sweep",
]
