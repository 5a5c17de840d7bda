# Affine pavings and Hilbert series.
#
# The nonempty Hessenberg Schubert cells are affine spaces, so each
# Hessenberg variety is paved by affines indexed by the torus fixed
# points.  The dimension of each cell is the Schubert cell dimension
# minus the ideal height, and the weighted Hilbert series of each cell
# quotient has a closed product form.

from hesscells import (
    HessenbergFunction,
    Permutation,
    build_ideal,
    fixed_points,
    hilbert_formula,
    hilbert_oracle,
    is_homogeneous,
    order_n_w,
    paving,
    triangular_analysis,
    weights_for,
    z_universe,
)

h = HessenbergFunction.parse("3,3,4,4")

# The fixed points of the circle action index the nonempty cells.
pts = fixed_points(h)
print(f"{len(pts)} fixed points for h = {h}:")
print("  ", " ".join(str(w) for w in pts))
print()

# The paving table: one affine cell per fixed point.
table = paving(h)
for row in table.rows:
    print(f"   w = {row.w}: length {row.length}, height {row.height}, "
          f"cell dimension {row.dim}")
print("cell-dimension generating polynomial:", table.coefficients)
print("top dimension:", table.max_dim)
print()

# Weighted grading on the cell of w = 3421: each z_{i,j} weighs w(j) - i
# and the ideal generators are homogeneous.
w = Permutation.parse("3421")
wt = weights_for(w)
print("weights:", {v.name: wt[v] for v in z_universe(w)})
for k, l, g in build_ideal(w, h, "cell").nonzero_generators():
    print(f"   g_{k}_{l} is homogeneous of degree {is_homogeneous(g, wt)}")
print()

# The closed-form Hilbert series against the free-variable counting
# oracle.  For this cell the series counts partitions with parts <= 3.
series = hilbert_formula(w, h)
print("numerator factors:  ", list(series.numerator_factors))
print("denominator factors:", list(series.denominator_factors))
print("cancelled form:     ", series.canonical())
report = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
print("formula expansion:", series.expand(10))
print("oracle expansion: ", hilbert_oracle(report, wt).expand(10))
