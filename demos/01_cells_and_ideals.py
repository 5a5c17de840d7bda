# Coordinates and defining ideals of Hessenberg Schubert cells.
#
# This walkthrough builds every object for the 4x4 example that the rest
# of the demos reuse: the patch matrix at the longest permutation, the
# Schubert cell matrix of w = 3421, the generator polynomials from
# conjugating the nilpotent shift, and the resulting ideals.

from hesscells import (
    HessenbergFunction,
    Permutation,
    build_Omega,
    build_ideal,
    build_wM,
    cell_generators,
    patch_generators,
)


def show_matrix(label, mat):
    print(f"{label}:")
    for i in range(1, mat.n + 1):
        print("   [" + ",  ".join(
            mat.entry(i, j).to_text() for j in range(1, mat.n + 1)) + "]")
    print()


# The patch through the longest permutation of S_4 is coordinatized by a
# matrix with 1's on the anti-diagonal and free entries above-left of it.
w0 = Permutation.longest_element(4)
show_matrix("w0 M", build_wM(w0))

# Conjugating the regular nilpotent shift N by this matrix produces the
# patch generators f_{k,l}; only entries strictly below the subdiagonal
# carry actual polynomials.
show_matrix("(w0 M)^-1 N (w0 M)", patch_generators(w0))

# The Schubert cell of w = 3421 has its own coordinates z_{i,j}; there
# are exactly length(w) = 5 of them.
w = Permutation.parse("3421")
show_matrix("Omega_w for w = 3421", build_Omega(w))
show_matrix("Omega_w^-1 N Omega_w", cell_generators(w))

# Selecting the entries (k, l) with k > h(l) presents the cell ideal for
# a Hessenberg function h.  For h = (3,3,4,4) and w = 3421 there are two
# nonzero generators.
h = HessenbergFunction.parse("3,3,4,4")
pres = build_ideal(w, h, "cell")
print(f"cell ideal for w={w}, h={h}: height {pres.height}")
for k, l, g in pres.generators:
    print(f"   g_{k}_{l} = {g.to_text()}")
print()

# For h = (2,3,4,4) the same cell meets the Hessenberg variety in the
# empty set, and the presentation sees that through a constant generator.
h_empty = HessenbergFunction.parse("2,3,4,4")
pres_empty = build_ideal(w, h_empty, "cell")
print(f"cell ideal for w={w}, h={h_empty}:")
for k, l, g in pres_empty.generators:
    print(f"   g_{k}_{l} = {g.to_text()}")
print("certified empty:", pres_empty.certifies_empty)
