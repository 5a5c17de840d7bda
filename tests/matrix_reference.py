"""Matrix products for tests, kept out of the package.

The package never multiplies polynomial matrices: it builds each conjugate
by a triangular solve.  These plain definitions check that solve against
its defining equation and the paper's matrix identities.
"""

from hesscells import (
    Permutation,
    Polynomial,
    PolyMatrix,
    patch_generators,
    v_of_w,
)


def matmul(a, b):
    """The product a @ b of two square polynomial matrices."""
    zero = Polynomial.zero(a.char)
    return PolyMatrix(
        [
            [sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b.rows)]
            for row in a.rows
        ],
        a.char,
    )


def shift(n):
    """The regular nilpotent matrix N, with 1's on the superdiagonal."""
    return PolyMatrix(
        [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


def permute_columns(a, v):
    """a @ (permutation matrix of v): column j of the result is column
    v(j) of a."""
    return PolyMatrix(
        [[row[v(j) - 1] for j in range(1, a.n + 1)] for row in a.rows]
    )


def conjugate_generators_by_v(w):
    """The patch generator matrix at w_0 conjugated by v = w_0 w: entry
    (k, l) is the patch generator (v(k), v(l))."""
    f = patch_generators(Permutation.longest_element(w.n))
    v = v_of_w(w)
    return PolyMatrix(
        [[f.entry(v(k), v(l)) for l in range(1, w.n + 1)]
         for k in range(1, w.n + 1)]
    )
