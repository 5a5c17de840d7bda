# Frobenius splittings of cell coordinate rings in characteristic p.
#
# Over F_p the trace map Tr sends a monomial m to (mZ)^{1/p} / Z when mZ
# is a p-th power (Z is the product of all cell variables).  Twisting by
# the (p-1)-st power of a splitting element F built from the generators
# of the cell ideal at the least indecomposable Hessenberg function fixing
# w yields one Frobenius splitting of the cell per prime, and it maps
# every cell ideal I_{w,h} with h fixing w into itself.

from hesscells import (
    Monomial,
    Permutation,
    Polynomial,
    compatibility_check,
    enumerate_hessenberg,
    is_fixed_point,
    make_splitting_context,
    splitting_apply,
    trace,
)

w = Permutation.parse("3421")

ctx = make_splitting_context(w, 2)
# The context keeps only F = (Z / m) * G, m the initial monomial of G.
Z = Monomial({v: 1 for v in ctx.variables})
G = Polynomial.one(2)
for _, _, g in ctx.generators:
    G = G * g
print("p = 2, cell of w = 3421")
print("Z =", repr(Z))
print("G = product of generators =", G.to_text())
print("F =", ctx.F.to_text())
print()

# Trace examples on single monomials.
z11, z12, z13, z21, z22 = ctx.variables
samples = [
    Monomial({v: 1 for v in ctx.variables}),
    Monomial({z11: 1}),
    Monomial({z11: 3, z12: 1, z13: 1, z21: 1, z22: 1}),
]
for m in samples:
    image = trace(Polynomial({m: 1}, 2), ctx)
    print(f"   Tr({m!r}) = {image.to_text()}")
print()

# The splitting axioms in action: phi(1) = 1 and the p-th power pullout.
one = Polynomial.one(2)
print("phi(1) =", splitting_apply(one, ctx).to_text())
f = Polynomial.variable(z21, 2) + one
zp = Polynomial.variable(z11, 2) ** 2
lhs = splitting_apply(zp * f, ctx)
rhs = Polynomial.variable(z11, 2) * splitting_apply(f, ctx)
print("phi(z^p f) == z phi(f):", lhs == rhs)
print()

# Compatibility: for each h fixing w, phi of each generator of I_{w,h}
# lies back in I_{w,h}, witnessed by a zero remainder under Groebner
# reduction mod p.  One context per prime serves every h.
fixing = [
    h
    for h in enumerate_hessenberg(w.n, indecomposable_only=True)
    if is_fixed_point(w, h)
]
for p in (2, 3, 5):
    ctx = make_splitting_context(w, p)
    for h in fixing:
        report = compatibility_check(ctx, h)
        status = "compatible" if report.all_compatible else "NOT compatible"
        print(f"p = {p}, h = {h}: {status}")
        for k, l, r in report.entries:
            print(f"   phi(g_{k}_{l}) remainder: {r.to_text()}")
