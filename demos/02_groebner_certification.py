# Groebner certification of the cell ideal generators.
#
# Two independent routes certify that the natural generators of a cell
# ideal form a Groebner basis: a structural one (distinct single-variable
# initial terms arranged triangularly) and a computational one (every
# S-polynomial reduces to zero under multivariate division).  A third
# tool, a completion oracle over the rationals, decides unit ideals.

from hesscells import (
    HessenbergFunction,
    MonomialOrder,
    Monomial,
    Permutation,
    Polynomial,
    build_ideal,
    buchberger_check,
    initial_term,
    order_n_w,
    reduced_gb_oracle,
    s_polynomial,
    triangular_analysis,
    xvar,
)

w = Permutation.parse("3421")
h = HessenbergFunction.parse("3,3,4,4")
order = order_n_w(w)
print("monomial order:", order)
print()

pres = build_ideal(w, h, "cell")
for k, l, g in pres.nonzero_generators():
    coeff, mono = initial_term(g, order)
    print(f"g_{k}_{l} = {g.to_text()}")
    print(f"   initial term: {'-' if coeff < 0 else ''}{mono!r}")
print()

# Route 1: the triangular report.
report = triangular_analysis(pres, order)
print("triangular:", report.is_triangular)
print("height:", report.height)
print("free variables:", [v.name for v in report.free_variables])
print("cell dimension:", report.dimension)
# A triangular report has distinct signed-variable initial terms, so the
# initial ideal is squarefree: the ideal is radical and meets the
# sufficient condition for geometric vertex decomposability.
print("squarefree initial ideal:", report.is_triangular)
print()

# Route 2: reduce every S-polynomial from scratch.
gens = pres.generator_polys()
s = s_polynomial(gens[0], gens[1], order)
print("S-polynomial of the pair:", s.to_text())
print("all S-pairs reduce to zero:", buchberger_check(gens, order))
print()

# The completion oracle recovers the canonical reduced basis, and is the
# tool that recognizes unit ideals for cells missing the Hessenberg
# variety entirely.
basis = reduced_gb_oracle(gens, order)
print("reduced basis:", [p.to_text() for p in basis])

empty = build_ideal(w, HessenbergFunction.parse("2,3,4,4"), "cell")
print("oracle on the empty cell:",
      [p.to_text() for p in reduced_gb_oracle(empty.generator_polys(), order)])
print()

# On generic input the oracle is a full Buchberger implementation; the
# classic pair x^2, xy + 1 hides the unit ideal even though the pair is
# not itself a Groebner basis.
x, y = xvar(1, 1), xvar(1, 2)
lex = MonomialOrder([x, y])
f = Polynomial({Monomial({x: 2}): 1})
g = Polynomial({Monomial({x: 1, y: 1}): 1, Monomial(): 1})
print("is {x^2, xy+1} a Groebner basis:", buchberger_check([f, g], lex))
print("its reduced basis:",
      [p.to_text() for p in reduced_gb_oracle([f, g], lex)])
