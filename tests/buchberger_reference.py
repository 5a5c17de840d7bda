"""Reference Buchberger check on `Polynomial` arithmetic.

This is the S-pair loop `hesscells.groebner.buchberger_check` ran before it
moved to packed monomials: every pair i < j is formed with `s_polynomial`
and divided with `reduce`, and the remainder is decoded and tested.  The
packed check is tested against it, answer for answer and division for
division.  `reduce` is looked up on the module at call time, so a test
can count its calls.
"""

from hesscells import groebner


def reference_buchberger_check(polys, order) -> bool:
    gens = [g for g in polys if not g.is_zero]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = groebner.s_polynomial(gens[i], gens[j], order)
            if s.is_zero:
                continue
            _, r = groebner.reduce(s, gens, order)
            if not r.is_zero:
                return False
    return True
