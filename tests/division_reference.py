"""Reference multivariate division on `Polynomial` dicts.

This is the plain division `hesscells.groebner.reduce` performed before it
moved to packed exponents: the leading term of the running remainder is
found with `initial_term`, and every step allocates `work - q * g`.  It is
slow but obviously faithful to the textbook algorithm, so the packed
kernel is tested against it.
"""

from hesscells import Polynomial, initial_term


def _divisor_coeff(c: int, lead_c: int, char: int) -> int:
    """Coefficient q with q * lead_c == c in the coefficient domain."""
    if char:
        return (c * pow(lead_c, -1, char)) % char
    if lead_c not in (1, -1):
        raise ValueError(
            f"leading coefficient {lead_c} is not a unit over the integers"
        )
    return c * lead_c


def reference_reduce(p: Polynomial, divisors, order):
    """(quotients, remainder) of p by the divisors, tried in list order."""
    divisors = list(divisors)
    leads = []
    for g in divisors:
        if g.is_zero:
            raise ValueError("cannot divide by the zero polynomial")
        if g.char != p.char:
            raise ValueError("coefficient domain mismatch")
        lc, lm = initial_term(g, order)
        if not p.char and lc not in (1, -1):
            raise ValueError(
                f"leading coefficient {lc} is not a unit over the integers"
            )
        leads.append((lc, lm))
    quotients = [Polynomial.zero(p.char) for _ in divisors]
    remainder = Polynomial.zero(p.char)
    work = p
    while work:
        c, m = initial_term(work, order)
        for i, g in enumerate(divisors):
            lc, lm = leads[i]
            if lm.divides(m):
                q = Polynomial({m / lm: _divisor_coeff(c, lc, p.char)}, p.char)
                quotients[i] = quotients[i] + q
                work = work - q * g
                break
        else:
            lt = Polynomial({m: c}, p.char)
            remainder = remainder + lt
            work = work - lt
    return quotients, remainder
