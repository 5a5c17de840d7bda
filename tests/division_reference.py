"""Reference multivariate division on `Polynomial` dicts.

This is the plain division `hesscells.groebner.reduce` performed before it
moved to packed exponents: the leading term of the running remainder is
found with `initial_term`, and every step allocates `work - q * g`.  It is
slow but obviously faithful to the textbook algorithm, so the packed
kernel is tested against it.

`heap_divide` is a second referee, for the packed loop itself: the
`_divide` of the package before its work list became a sorted list, a
max-heap of negated codes after Monagan and Pearce ("Sparse polynomial
division using a heap", 2011), copied unchanged.  It takes the same
inputs as `hesscells.groebner._divide` and must return the same (steps,
remainder); tests/division_ab.py also times the two against each other.
"""

import heapq

from hesscells import Polynomial, initial_term
from hesscells.groebner import _FieldOverflow


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


def heap_divide(rem: dict, divisors: list, guard: int, char: int):
    """The division loop on encoded terms; consumes `rem`.

    `divisors` holds (lead, multiplier, tail terms) triples, where the
    multiplier turns a coefficient into its quotient coefficient; each term
    of the running remainder is reduced by the first divisor whose lead
    divides it.  The running remainder is the dict `rem` with a max-heap of
    its monomials.  A term that cancels stays in `rem` at 0, so each
    monomial is queued once: a popped monomial never comes back, since
    every product lies below the term it reduces.  Returns (steps,
    remainder term dict): one (lead, quotient monomial, quotient
    coefficient) per division step, both in decreasing order of the term
    reduced or kept.  Raises _FieldOverflow when a product monomial
    outgrows its field.
    """
    heap = [-m for m in rem]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    get, pop = rem.get, rem.pop
    steps, out = [], {}
    step = steps.append
    while heap:
        m = -heappop(heap)
        c = pop(m)
        if not c:
            continue
        mg = m | guard
        for lm, mult, tail in divisors:
            if (mg - lm) & guard != guard:
                continue
            qm = m - lm
            qc = c * mult % char if char else c * mult
            step((lm, qm, qc))
            for t, tc in tail:
                s = qm + t
                if s & guard:
                    raise _FieldOverflow
                old = get(s)
                if old is None:
                    heappush(heap, -s)
                    old = 0
                rem[s] = (old - qc * tc) % char if char else old - qc * tc
            break
        else:
            out[m] = c
    return steps, out
