"""Reference completion oracle on `Monomial` keys.

This is `hesscells.groebner.reduced_gb_oracle` as it was before it moved to
exponent vectors: its working polynomials are dicts keyed by `Monomial`,
each step finds the lead by `max(..., key=order.key)` over the whole running
remainder, and each subtraction copies the dict.  The vector oracle is
tested against it, basis for basis and budget error for budget error.
"""

import math
from fractions import Fraction

from hesscells.groebner import BudgetExceededError, MonomialOrder, initial_term
from hesscells.polyring import Monomial, Polynomial


def _frac_lead(f: dict, order: MonomialOrder):
    m = max(f, key=order.key)
    return m, f[m]


def _frac_monic(f: dict, order: MonomialOrder) -> dict:
    _, c = _frac_lead(f, order)
    if c == 1:
        return f
    return {m: v / c for m, v in f.items()}


def _frac_sub_scaled(f: dict, c: Fraction, mono: Monomial, g: dict) -> dict:
    out = dict(f)
    for m2, c2 in g.items():
        key = mono * m2
        v = out.get(key, 0) - c * c2
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def reduced_gb_oracle(generators, order: MonomialOrder, max_steps: int = 100_000):
    """Reduced Groebner basis by Buchberger completion over the rationals.

    Input polynomials must have integer coefficients; the result is
    converted back to primitive integer polynomials with positive leading
    coefficients, sorted by decreasing leading monomial.  Returns [1]
    exactly when the ideal is the unit ideal.  Raises BudgetExceededError
    after `max_steps` reduction steps, and ValueError for a negative one.
    """
    if max_steps < 0:
        raise ValueError(f"budget must be at least 0, not {max_steps}")
    steps = 0

    def charge():
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise BudgetExceededError(
                f"exceeded budget of {max_steps} reduction steps"
            )

    def frac_reduce(f: dict, basis: list) -> dict:
        rem: dict = {}
        work = dict(f)
        while work:
            charge()
            m, c = _frac_lead(work, order)
            for g, (gm, gc) in basis:
                if gm.divides(m):
                    work = _frac_sub_scaled(work, c / gc, m / gm, g)
                    break
            else:
                rem[m] = c
                del work[m]
        return rem

    unit = [Polynomial.one()]
    basis = []
    for g in generators:
        if g.char != 0:
            raise ValueError("the completion oracle expects integer input")
        if g.is_zero:
            continue
        f = _frac_monic({m: Fraction(c) for m, c in g.terms.items()}, order)
        if _frac_lead(f, order)[0].is_one:
            return unit
        basis.append((f, _frac_lead(f, order)))

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        fi, (mi, ci) = basis[i]
        fj, (mj, cj) = basis[j]
        lcm = mi.lcm(mj)
        s = _frac_sub_scaled(
            {lcm / mi * m: c / ci for m, c in fi.items()},
            Fraction(1) / cj,
            lcm / mj,
            fj,
        )
        r = frac_reduce(s, basis)
        if r:
            r = _frac_monic(r, order)
            lead = _frac_lead(r, order)
            if lead[0].is_one:
                return unit
            basis.append((r, lead))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    # minimalize: greedily keep elements whose lead no kept lead divides
    basis.sort(key=lambda item: order.key(item[1][0]))
    keep = []
    for f, (m, c) in basis:
        if not any(km.divides(m) for _, (km, _) in keep):
            keep.append((f, (m, c)))

    # interreduce tails; leads survive since the kept basis is minimal
    reduced = []
    for idx, (f, lead) in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        reduced.append(_frac_monic(frac_reduce(f, others), order))

    # clear denominators; monic normalization makes leading coefficients 1,
    # so the primitive integer form has a positive lead
    out = []
    for f in reduced:
        denom_lcm = math.lcm(*(c.denominator for c in f.values()))
        ints = {m: int(c * denom_lcm) for m, c in f.items()}
        content = math.gcd(*ints.values())
        out.append(Polynomial({m: c // content for m, c in ints.items()}))
    out.sort(key=lambda p: order.key(initial_term(p, order)[1]), reverse=True)
    return out
