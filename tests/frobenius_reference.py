"""Reference Frobenius splitting on `Polynomial` dicts.

This is the plain route that `hesscells.frobenius` replaced with a packed
kernel, which never forms F^(p-1): G, F and F^(p-1) are `Polynomial`
products, the trace walks every term of its argument and keeps those
whose exponents are all p - 1 mod p, and phi(f) expands the whole product
F^(p-1) * f before tracing it.  It is slow but reads like the
definitions, so the packed kernel is tested against it.  `is_prime` is
trial division, the reference for the package's table of primes.
"""

from math import isqrt

from hesscells import Monomial, Polynomial, initial_term


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def variable_product(ctx):
    """Z, the product of all variables of a splitting context's cell."""
    return Monomial({v: 1 for v in ctx.variables})


def reference_products(ctx):
    """(G, F, F^(p-1)) of a splitting context, by `Polynomial` products."""
    p = ctx.p
    G = Polynomial.one(p)
    for _, _, g in ctx.generators:
        G = G * g
    _, m = initial_term(G, ctx.order)
    F = Polynomial({variable_product(ctx) / m: 1}, p) * G
    return G, F, F ** (p - 1)


def reference_trace(f: Polynomial, ctx) -> Polynomial:
    """Tr(f): c*m maps to c * (mZ)^(1/p) / Z when mZ is a p-th power."""
    if f.char != ctx.p:
        raise ValueError(f"polynomial is not over F_{ctx.p}")
    allowed = set(ctx.variables)
    p = ctx.p
    out = {}
    for mono, coeff in f.terms.items():
        if any(v not in allowed for v, _ in mono.exps):
            raise ValueError(f"monomial {mono!r} uses variables outside the cell")
        image = {}
        for var in ctx.variables:
            e = mono.exponent(var) + 1  # exponent in m*Z
            if e % p:
                break
            image[var] = e // p - 1
        else:
            key = Monomial(image)
            out[key] = (out.get(key, 0) + coeff) % p
    return Polynomial(out, p)


def reference_splitting_apply(f: Polynomial, ctx, F_pow=None) -> Polynomial:
    """phi(f) = Tr(F^(p-1) * f), expanding the product first.  `F_pow`,
    when given, is F^(p-1) from `reference_products`, so that a caller
    applying phi many times forms it once."""
    if f.char == 0:
        f = f.reduce_mod(ctx.p)
    if F_pow is None:
        F_pow = ctx.F ** (ctx.p - 1)
    return reference_trace(F_pow * f, ctx)
