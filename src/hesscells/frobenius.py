"""Frobenius splittings of cell coordinate rings in characteristic p.

The splitting element F is built from the product G of the nonzero ideal
generators taken mod p: F = (Z / m) * G where Z is the product of all
variables and m is the monomial of the initial term of G, which is
squarefree because the initial terms of the generators are distinct
variables.  The trace map Tr sends a monomial m to (mZ)^{1/p} / Z when mZ
is a p-th power and to 0 otherwise, and phi = Tr(F^{p-1} * -) is a
Frobenius splitting.  Compatibility of an ideal means phi maps it into
itself, checked generator by generator via Groebner reduction mod p
(valid since every leading coefficient is a unit mod p).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import build_ideal
from .combinat import (
    HessenbergFunction,
    Permutation,
    fixed_points,  # bound for perfbench's combinat.fixed_points span
    is_fixed_point,
)
from .groebner import MonomialOrder, initial_term, order_n, order_n_w, reduce
from .polyring import Monomial, Polynomial, x_universe, z_universe


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass
class SplittingContext:
    """Everything needed to evaluate the splitting for one (w, h, p)."""

    p: int
    w: Permutation
    h: HessenbergFunction
    kind: str
    variables: tuple
    order: MonomialOrder
    generators: list  # (k, l, Polynomial mod p), the nonzero ones
    Z: Monomial
    G: Polynomial
    F: Polynomial
    sign: int
    F_pow: Polynomial  # F^(p-1)


def make_splitting_context(
    w: Permutation, h: HessenbergFunction, p: int, kind: str = "cell"
) -> SplittingContext:
    """Build and validate the splitting data.

    For kind 'cell', w must be a fixed point of h; for kind 'patch' only
    the longest permutation is supported, matching the ideals this
    machinery certifies.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind == "cell":
        if not is_fixed_point(w, h):
            raise ValueError(f"w={w} is not a fixed point for h={h}")
        variables = z_universe(w)
        order = order_n_w(w)
    elif kind == "patch":
        if w != Permutation.longest_element(w.n):
            raise ValueError("patch splittings are built at the longest permutation")
        variables = x_universe(w.n)
        order = order_n(w.n)
    else:
        raise ValueError(f"kind must be 'patch' or 'cell', got {kind!r}")
    pres = build_ideal(w, h, kind)
    gens = [(k, l, g.reduce_mod(p)) for k, l, g in pres.generators if not g.is_zero]
    G = Polynomial.one(p)
    for _, _, g in gens:
        G = G * g
    Z = Monomial({v: 1 for v in variables})
    c, m = initial_term(G, order)
    if any(e != 1 for _, e in m.exps) or not m.divides(Z):
        raise AssertionError(
            f"initial monomial of the generator product is not squarefree "
            f"dividing Z: {m!r}"
        )
    sign = 1 if c == 1 else -1
    F = Polynomial({Z / m: 1}, p) * G
    cf, mf = initial_term(F, order)
    if mf != Z or cf != c:
        raise AssertionError(f"initial term of F is {cf}*{mf!r}, not +-Z")
    return SplittingContext(
        p=p,
        w=w,
        h=h,
        kind=kind,
        variables=variables,
        order=order,
        generators=gens,
        Z=Z,
        G=G,
        F=F,
        sign=sign,
        F_pow=F ** (p - 1),
    )


def trace(f: Polynomial, ctx: SplittingContext) -> Polynomial:
    """Additive trace: a term c*m maps to c * (mZ)^{1/p} / Z when mZ is a
    p-th power, and to 0 otherwise.

    Coefficients pass through unchanged, since c^{1/p} = c in F_p.
    """
    if f.char != ctx.p:
        raise ValueError(f"polynomial is not over F_{ctx.p}")
    allowed = set(ctx.variables)
    p = ctx.p
    out = {}
    for mono, coeff in f.terms.items():
        if any(v not in allowed for v, _ in mono.exps):
            raise ValueError(f"monomial {mono!r} uses variables outside the cell")
        image = {}
        ok = True
        for var in ctx.variables:
            e = mono.exponent(var) + 1  # exponent in m*Z
            if e % p:
                ok = False
                break
            image[var] = e // p - 1
        if ok:
            key = Monomial(image)
            v = (out.get(key, 0) + coeff) % p
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return Polynomial(out, p)


def splitting_apply(f: Polynomial, ctx: SplittingContext) -> Polynomial:
    """The candidate splitting phi(f) = Tr(F^{p-1} * f)."""
    if f.char == 0:
        f = f.reduce_mod(ctx.p)
    return trace(ctx.F_pow * f, ctx)


@dataclass
class CompatibilityReport:
    p: int
    w: Permutation
    h: HessenbergFunction
    kind: str
    splits_one: bool
    entries: list  # (k, l, remainder Polynomial mod p)
    all_compatible: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "w": self.w.to_json(),
            "h": self.h.to_json(),
            "kind": self.kind,
            "splitsOne": self.splits_one,
            "generators": [
                {
                    "k": k,
                    "l": l,
                    "remainder": r.to_json_dict(),
                    "compatible": r.is_zero,
                }
                for k, l, r in self.entries
            ],
            "allCompatible": self.all_compatible,
        }


def compatibility_check(ctx: SplittingContext) -> CompatibilityReport:
    """Verify phi(1) = 1 and that phi of each ideal generator reduces to
    zero modulo the generators, i.e. the splitting is compatible.

    The generators remain a Groebner basis mod p because their leading
    coefficients are units, so reduction decides membership.
    """
    splits_one = splitting_apply(Polynomial.one(ctx.p), ctx) == Polynomial.one(ctx.p)
    gen_polys = [g for _, _, g in ctx.generators]
    entries = []
    for k, l, g in ctx.generators:
        phi = splitting_apply(g, ctx)
        if gen_polys:
            _, r = reduce(phi, gen_polys, ctx.order)
        else:
            r = phi
        entries.append((k, l, r))
    all_ok = splits_one and all(r.is_zero for _, _, r in entries)
    return CompatibilityReport(
        p=ctx.p,
        w=ctx.w,
        h=ctx.h,
        kind=ctx.kind,
        splits_one=splits_one,
        entries=entries,
        all_compatible=all_ok,
    )
