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

G, F and F^{p-1} are multiplied out on packed monomials (the `_Packing`
encoding of `groebner`), with fields wide enough for the exponent bound
(p-1)(1 + sum of each generator's top exponent), so no product overflows.
phi(f) never expands F^{p-1} * f.  A product of monomials s survives the
trace only when every exponent of s is p-1 mod p, so the terms of F^{p-1}
are bucketed by their exponent vector mod p, and a term of f whose
exponents are r mod p meets only the bucket (p-1-r) mod p.  Each product
from that bucket survives, and with ONES the code holding a 1 in every
field its image is the integer (s + ONES) // p - ONES: every field of
s + ONES is a multiple of p, so the division is exact field by field.
Tr itself is the same kernel with 1 in place of F^{p-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cells import build_ideal
from .combinat import (
    HessenbergFunction,
    Permutation,
    fixed_points,  # bound for perfbench's combinat.fixed_points span
    is_fixed_point,
)
from .groebner import (
    MonomialOrder,
    _multiply,
    _power,
    initial_term,
    order_n,
    order_n_w,
    reduce,
)
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
    _top: int  # bound on the exponents of F^(p-1)
    # (field width, twisted by F^(p-1)?) -> the trace kernel's packed data;
    # the entry at the base width is the only stored copy of F^(p-1)
    _kernels: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def F_pow(self) -> Polynomial:
        """F^(p-1), decoded on request from the trace kernel's buckets."""
        packing, buckets = self._kernels[_kernel_bits(self._top, 0), True]
        ones = packing.ones
        return packing.decode(
            {t - ones: c for bucket in buckets.values() for t, c in bucket},
            self.p,
        )


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
    # every exponent of G, F and F^{p-1} is at most top
    top = (p - 1) * (1 + sum(_top_exponent(g) for _, _, g in gens))
    bits = _kernel_bits(top, 0)
    packing = order._packing(bits)
    G = {0: 1}
    for _, _, g in gens:
        G = _multiply(G, packing.encode(g), p)
    G_poly = packing.decode(G, p)
    Z = Monomial({v: 1 for v in variables})
    c, m = initial_term(G_poly, order)
    if any(e != 1 for _, e in m.exps) or not m.divides(Z):
        raise AssertionError(
            f"initial monomial of the generator product is not squarefree "
            f"dividing Z: {m!r}"
        )
    sign = 1 if c == 1 else -1
    z_over_m = packing.ones - max(G)
    F = {code + z_over_m: coeff for code, coeff in G.items()}
    F_poly = packing.decode(F, p)
    cf, mf = initial_term(F_poly, order)
    if mf != Z or cf != c:
        raise AssertionError(f"initial term of F is {cf}*{mf!r}, not +-Z")
    ctx = SplittingContext(
        p=p,
        w=w,
        h=h,
        kind=kind,
        variables=variables,
        order=order,
        generators=gens,
        Z=Z,
        G=G_poly,
        F=F_poly,
        sign=sign,
        _top=top,
    )
    ctx._kernels[bits, True] = (packing, _buckets(_power(F, p - 1, p), packing, p))
    return ctx


def _top_exponent(f: Polynomial) -> int:
    """The largest exponent of any variable in f; 0 for a constant."""
    return max((e for mono in f.terms for _, e in mono.exps), default=0)


def _kernel_bits(top: int, top_f: int) -> int:
    """Field width for Tr(A * f) when A's exponents are at most `top` and
    f's at most `top_f`: every field of a product plus ONES fits below the
    guard bit.  Any f with top_f <= top shares the width of top_f = 0."""
    return (top + max(top, top_f) + 1).bit_length() + 1


def _buckets(terms: dict, packing, p: int) -> dict:
    """Packed terms (code + ONES, coefficient) keyed by residue code."""
    ones = packing.ones
    out = {}
    for code, coeff in terms.items():
        out.setdefault(packing.residues(code, p), []).append((code + ones, coeff))
    return out


def _twisted_trace(f: Polynomial, ctx: SplittingContext, twisted: bool):
    """Tr(A * f) for A = F^{p-1} when `twisted`, else A = 1, computing
    only the products that survive the trace (see the module docstring)."""
    if f.char != ctx.p:
        raise ValueError(f"polynomial is not over F_{ctx.p}")
    p = ctx.p
    bits = _kernel_bits(ctx._top if twisted else 0, _top_exponent(f))
    kernel = ctx._kernels.get((bits, twisted))
    if kernel is None:
        packing = ctx.order._packing(bits)
        terms = packing.encode(ctx.F_pow) if twisted else {0: 1}
        kernel = ctx._kernels[bits, twisted] = (packing, _buckets(terms, packing, p))
    packing, buckets = kernel
    ones = packing.ones
    want = (p - 1) * ones
    out = {}
    get = out.get
    for code, coeff in packing.encode(f).items():
        for t, tc in buckets.get(want - packing.residues(code, p), ()):
            s = (code + t) // p - ones
            out[s] = get(s, 0) + coeff * tc
    return packing.decode({s: c % p for s, c in out.items() if c % p}, p)


def trace(f: Polynomial, ctx: SplittingContext) -> Polynomial:
    """Additive trace: a term c*m maps to c * (mZ)^{1/p} / Z when mZ is a
    p-th power, and to 0 otherwise.

    Coefficients pass through unchanged, since c^{1/p} = c in F_p.
    """
    return _twisted_trace(f, ctx, False)


def splitting_apply(f: Polynomial, ctx: SplittingContext) -> Polynomial:
    """The candidate splitting phi(f) = Tr(F^{p-1} * f)."""
    if f.char == 0:
        f = f.reduce_mod(ctx.p)
    return _twisted_trace(f, ctx, True)


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
