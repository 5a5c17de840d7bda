"""One Frobenius splitting per Schubert cell of w and prime p.

The splitting element F is built from the product G of the nonzero
generators of I_{w,h^} mod p, h^ the least indecomposable Hessenberg
function fixing w: F = (Z / m) * G where Z is the product of all
variables and m is the monomial of the initial term of G, which is
squarefree because the initial terms of the generators are distinct
variables.  The trace map Tr sends a monomial m to (mZ)^{1/p} / Z when mZ
is a p-th power and to 0 otherwise, and phi = Tr(F^{p-1} * -).  Each
I_{w,h} with h fixing w is generated by some generators g of I_{w,h^},
and phi is a splitting compatible with it, by the argument of Knutson
("Frobenius splitting, point-counting, and degeneration", 2009):
- g divides F and Tr(a^p * b) = a * Tr(b), so phi(g) = g * Tr((F/g)^{p-1})
  lies in (g);
- a term of F^{p-1} survives Tr only if each exponent is p-1 mod p, so it
  is a multiple of Z^{p-1}.  Every weight of `weights_for(w)` is at least
  1, and each g is homogeneous of the weight of its initial term, a
  variable with coefficient +-1, so F has Z's weight: the one surviving
  term is Z^{p-1}, with coefficient c^{p-1} = 1, and phi(1) = 1.
The check computes phi(1) and reduces each nonzero phi(g) mod p by the
generators (a Groebner basis mod p, as their leading coefficients are
units), so it tests the trace kernel, not the theorem; the tests check
the argument's hypotheses at every w with n <= 6.  Only G and the packed
check of its initial term depend on p; the rest is w's `_splitting_base`.

G, F^a below and the F^{p-1} of `SplittingContext.F_pow` come from one
product over F_p, `_multiply`, on packed monomials (the `_Packing` codes
of `groebner`, where a monomial product is an integer sum), with fields
wide enough for the exponent bound (p-1)(1 + sum of each generator's top
exponent), so no product overflows.  The context stores only F, as packed
terms at that width: G's codes plus the one code of Z/m.  G, Z and the
decoded F are not kept, and no kernel forms F^{p-1}.  phi(f) =
Tr(F^a * (F^b * f)) with a = ceil((p-1)/2) and b = p-1-a, so b is 0 at
p = 2 and a otherwise.  A product of monomials s survives the trace only
when every exponent of s is p-1 mod p.  So the kernel keeps the terms of
F^a bucketed by their residue code (the exponent vector mod p,
`_residues`) and the terms of F^b each with its residue code.  phi(f)
walks the terms of F^b * f, one per pair of a term of f and a term of
F^b, and the residue code of such a term is the field-wise sum mod p of
its factors' residue codes (a few integer operations in the join, where
`_residues` may read every field).  A term of
residue r meets only the bucket (p-1-r) mod p of F^a, and each pair from
that bucket survives: with ONES the code holding a 1 in every field, its
image is the integer (s + ONES) // p - ONES, for every field of s + ONES
is a multiple of p, so the division is exact field by field.  Tr itself
is the same kernel with 1 in place of F^a and F^b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cells import build_ideal, ideal_positions
from .combinat import (
    HessenbergFunction,
    Permutation,
    check_integer,
    fixed_points,  # bound for perfbench's combinat.fixed_points span
    is_fixed_point,
    least_hessenberg,
)
from .groebner import (
    InternalError,
    MonomialOrder,
    _top_exponent,
    initial_term,
    order_n_w,
    reduce,
)
from .polyring import Monomial, Polynomial, z_universe


# The largest n of a Frobenius check at p, per prime as measured; no other
# prime is accepted, for the cost grows steeply with p (README).
FROBENIUS_CEILINGS = {2: 6, 3: 6, 5: 5, 7: 4, 11: 4, 13: 4, 17: 4, 19: 4}


def frobenius_ceiling(primes) -> int:
    """The largest n of a Frobenius check at every prime of the sequence
    `primes`; ValueError for a p that is not an int (`check_integer`) or
    an unlisted number below the largest listed prime (not prime, as
    every prime up to it is listed), then for any other unlisted number,
    with no primality test, so a large number is refused at once, or a
    prime listed more than once; ValueError too for no prime at all."""
    primes = tuple(primes)
    if not primes:
        raise ValueError("a Frobenius ceiling needs at least one prime")
    for p in primes:
        check_integer("p", p)
        if p < max(FROBENIUS_CEILINGS) and p not in FROBENIUS_CEILINGS:
            raise ValueError(f"{p} is not prime")
    for p in primes:
        if p not in FROBENIUS_CEILINGS:
            raise ValueError(f"p = {p} has no Frobenius ceiling; the primes are "
                             + ", ".join(map(str, FROBENIUS_CEILINGS)))
        if primes.count(p) > 1:
            raise ValueError(f"p = {p} is listed more than once")
    return min(FROBENIUS_CEILINGS[p] for p in primes)


@dataclass
class SplittingContext:
    """Everything needed to evaluate the splitting of the cell of w mod p.

    The splitting element F is stored only as its packed terms `_F`, at the
    context's width `_kernel_bits(_top, 0)`; the properties `F` and `F_pow`
    decode F and F^(p-1) on request, and no kernel reads them."""

    p: int
    w: Permutation
    variables: tuple
    order: MonomialOrder
    generators: list  # (k, l, Polynomial mod p), the nonzero ones of I_{w,h^}
    _F: dict = field(repr=False)  # code -> coefficient of F, as above
    _top: int  # bound on the exponents of F^(p-1)
    # (field width, twisted by F^(p-1)?) -> the trace kernel at that width,
    # built on first use by `_kernel`
    _kernels: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    # (k, l) -> phi(g_{k,l}), and None -> phi(1): neither depends on h
    _phi: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def F(self) -> Polynomial:
        """F, decoded on request."""
        return self.order._packing(_kernel_bits(self._top, 0)).decode(self._F, self.p)

    @property
    def F_pow(self) -> Polynomial:
        """F^(p-1), computed on request; no kernel needs or keeps it."""
        packing = self.order._packing(_kernel_bits(self._top, 0))
        return packing.decode(_power(self._F, self.p - 1, self.p), self.p)


@lru_cache(maxsize=1)
def _splitting_base(w: Permutation) -> tuple:
    """What the splitting of the cell of w takes at every prime: (Z's
    variables, the order, each nonzero generator of I_{w,h^} over the
    integers, as (k, l, g), the product c*m of their initial terms, the
    sum of the generators' top exponents).  Raises InternalError unless
    that m is squarefree dividing Z."""
    h_hat = HessenbergFunction(
        max(b, min(j + 1, w.n)) for j, b in enumerate(least_hessenberg(w), start=1)
    )
    variables, order = z_universe(w), order_n_w(w)
    gens = build_ideal(w, h_hat, "cell").nonzero_generators()
    c, m = 1, Monomial()
    for _, _, g in gens:
        cg, mg = initial_term(g, order)
        c, m = c * cg, m * mg
    if any(e != 1 for _, e in m.exps) or not m.divides(Monomial({v: 1 for v in variables})):
        raise InternalError("initial monomial of the generator product is not "
                            f"squarefree dividing Z: {m!r}")
    return variables, order, gens, (c, m), sum(_top_exponent(g) for _, _, g in gens)


def make_splitting_context(w: Permutation, p: int) -> SplittingContext:
    """Build and validate the splitting of the cell of w mod p from w's
    `_splitting_base`, refusing first a p without a Frobenius ceiling, as
    `frobenius_ceiling` refuses it.  Checked without decoding G: the
    product c*m of the generators' initial terms is squarefree (once per
    w), so in(F) = c*Z, and it is the packed G's largest term."""
    frobenius_ceiling((p,))
    variables, order, base_gens, (c, m), top_sum = _splitting_base(w)
    # every exponent of G, F and F^{p-1} is at most top, since g mod p has
    # no exponent above g's
    top = (p - 1) * (1 + top_sum)
    packing = order._packing(_kernel_bits(top, 0))
    gens, G = [], {0: 1}
    for k, l, g in base_gens:
        g = g.reduce_mod(p)
        gens.append((k, l, g))
        G = _multiply(G, packing.encode(g), p)
    c %= p
    lead = max(G)
    got = packing.decode({lead: G[lead]}, p)
    if got != Polynomial({m: c}, p):
        raise InternalError(
            f"packed initial term of the generator product is {got.to_text()}, "
            f"not the product {c}*{m!r} of the generators' initial terms"
        )
    z_over_m = packing.ones - lead  # F = (Z / m) * G
    return SplittingContext(p, w, variables, order, gens,
                            {code + z_over_m: coeff for code, coeff in G.items()}, top)


def _kernel_bits(top: int, top_f: int) -> int:
    """Field width for Tr(A * B * f) when the exponents of A * B are at most
    `top` >= p - 1 and f's at most `top_f`: every field of a product plus
    ONES, and of a sum of two residue codes, fits below the guard bit.  Any
    f with top_f <= top shares the width of top_f = 0."""
    return (top + max(top, top_f) + 1).bit_length() + 1


def _multiply(a: dict, b: dict, p: int) -> dict:
    """The product of two packed term dicts over F_p.

    Monomial products are plain integer sums with no guard check: the
    caller sizes the fields from a bound on the product's exponents.
    """
    out = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c % p for m, c in out.items() if c % p}


def _power(a: dict, k: int, p: int) -> dict:
    """a^k over F_p for k >= 1, as k - 1 products; sized as `_multiply`.
    a^1 is a itself, so the kernels of p = 2 and 3 multiply nothing."""
    result = a
    for _ in range(k - 1):
        result = _multiply(result, a, p)
    return result


def _residues(packing, code: int, p: int) -> int:
    """The code whose every field is the matching field of `code` mod p.

    At p = 2 that is each field's low bit.  A code whose every field is
    below p is its own residue code: as in `_Packing.lcm`, a field of
    (code | guard) minus p keeps its guard bit exactly when the field is
    at least p.  Fields too narrow to hold p are all below it, and any
    guard bit the test then leaves only sends the code to the
    field-by-field loop.
    """
    if p == 2:
        return code & packing.ones
    if not ((code | packing.guard) - p * packing.ones) & packing.guard:
        return code
    mask = packing._mask
    return sum((((code >> s) & mask) % p) << s for _, s in packing._fields)


def _kernel(packing, F, p: int) -> tuple:
    """The trace kernel for A = F^a and B = F^b, from F's codes at the
    packing's width (see the module docstring; b is a or 0), so F = 1 gives
    A = B = 1: (packing, A's terms (code + ONES, coefficient) keyed by
    residue code, B's terms (code, residue code, coefficient))."""
    A = _power(F, p // 2, p)
    ones = packing.ones
    terms = tuple((code, _residues(packing, code, p), coeff) for code, coeff in A.items())
    buckets = {}
    for code, r, coeff in terms:
        buckets.setdefault(r, []).append((code + ones, coeff))
    return packing, buckets, terms if p % 2 else ((0, 0, 1),)


def _twisted_trace(f: Polynomial, ctx: SplittingContext, twisted: bool):
    """Tr(A * B * f) for A * B = F^{p-1} when `twisted`, else A = B = 1,
    joining each term of B * f with the one bucket of A it can survive
    with (see the module docstring).  The twisted kernel reads the stored
    codes of F, re-encoding F only when f needs wider fields."""
    if f.char != ctx.p:
        raise ValueError(f"polynomial is not over F_{ctx.p}")
    p = ctx.p
    bits = _kernel_bits(ctx._top if twisted else p - 1, _top_exponent(f))
    kernel = ctx._kernels.get((bits, twisted))
    if kernel is None:
        packing = ctx.order._packing(bits)
        F = {0: 1}  # 1 in place of F: the plain trace
        if twisted:
            F = ctx._F if bits == _kernel_bits(ctx._top, 0) else packing.encode(ctx.F)
        kernel = ctx._kernels[bits, twisted] = _kernel(packing, F, p)
    packing, buckets, B = kernel
    ones, guard, low = packing.ones, packing.guard, packing._low
    pones = p * ones
    want = pones - ones
    out = {}
    get = out.get
    for code, coeff in packing.encode(f).items():
        r = _residues(packing, code, p)
        for b, rb, bc in B:  # the term s of B * f
            # s's residue code, r + rb field-wise mod p: as in `_Packing.lcm`,
            # a field of (r + rb) | guard minus p keeps its guard bit exactly
            # when the field's sum is at least p, and p comes off those only
            rs = r + rb
            over = ((rs | guard) - pones) & guard
            bucket = buckets.get(want - rs + (pones & (over - (over >> low))))
            if bucket is None:
                continue
            s, c = code + b, coeff * bc
            for t, tc in bucket:
                u = (s + t) // p - ones
                out[u] = get(u, 0) + c * tc
    return packing.decode({u: c % p for u, c in out.items() if c % p}, p)


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


def _phi(ctx: SplittingContext, key, f: Polynomial) -> Polynomial:
    if key not in ctx._phi:
        ctx._phi[key] = splitting_apply(f, ctx)
    return ctx._phi[key]


@dataclass
class CompatibilityReport:
    p: int
    w: Permutation
    h: HessenbergFunction
    splits_one: bool
    entries: list  # (k, l, remainder Polynomial mod p)

    @property
    def all_compatible(self) -> bool:
        return self.splits_one and all(r.is_zero for _, _, r in self.entries)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "w": self.w.to_json(),
            "h": self.h.to_json(),
            "kind": "cell",
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


def compatibility_check(
    ctx: SplittingContext, h: HessenbergFunction
) -> CompatibilityReport:
    """Verify phi(1) = 1 and that phi of each generator of I_{w,h}, the
    context's generators at `ideal_positions(h)`, reduces to zero modulo
    them, i.e. the splitting of the cell is compatible with I_{w,h}.

    The generators remain a Groebner basis mod p because their leading
    coefficients are units, so reduction decides membership.

    >>> ctx = make_splitting_context(Permutation([3, 4, 2, 1]), 3)
    >>> [compatibility_check(ctx, HessenbergFunction(h)).all_compatible
    ...  for h in ([3, 3, 4, 4], [3, 4, 4, 4], [4, 4, 4, 4])]
    [True, True, True]
    """
    if not is_fixed_point(ctx.w, h):
        raise ValueError(f"w={ctx.w} is not a fixed point for h={h}")
    if not h.is_indecomposable:
        raise ValueError(f"Hessenberg function {h} is decomposable")
    one = Polynomial.one(ctx.p)
    splits_one = _phi(ctx, None, one) == one
    positions = set(ideal_positions(h))
    gens = [(k, l, g) for k, l, g in ctx.generators if (k, l) in positions]
    gen_polys = [g for _, _, g in gens]
    entries = []
    for k, l, g in gens:
        phi = _phi(ctx, (k, l), g)  # a zero phi(g) is its own remainder
        entries.append((k, l, reduce(phi, gen_polys, ctx.order)[1] if phi else phi))
    return CompatibilityReport(ctx.p, ctx.w, h, splits_one, entries)
