"""Lexicographic monomial orders, division, and Groebner machinery.

Two independent certification routes are provided and must agree:
`triangular_analysis` checks that generators have distinct single-variable
initial terms arranged triangularly, while `buchberger_check` reduces
every S-polynomial from scratch.  A small general-purpose completion
oracle over the rationals (`reduced_gb_oracle`) is used to decide unit
ideals on arbitrary inputs.

Division (`reduce`) runs on packed exponents, after Monagan and Pearce
("Sparse polynomial division using a heap", 2011).  `_Packing` encodes a
monomial as one integer: every variable owns a fixed-width field, the
order's first variable the most significant one, so integer comparison is
the lex order and a monomial product is an integer sum.  The top bit of
each field is a guard bit that stays clear in every encoded monomial.
With G the mask of all guard bits, l divides m exactly when
((m | G) - l) & G == G, and a sum whose field outgrew its width shows up
as a set guard bit.  The width is chosen from the inputs; if a field
overflows partway through, the division restarts from scratch at double
width, so the result is exact for any input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .combinat import Permutation, v_of_w
from .polyring import (
    Monomial,
    Polynomial,
    x_universe,
    z_universe,
)


class BudgetExceededError(RuntimeError):
    """Raised when the completion oracle exceeds its reduction budget."""


class MonomialOrder:
    """Lexicographic order given by a priority list of variables.

    The first variable in `priority` is the largest.  Monomials are
    compared by their exponent vectors read in priority order.
    """

    __slots__ = ("priority", "_index", "_packings")

    def __init__(self, priority):
        priority = tuple(priority)
        if len(set(priority)) != len(priority):
            raise ValueError("priority list contains duplicates")
        self.priority = priority
        self._index = {v: k for k, v in enumerate(priority)}
        self._packings = {}

    def key(self, mono: Monomial) -> tuple:
        vec = [0] * len(self.priority)
        for v, e in mono.exps:
            pos = self._index.get(v)
            if pos is None:
                raise ValueError(
                    f"variable {v.name} is not in the order's universe"
                )
            vec[pos] = e
        return tuple(vec)

    def _packing(self, bits: int) -> "_Packing":
        """The packed encoding of this order with `bits`-bit fields."""
        got = self._packings.get(bits)
        if got is None:
            got = self._packings[bits] = _Packing(self.priority, bits)
        return got

    def __repr__(self):
        names = " > ".join(v.name for v in self.priority)
        return f"MonomialOrder({names})"


class _Packing:
    """Monomials of a lex order encoded as integers.

    Every variable owns a field of `bits` bits, the first variable of the
    priority list the most significant one.  An exponent fills the low
    `bits - 1` bits of its field; the top bit is a guard bit, and `guard`
    is the mask of all of them.  Encoded integers compare like the order.
    """

    __slots__ = ("guard", "_shift", "_fields", "_mask")

    def __init__(self, priority, bits: int):
        top = len(priority) - 1
        self._shift = {v: (top - k) * bits for k, v in enumerate(priority)}
        self.guard = sum(1 << (s + bits - 1) for s in self._shift.values())
        # canonical variable order, so decoding yields sorted Monomial pairs
        self._fields = sorted(self._shift.items())
        self._mask = (1 << (bits - 1)) - 1

    def encode(self, p: Polynomial) -> dict:
        """Terms of p keyed by encoded monomial.

        Raises ValueError for a variable outside the order.  The caller
        sizes the fields so that every exponent of p fits.
        """
        shift = self._shift
        out = {}
        for mono, c in p.terms.items():
            code = 0
            for v, e in mono.exps:
                s = shift.get(v)
                if s is None:
                    raise ValueError(
                        f"variable {v.name} is not in the order's universe"
                    )
                code += e << s
            out[code] = c
        return out

    def decode(self, terms: dict, char: int) -> Polynomial:
        """The polynomial of encoded terms, in their insertion order."""
        fields, mask = self._fields, self._mask
        out = {}
        for code, c in terms.items():
            exps = []
            for v, s in fields:
                e = (code >> s) & mask
                if e:
                    exps.append((v, e))
            out[Monomial._raw(tuple(exps))] = c
        return Polynomial._raw(out, char)


class _FieldOverflow(Exception):
    """An exponent outgrew its packed field during a division."""


def order_n(n: int) -> MonomialOrder:
    """Lex order on the patch coordinates: x_{i,j} beats x_{i',j'} when
    i < i', or i = i' and j < j'."""
    return MonomialOrder(x_universe(n))


@lru_cache(maxsize=None)
def order_n_w(w: Permutation) -> MonomialOrder:
    """Lex order on the cell coordinates of w: z_{i,j} beats z_{i',j'}
    when i < i', or i = i' and v(j) < v(j') for v = w_0 w."""
    v = v_of_w(w)
    return MonomialOrder(
        sorted(z_universe(w), key=lambda var: (var.row, v(var.col)))
    )


def initial_term(p: Polynomial, order: MonomialOrder):
    """Largest term of p under the order, as (coefficient, monomial)."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no initial term")
    best = max(p.terms, key=order.key)
    return p.terms[best], best


def _field_bits(polys) -> int:
    """Packed field width for dividing these polynomials, guard included.

    Leaves room for four times the largest input exponent, and at least
    seven exponent bits, so that a restart at double width is rare.
    """
    top = max(
        (e for p in polys for mono in p.terms for _, e in mono.exps), default=0
    )
    return max(8, top.bit_length() + 3)


def _divide(rem: dict, divisors: list, guard: int, char: int):
    """The division loop on encoded terms; consumes `rem`.

    `divisors` holds (lead, multiplier, tail terms) triples, where the
    multiplier turns a coefficient into its quotient coefficient.  The
    running remainder is the dict `rem` with a max-heap of its monomials;
    heap entries whose term has cancelled are skipped when popped.
    Returns (quotient term dicts, remainder term dict), both filled in
    decreasing monomial order.  Raises _FieldOverflow when a product
    monomial outgrows its field.
    """
    heap = [-m for m in rem]
    heapq.heapify(heap)
    quotients = [{} for _ in divisors]
    out = {}
    while heap:
        m = -heapq.heappop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue
        for (lm, mult, tail), quot in zip(divisors, quotients):
            if ((m | guard) - lm) & guard != guard:
                continue
            qm = m - lm
            qc = c * mult % char if char else c * mult
            quot[qm] = qc
            for t, tc in tail:
                s = qm + t
                if s & guard:
                    raise _FieldOverflow
                old = rem.get(s)
                if old is None:
                    heapq.heappush(heap, -s)
                    old = 0
                v = old - qc * tc
                if char:
                    v %= char
                if v:
                    rem[s] = v
                else:
                    rem.pop(s, None)
            break
        else:
            out[m] = c
    return quotients, out


def reduce(p: Polynomial, divisors, order: MonomialOrder):
    """Multivariate division of p by an ordered list of divisors.

    Returns (quotients, remainder) with p == sum(q_i * g_i) + remainder
    and no remainder term divisible by any divisor's leading monomial.
    Divisors are tried in list order and the leading term of the running
    remainder is always reduced first, so the result is deterministic.
    """
    divisors = list(divisors)
    char = p.char
    bits = _field_bits([p, *divisors])
    while True:
        packing = order._packing(bits)
        packed = []
        for g in divisors:
            if g.is_zero:
                raise ValueError("cannot divide by the zero polynomial")
            if g.char != char:
                raise ValueError("coefficient domain mismatch")
            tail = packing.encode(g)
            lm = max(tail)
            lc = tail.pop(lm)
            if char:
                mult = pow(lc, -1, char)
            elif lc in (1, -1):
                mult = lc
            else:
                raise ValueError(
                    f"leading coefficient {lc} is not a unit over the integers"
                )
            packed.append((lm, mult, tuple(tail.items())))
        try:
            quotients, remainder = _divide(
                packing.encode(p), packed, packing.guard, char
            )
        except _FieldOverflow:
            bits *= 2
            continue
        return (
            [packing.decode(q, char) for q in quotients],
            packing.decode(remainder, char),
        )


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial, scaled to stay in the coefficient domain."""
    cf, mf = initial_term(f, order)
    cg, mg = initial_term(g, order)
    lcm = mf.lcm(mg)
    return (
        Polynomial({lcm / mf: cg}, f.char) * f
        - Polynomial({lcm / mg: cf}, f.char) * g
    )


def buchberger_check(polys, order: MonomialOrder) -> bool:
    """True iff every S-polynomial of every pair of the nonzero
    polynomials reduces to 0.

    This is the from-scratch criterion; it does not use any structure of
    the generators beyond plain division.
    """
    gens = [g for g in polys if not g.is_zero]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j], order)
            if s.is_zero:
                continue
            _, r = reduce(s, gens, order)
            if not r.is_zero:
                return False
    return True


@dataclass
class TriangularReport:
    """Outcome of the triangular complete intersection analysis.

    `ordered_generators` lists the nonzero generators sorted by strictly
    decreasing initial term; `initial_terms` aligns with it.  Failures are
    recorded in the flags, never raised.
    """

    is_triangular: bool
    initials_are_variables: bool
    initials_distinct: bool
    no_later_division: bool
    ordered_generators: list
    initial_terms: list  # (sign, Var or None) per ordered generator
    height: int
    free_variables: list
    dimension: int
    # distinct single-variable initial terms: a squarefree initial ideal,
    # which certifies radicality and the sufficient condition for
    # geometric vertex decomposability
    squarefree_initial_ideal: bool
    notes: list = field(default_factory=list)


def triangular_analysis(pres, order: MonomialOrder) -> TriangularReport:
    """Check the three triangularity conditions of an IdealPresentation
    and report the quotient.

    When everything passes, the quotient by the ideal is a free
    polynomial ring on `free_variables` and the ideal is prime of height
    `height`.
    """
    notes = []
    infos = []
    for k, l, g in pres.nonzero_generators():
        c, m = initial_term(g, order)
        if g.char:
            unit = c == 1 or c == g.char - 1
            sign = 1 if c == 1 else -1
        else:
            unit = c in (1, -1)
            sign = 1 if c > 0 else -1
        var = None
        if unit and len(m.exps) == 1 and m.exps[0][1] == 1:
            var = m.exps[0][0]
        infos.append((k, l, g, c, m, var, sign))
    infos.sort(key=lambda info: order.key(info[4]), reverse=True)

    initials_are_variables = all(info[5] is not None for info in infos)
    if not initials_are_variables:
        for k, l, g, c, m, var, _ in infos:
            if var is None:
                notes.append(
                    f"generator ({k},{l}) has initial term {c}*{m!r}, "
                    "not a signed variable"
                )

    init_vars = [info[5] for info in infos]
    seen = set()
    initials_distinct = True
    for var in init_vars:
        if var is None:
            continue
        if var in seen:
            initials_distinct = False
            notes.append(f"initial variable {var.name} repeats")
        seen.add(var)

    no_later_division = True
    if initials_are_variables:
        for idx, (_, _, _, _, _, var, _) in enumerate(infos):
            for later in infos[idx + 1 :]:
                g_later = later[2]
                if any(m.exponent(var) for m in g_later.terms):
                    no_later_division = False
                    notes.append(
                        f"initial variable {var.name} appears in a later generator"
                    )
    ok = initials_are_variables and initials_distinct and no_later_division
    free = [v for v in pres.ambient_variables if v not in seen]
    return TriangularReport(
        is_triangular=ok,
        initials_are_variables=initials_are_variables,
        initials_distinct=initials_distinct,
        no_later_division=no_later_division,
        ordered_generators=[(k, l, g) for (k, l, g, *_rest) in infos],
        initial_terms=[(info[6], info[5]) for info in infos],
        height=len(infos),
        free_variables=free,
        dimension=len(free),
        squarefree_initial_ideal=initials_are_variables and initials_distinct,
        notes=notes,
    )


# ----------------------------------------------------------------------
# general-purpose completion oracle over the rationals

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
    after `max_steps` reduction steps.
    """
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
        denom_lcm = 1
        for c in f.values():
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
        ints = {m: int(c * denom_lcm) for m, c in f.items()}
        content = 0
        for c in ints.values():
            content = math.gcd(content, c)
        out.append(Polynomial({m: c // content for m, c in ints.items()}))
    out.sort(key=lambda p: order.key(initial_term(p, order)[1]), reverse=True)
    return out

