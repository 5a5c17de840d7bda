"""Lexicographic monomial orders, division, and Groebner machinery.

Two independent certification routes are provided and must agree:
`triangular_analysis` checks that generators have distinct single-variable
initial terms arranged triangularly, while `buchberger_check` reduces
every S-polynomial from scratch.  A small general-purpose completion
oracle over the rationals (`reduced_gb_oracle`) is used to decide unit
ideals on arbitrary inputs.  It keys its polynomials by exponent vector
(`MonomialOrder.key`) and stays apart from the packed kernel below, which
`buchberger_check` runs; the oracle's docstring says why.

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
width, so the result is exact for any input.  `_Packing` is the codec of
division (`encode`, `lcm`, `decode`); `frobenius` multiplies its codes
over F_p and reads their residues mod p itself.

`_divide` is the one division loop.  It records each division step as
(lead, quotient monomial, coefficient); `reduce` sorts the steps into its
per-divisor quotients, and `buchberger_check` reads only whether the
remainder is empty.  The check runs its whole S-pair loop on these codes:
it encodes each generator once, takes the lcm of two leads as a field-wise
maximum (`_Packing.lcm`), forms every S-polynomial as a code dict and
divides it by the generators sorted by lead, smallest dividing lead first,
so nothing is decoded; an overflow restarts the whole check at double
width.  It still forms and divides every pair from scratch and reads
nothing of the generators' shape: Buchberger's coprime-lead criterion
would pass every pair of the cell ideals unseen, since their initial
terms are distinct variables, and the check would then only restate what
`triangular_analysis` finds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, le, sub

from .combinat import Permutation, v_of_w
from .polyring import (
    Monomial,
    Polynomial,
    x_universe,
    z_universe,
)


class BudgetExceededError(RuntimeError):
    """Raised when the completion oracle exceeds its reduction budget."""


class InternalError(RuntimeError):
    """A broken internal invariant: a bug, never a consequence of input."""


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
    is the mask of all of them, and `ones` has a 1 in every field.  Encoded
    integers compare like the order.
    """

    __slots__ = ("guard", "ones", "_shift", "_fields", "_mask", "_low")

    def __init__(self, priority, bits: int):
        top = len(priority) - 1
        self._shift = {v: (top - k) * bits for k, v in enumerate(priority)}
        self.ones = sum(1 << s for s in self._shift.values())
        self.guard = self.ones << (bits - 1)
        # canonical variable order, so decoding yields sorted Monomial pairs
        self._fields = sorted(self._shift.items())
        self._mask = (1 << (bits - 1)) - 1
        self._low = bits - 1

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

    def lcm(self, a: int, b: int) -> int:
        """The field-wise maximum of two codes with clear guard bits.

        A field of (a | guard) - b keeps its guard bit exactly when a's
        exponent is at least b's; each such bit g becomes the field mask
        g - (g >> (bits - 1)), which selects a's fields from a and the
        rest from b.
        """
        keep = ((a | self.guard) - b) & self.guard
        keep -= keep >> self._low
        return (a & keep) | (b & ~keep)

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


@lru_cache(maxsize=1)
def order_n_w(w: Permutation) -> MonomialOrder:
    """Lex order on the cell coordinates of w: z_{i,j} beats z_{i',j'}
    when i < i', or i = i' and v(j) < v(j') for v = w_0 w."""
    vi = v_of_w(w).images
    return MonomialOrder(
        sorted(z_universe(w), key=lambda var: (var.row, vi[var.col - 1]))
    )


def initial_term(p: Polynomial, order: MonomialOrder):
    """Largest term of p under the order, as (coefficient, monomial)."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no initial term")
    best = max(p.terms, key=order.key)
    return p.terms[best], best


def _top_exponent(f: Polynomial) -> int:
    """The largest exponent of any variable in f; 0 for a constant."""
    return max((e for mono in f.terms for _, e in mono.exps), default=0)


def _field_bits(polys) -> int:
    """Packed field width for dividing these polynomials, guard included.

    Leaves room for four times the largest input exponent, and at least
    seven exponent bits, so that a restart at double width is rare.
    """
    return max(8, max(map(_top_exponent, polys), default=0).bit_length() + 3)


def _divide(rem: dict, divisors: list, guard: int, char: int):
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


def _encode_divisors(packing: _Packing, polys, char: int) -> list:
    """(lead, lead coefficient, tail terms) of each polynomial, encoded.

    Raises ValueError for a zero polynomial, a coefficient domain other
    than `char`, or a variable outside the order.
    """
    out = []
    for g in polys:
        if g.is_zero:
            raise ValueError("cannot divide by the zero polynomial")
        if g.char != char:
            raise ValueError("coefficient domain mismatch")
        tail = packing.encode(g)
        lm = max(tail)
        lc = tail.pop(lm)
        out.append((lm, lc, tuple(tail.items())))
    return out


def _divisor_triples(encoded: list, char: int) -> list:
    """The (lead, multiplier, tail terms) triples `_divide` takes.

    Raises ValueError for a lead coefficient that is not a unit.
    """
    out = []
    for lm, lc, tail in encoded:
        if char:
            mult = pow(lc, -1, char)
        elif lc in (1, -1):
            mult = lc
        else:
            raise ValueError(
                f"leading coefficient {lc} is not a unit over the integers"
            )
        out.append((lm, mult, tail))
    return out


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
        packed = _divisor_triples(_encode_divisors(packing, divisors, char), char)
        try:
            steps, remainder = _divide(packing.encode(p), packed, packing.guard, char)
        except _FieldOverflow:
            bits *= 2
            continue
        first = {}  # a lead shared by two divisors divides for the first
        for k, (lm, _, _) in enumerate(packed):
            first.setdefault(lm, k)
        quotients = [{} for _ in packed]
        for lm, qm, qc in steps:
            quotients[first[lm]][qm] = qc
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

    This is the from-scratch criterion: every pair i < j is formed and
    divided by all the generators, with no criterion that skips a pair, and
    nothing is read from the shape of the initial terms, so it stays
    independent of `triangular_analysis`.  It runs on packed monomials:
    each generator is encoded once, the S-polynomial
    c_j (L / m_i) f_i - c_i (L / m_j) f_j, with (c, m) an initial term and L
    the lcm of the two, is formed on codes, and `_divide` reduces each
    term by the generator with the smallest lead that divides it (the
    divisors are sorted once by lead code).  No rule moves the verdict: G
    is a Groebner basis iff every S-polynomial reduces to 0 under some
    complete reduction by G (Buchberger's criterion), so a basis leaves
    remainder 0 under every rule and a non-basis leaves a nonzero one under
    every rule for some pair.  The remainder's emptiness is all that is
    read, so nothing is decoded; a failing pair is divided to its full
    remainder, as `reduce` divides it.
    Raises ValueError for mixed coefficient domains, a variable outside
    the order, or a division by a lead coefficient that is not a unit.

    >>> from hesscells.polyring import xvar
    >>> x, y = Polynomial.variable(xvar(1, 1)), Polynomial.variable(xvar(1, 2))
    >>> order = MonomialOrder([xvar(1, 1), xvar(1, 2)])
    >>> buchberger_check([x**2, x*y + 1], order)
    False
    >>> buchberger_check([x - y**2, y**3], order)
    True
    """
    gens = [g for g in polys if not g.is_zero]
    if len(gens) < 2:
        return True
    char = gens[0].char
    bits = _field_bits(gens)
    while True:
        try:
            return _packed_check(gens, order._packing(bits), char)
        except _FieldOverflow:
            bits *= 2


def _packed_check(gens: list, packing: _Packing, char: int) -> bool:
    """`buchberger_check` at one field width; raises _FieldOverflow."""
    encoded = _encode_divisors(packing, gens, char)
    guard, lcm = packing.guard, packing.lcm
    divisors = None
    for i, (li, ci, tail_i) in enumerate(encoded):
        for lj, cj, tail_j in encoded[i + 1 :]:
            top = lcm(li, lj)
            s = {}
            for u, k, tail in ((top - li, cj, tail_i), (top - lj, -ci, tail_j)):
                for t, c in tail:
                    m = u + t
                    if m & guard:  # cannot fire: exponents here reach 2x the top one, fields 4x
                        raise _FieldOverflow
                    v = s.get(m, 0) + k * c
                    if char:
                        v %= char
                    if v:
                        s[m] = v
                    else:
                        s.pop(m, None)
            if not s:
                continue
            if divisors is None:
                divisors = sorted(_divisor_triples(encoded, char))
            if _divide(s, divisors, guard, char)[1]:
                return False
    return True


@dataclass
class TriangularReport:
    """Outcome of the triangular complete intersection analysis.

    `ordered_generators` lists the nonzero generators sorted by decreasing
    initial term; `initial_terms` aligns with it.  Failures are recorded in
    `notes`, never raised; the analysis passes exactly when there is none.
    """

    ordered_generators: list
    initial_terms: list  # (sign, Var or None) per ordered generator
    free_variables: list
    notes: list

    @property
    def is_triangular(self) -> bool:
        """Distinct signed-variable initial terms.  Being pairwise coprime,
        they make the generators a Groebner basis with a squarefree initial
        ideal, which certifies radicality and the sufficient condition for
        geometric vertex decomposability."""
        return not self.notes

    @property
    def height(self) -> int:
        return len(self.ordered_generators)

    @property
    def dimension(self) -> int:
        return len(self.free_variables)


def generator_lead(g: Polynomial, order: MonomialOrder) -> tuple:
    """The per-generator step of `triangular_analysis`: (order key, c, m,
    sign, var) for the initial term c*m of a nonzero g, where var is the
    variable of a signed-variable initial term sign*var, and None for any
    other initial term.  It reads g alone, so a caller that meets one
    generator in many ideals takes it once."""
    c, m = initial_term(g, order)
    if g.char:
        unit, sign = c in (1, g.char - 1), 1 if c == 1 else -1
    else:
        unit, sign = c in (1, -1), 1 if c > 0 else -1
    var = m.exps[0][0] if unit and len(m.exps) == 1 and m.exps[0][1] == 1 else None
    return order.key(m), c, m, sign, var


def triangular_report(pres, leads) -> TriangularReport:
    """The per-ideal step of `triangular_analysis`: its report on pres
    from `leads`, the `generator_lead` of each nonzero generator of pres
    in their order."""
    gens = [(lead, k, l, g) for lead, (k, l, g) in zip(leads, pres.nonzero_generators())]
    gens.sort(key=lambda info: info[0][0], reverse=True)
    initial_terms, unsigned, repeats, seen = [], [], [], set()
    for (_, c, m, sign, var), k, l, _ in gens:
        initial_terms.append((sign, var))
        if var is None:
            unsigned.append(f"generator ({k},{l}) has initial term {c}*{m!r}, "
                            "not a signed variable")
            continue
        if var in seen:
            repeats.append(f"initial variable {var.name} repeats")
        seen.add(var)
    return TriangularReport(
        ordered_generators=[(k, l, g) for _, k, l, g in gens],
        initial_terms=initial_terms,
        free_variables=[v for v in pres.ambient_variables if v not in seen],
        notes=unsigned + repeats,
    )


def triangular_analysis(pres, order: MonomialOrder) -> TriangularReport:
    """Check the two triangularity conditions of an IdealPresentation and
    report the quotient: the initial terms are signed variables, and they
    are distinct.

    That no initial variable x divides a term of a later generator follows
    from these two, for the order is lex: a term containing x is at least
    x, so a later generator containing x has initial monomial x, which is
    a repeat of x or an initial term that is not a signed variable.

    When both pass, the quotient by the ideal is a free polynomial ring on
    `free_variables` and the ideal is prime of height `height`.  It is
    `triangular_report` over the `generator_lead` of each generator.
    """
    return triangular_report(
        pres, [generator_lead(g, order) for _, _, g in pres.nonzero_generators()])


# ----------------------------------------------------------------------
# general-purpose completion oracle over the rationals

def _frac_monic(f: dict) -> dict:
    c = f[max(f)]
    return f if c == 1 else {m: v / c for m, v in f.items()}


def reduced_gb_oracle(generators, order: MonomialOrder, max_steps: int = 100_000):
    """Reduced Groebner basis by Buchberger completion over the rationals.

    Input polynomials must have integer coefficients; the result is
    converted back to primitive integer polynomials with positive leading
    coefficients, sorted by decreasing leading monomial.  Returns [1]
    exactly when the ideal is the unit ideal.  Raises BudgetExceededError
    after `max_steps` reduction steps, and ValueError for a negative one or
    a variable outside the order.

    Polynomials are dicts from exponent vectors (`order.key`, taken once
    per input term) to Fractions; so a lead is `max(f)`, divisibility is a
    component-wise <=, and products, quotients and lcms are component-wise
    sums, differences and maxima.  Basis elements are monic, pairs go first
    in, first out, and each leading term of a running remainder costs one
    step and is reduced in place by the first basis element in list order
    whose lead divides it.  It stays apart from the packed kernel: a trial
    fold onto `_divide` needed a step-budget hook in the division loop and
    an overflow restart of its own, and would run the oracle on the
    Buchberger check's code.
    """
    if max_steps < 0:
        raise ValueError(f"budget must be at least 0, not {max_steps}")
    steps = 0

    def frac_reduce(work: dict, basis: list) -> dict:  # consumes `work`
        nonlocal steps
        rem = {}
        while work:
            steps += 1
            if steps > max_steps:
                raise BudgetExceededError(f"exceeded budget of {max_steps} reduction steps")
            m = max(work)
            c = work[m]
            for g, gm in basis:
                if all(map(le, gm, m)):
                    q = tuple(map(sub, m, gm))
                    for m2, c2 in g.items():
                        key = tuple(map(add, q, m2))
                        v = work.get(key, 0) - c * c2
                        if v:
                            work[key] = v
                        else:
                            del work[key]
                    break
            else:
                rem[m] = work.pop(m)
        return rem

    basis = []
    for g in generators:
        if g.char != 0:
            raise ValueError("the completion oracle expects integer input")
        if g.is_zero:
            continue
        f = _frac_monic({order.key(m): Fraction(c) for m, c in g.terms.items()})
        if not any(max(f)):
            return [Polynomial.one()]
        basis.append((f, max(f)))

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        (fi, mi), (fj, mj) = basis[i], basis[j]
        lcm = tuple(map(max, mi, mj))  # S = (lcm / mi) fi - (lcm / mj) fj, both monic
        ui, uj = tuple(map(sub, lcm, mi)), tuple(map(sub, lcm, mj))
        s = {tuple(map(add, ui, m)): c for m, c in fi.items()}
        for m, c in fj.items():
            key = tuple(map(add, uj, m))
            v = s.get(key, 0) - c
            if v:
                s[key] = v
            else:
                del s[key]
        r = frac_reduce(s, basis)
        if r:
            r = _frac_monic(r)
            if not any(max(r)):
                return [Polynomial.one()]
            basis.append((r, max(r)))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    # minimalize: greedily keep elements whose lead no kept lead divides
    basis.sort(key=lambda item: item[1])
    keep = []
    for f, m in basis:
        if not any(all(map(le, km, m)) for _, km in keep):
            keep.append((f, m))

    # interreduce tails; leads survive since the kept basis is minimal
    reduced = [_frac_monic(frac_reduce(dict(f), keep[:k] + keep[k + 1 :]))
               for k, (f, _) in enumerate(keep)]

    # clear denominators; monic normalization makes leading coefficients 1,
    # so the primitive integer form has a positive lead
    out = []
    for f in sorted(reduced, key=max, reverse=True):
        denom_lcm = math.lcm(*(c.denominator for c in f.values()))
        ints = {m: int(c * denom_lcm) for m, c in f.items()}
        content = math.gcd(*ints.values())
        out.append(Polynomial({Monomial(zip(order.priority, m)): c // content
                               for m, c in ints.items()}))
    return out
