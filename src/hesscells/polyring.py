"""Exact sparse multivariate polynomials and square matrices of them.

A `PolyMatrix` only holds entries: it has no products, inverses or
substitution, since `cells` builds its one conjugate by a triangular
solve and its one specialization by relabelling variables.

Coefficients live in the integers (char 0) or in a prime field F_p
(char p); prime field elements are stored as canonical residues in
[1, p-1], so a nonzero coefficient is never congruent to 0.  All values
are immutable after construction and every operation is a pure function,
so values can be shared freely across workers.

Variables are named x_{i,j} (coordinates on a translated unipotent
patch) or z_{i,j} (coordinates on a Schubert cell); they serialize as
"x_1_2" and "z_2_1".
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .combinat import Permutation, check_integer


class Var(NamedTuple):
    """A named indeterminate, totally ordered by (family, row, col)."""

    family: str
    row: int
    col: int

    @property
    def name(self) -> str:
        return f"{self.family}_{self.row}_{self.col}"

    def __str__(self):
        return self.name


def xvar(i: int, j: int) -> Var:
    if i < 1 or j < 1:
        raise ValueError(f"variable indices must be positive, got ({i}, {j})")
    return Var("x", i, j)


def zvar(i: int, j: int) -> Var:
    if i < 1 or j < 1:
        raise ValueError(f"variable indices must be positive, got ({i}, {j})")
    return Var("z", i, j)


_VAR_RE = re.compile(r"^([xz])_(\d+)_(\d+)$")


def parse_var(name: str) -> Var:
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"cannot parse variable name {name!r}")
    return Var(m.group(1), int(m.group(2)), int(m.group(3)))


def x_universe(n: int) -> tuple:
    """Patch coordinates x_{i,j} with i + j <= n, in row-major order.

    These are the free entries of the w_0-translated unipotent matrix;
    the anti-diagonal entries are the constant 1, not variables.
    """
    return tuple(
        xvar(i, j) for i in range(1, n) for j in range(1, n - i + 1)
    )


@lru_cache(maxsize=1)
def z_universe(w: Permutation) -> tuple:
    """Cell coordinates z_{i,j} with i < w(j) and j < w^{-1}(i), row-major.

    Their number equals the length of w.
    """
    wi, winv = w.images, w.inverse().images
    return tuple(
        zvar(i, j)
        for i in range(1, w.n + 1)
        for j in range(1, w.n + 1)
        if i < wi[j - 1] and j < winv[i - 1]
    )


class Monomial:
    """A product of variables with positive integer exponents.

    Stored as a tuple of (Var, exponent) pairs sorted by the canonical
    variable order; the empty tuple is the monomial 1.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        cleaned = []
        for v, e in dict(exps).items():
            if type(e) is not int:  # the name is built only here
                check_integer(f"the exponent of {v}", e)
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v}")
            if e > 0:
                cleaned.append((v, e))
        cleaned.sort()
        self.exps = tuple(cleaned)
        self._hash = hash(self.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    def exponent(self, v: Var) -> int:
        for var, e in self.exps:
            if var == v:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self.exps)

    def weighted_degree(self, weights) -> int:
        return sum(e * weights[v] for v, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.exps:  # m * 1: half the products of `cells._conjugate_shift`
            return self
        out = dict(self.exps)
        for v, e in other.exps:
            out[v] = out.get(v, 0) + e
        return Monomial._raw(tuple(sorted(out.items())))

    @classmethod
    def _raw(cls, exps: tuple) -> "Monomial":
        """Internal: wrap pairs already sorted, with positive exponents."""
        m = cls.__new__(cls)
        m.exps = exps
        m._hash = hash(exps)
        return m

    def divides(self, other: "Monomial") -> bool:
        theirs = dict(other.exps)
        return all(theirs.get(v, 0) >= e for v, e in self.exps)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if other does not divide self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        ours = dict(self.exps)
        for v, e in other.exps:
            ours[v] -= e
        return Monomial(ours)

    def lcm(self, other: "Monomial") -> "Monomial":
        out = dict(self.exps)
        for v, e in other.exps:
            out[v] = max(out.get(v, 0), e)
        return Monomial(out)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_one:
            return "1"
        return "*".join(
            f"{v.name}^{e}" if e > 1 else v.name for v, e in self.exps
        )


ONE = Monomial()

# sorts after every real variable, so shorter monomials come later in a
# term listing and constants print last
_DISPLAY_SENTINEL = (Var("~", 0, 0), 0)


# As Miller-Rabin bases, the first 13 primes decide every n below 3.3e24
# (Sorenson and Webster 2015); the first 12 pass the composite 318665857834031151167461.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=64, typed=True)  # bounded: chars come from input; typed: 2.0 is refused
def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on `_BASES`; ValueError for a
    non-integer, or an n from 3.3e24 on, where that test is not exact."""
    check_integer("char", n)
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"char {n} is past 3.3e24, the bound of the primality test")
    if n < 2 or n in _BASES:
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _BASES:  # a prime n has a^d = 1, or -1 among a^d, a^2d, ..., a^(2^(s-1) d)
        powers = [x := pow(a, (n - 1) >> s, n)] + [x := x * x % n for _ in range(s - 1)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def _display_key(mono: Monomial):
    return tuple((v, -e) for v, e in mono.exps) + (_DISPLAY_SENTINEL,)


def _sorted_terms(terms):
    return sorted(terms.items(), key=lambda item: _display_key(item[0]))


class Polynomial:
    """A sparse polynomial with exact coefficients.

    `char` is 0 for integer coefficients or a prime p below 3.3e24 for
    F_p (`_is_prime`).  Zero coefficients are never stored; the zero
    polynomial has an empty term map.

    >>> x11, x12 = xvar(1, 1), xvar(1, 2)
    >>> p = Polynomial.variable(x11) - Polynomial.const(1)
    >>> q = Polynomial.variable(x11) + 1
    >>> print(p * q)
    x_1_1^2 - 1
    """

    __slots__ = ("char", "terms")

    def __init__(self, terms=None, char: int = 0):
        if char != 0 and not _is_prime(char):
            raise ValueError("char must be 0 or a prime")
        clean = {}
        if terms:
            for mono, coeff in dict(terms).items():
                if not isinstance(mono, Monomial):
                    raise TypeError(f"term key is not a Monomial: {mono!r}")
                if type(coeff) is not int:  # the name is built only here
                    check_integer(f"the coefficient of {mono!r}", coeff)
                if char:
                    coeff %= char
                if coeff:
                    clean[mono] = coeff
        self.char = char
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, char: int = 0) -> "Polynomial":
        return cls({}, char)

    @classmethod
    def const(cls, c: int, char: int = 0) -> "Polynomial":
        return cls({ONE: c}, char)

    @classmethod
    def one(cls, char: int = 0) -> "Polynomial":
        return cls.const(1, char)

    @classmethod
    def variable(cls, v: Var, char: int = 0) -> "Polynomial":
        return cls({Monomial({v: 1}): 1}, char)

    # ------------------------------------------------------------------
    # queries

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(m.is_one for m in self.terms)

    def variables(self):
        seen = set()
        for m in self.terms:
            seen.update(m.variables())
        return frozenset(seen)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.char != self.char:
                raise ValueError(
                    f"coefficient domain mismatch: char {self.char} vs {other.char}"
                )
            return other
        if isinstance(other, int):
            return Polynomial.const(other, self.char)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        char = self.char
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if char:
                v %= char
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return self._raw(out, char)

    __radd__ = __add__

    def __neg__(self):
        char = self.char
        if char:
            return self._raw({m: char - c for m, c in self.terms.items()}, char)
        return self._raw({m: -c for m, c in self.terms.items()}, char)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        char = self.char
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 * m2
                v = out.get(key, 0) + c1 * c2
                if char:
                    v %= char
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return self._raw(out, char)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.char)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    @classmethod
    def _raw(cls, terms: dict, char: int) -> "Polynomial":
        """Internal: wrap an already-normalized term map."""
        p = cls.__new__(cls)
        p.char = char
        p.terms = terms
        return p

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(other, self.char)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.char == other.char and self.terms == other.terms

    def __repr__(self):
        return self.to_text()

    # ------------------------------------------------------------------
    # domain changes and evaluation

    def reduce_mod(self, p: int) -> "Polynomial":
        """Image in F_p[vars]; requires integer coefficients."""
        if self.char != 0:
            raise ValueError("reduce_mod expects integer coefficients")
        return Polynomial(self.terms, p)

    def evaluate(self, point) -> int:
        """Value at an integer point, a mapping Var -> int."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for var, e in m.exps:
                v *= point[var] ** e
            total += v
        if self.char:
            total %= self.char
        return total

    # ------------------------------------------------------------------
    # serialization

    def to_text(self) -> str:
        """Signed sum of terms, e.g. '-x_1_2 + x_1_3*x_2_2 + 3'."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in _sorted_terms(self.terms):
            mag = abs(coeff)
            if mono.is_one:
                body = str(mag)
            elif mag == 1:
                body = repr(mono)
            else:
                body = f"{mag}*{mono!r}"
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        doc = {
            "terms": [
                {"c": str(c), "m": {v.name: e for v, e in m.exps}}
                for m, c in _sorted_terms(self.terms)
            ]
        }
        if self.char:
            doc["char"] = self.char
        return doc


def poly_from_json(doc: dict) -> Polynomial:
    char = int(str(doc.get("char", 0)))  # refuses 7.5 and true, which int() takes
    terms = {}
    for t in doc["terms"]:
        mono = Monomial({parse_var(name): e for name, e in t["m"].items()})
        terms[mono] = terms.get(mono, 0) + int(str(t["c"]))  # refuses 1.5, which int() truncates
    return Polynomial(terms, char)


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_FACTOR_RE = re.compile(r"^([xz]_\d+_\d+)(?:\^(\d+))?$")


def poly_parse_text(text: str, char: int = 0) -> Polynomial:
    """Inverse of Polynomial.to_text."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(char)
    pieces = _TERM_RE.findall(s)
    if sum(map(len, pieces)) != len(s):  # findall skips a sign no term follows
        raise ValueError(f"dangling sign in {text!r}")
    terms = {}
    for piece in pieces:
        coeff = -1 if piece[0] == "-" else 1
        exps = {}
        for factor in piece.lstrip("+-").split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                v = parse_var(m.group(1))
                exps[v] = exps.get(v, 0) + int(m.group(2) or 1)
            else:
                try:
                    coeff *= int(factor)
                except ValueError:
                    raise ValueError(
                        f"cannot parse factor {factor!r} in {text!r}"
                    ) from None
        mono = Monomial(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(terms, char)


class PolyMatrix:
    """A square matrix with Polynomial entries over one coefficient domain."""

    __slots__ = ("n", "char", "rows")

    def __init__(self, rows, char: int | None = None):
        coerced = []
        for row in rows:
            coerced.append(list(row))
        n = len(coerced)
        if any(len(row) != n for row in coerced):
            raise ValueError("matrix must be square")
        if char is None:  # the first Polynomial entry's, or 0
            char = next(
                (e.char for row in coerced for e in row if isinstance(e, Polynomial)), 0)
        out = []
        for row in coerced:
            new_row = []
            for entry in row:
                if isinstance(entry, int):
                    entry = Polynomial.const(entry, char)
                elif not isinstance(entry, Polynomial):
                    raise TypeError(f"bad matrix entry: {entry!r}")
                elif entry.char != char:
                    raise ValueError("matrix entries mix coefficient domains")
                new_row.append(entry)
            out.append(tuple(new_row))
        self.n = n
        self.char = char
        self.rows = tuple(out)

    @classmethod
    def _raw(cls, rows: tuple, char: int) -> "PolyMatrix":
        """Internal: wrap square rows, tuples of Polynomials over `char`."""
        m = cls.__new__(cls)
        m.n, m.char, m.rows = len(rows), char, rows
        return m

    def entry(self, i: int, j: int) -> Polynomial:
        """1-based access."""
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.n == other.n
            and self.char == other.char
            and self.rows == other.rows
        )

    def __repr__(self):
        body = ",\n ".join(
            "[" + ", ".join(e.to_text() for e in row) + "]" for row in self.rows
        )
        return f"PolyMatrix(\n {body})"
