"""Permutations in one-line notation and Hessenberg functions.

Conventions
-----------
A permutation w of [n] = {1, ..., n} is stored by its tuple of images
(w(1), ..., w(n)).  Its matrix carries a 1 in row w(j) of column j, so that
composing permutations agrees with multiplying their matrices:
(w * u)(j) = w(u(j)).

A Hessenberg function is a nondecreasing h: [n] -> [n] with h(i) >= i.
It is indecomposable when additionally h(i) >= i + 1 for all i < n.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache


def check_integer(name: str, value) -> None:
    """Raise ValueError unless `value` (called `name`) is an int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def check_integers(name: str, values: tuple) -> None:
    """`check_integer` of each value, the i-th called name(i)."""
    for i, value in enumerate(values, start=1):
        if type(value) is not int:  # the name is built only here
            check_integer(f"{name}({i})", value)


class Permutation:
    """A bijection of {1, ..., n}, in one-line notation.

    >>> w = Permutation([3, 4, 2, 1])
    >>> w(1), w.inverse()(1)
    (3, 4)
    >>> w.length()
    5
    >>> str(w)
    '3421'
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        check_integers("w", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def longest_element(cls, n: int) -> "Permutation":
        """The order-reversing permutation j -> n + 1 - j."""
        return cls(range(n, 0, -1))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse '3421' (digits, n <= 9) or '3,4,2,1' (comma separated)."""
        s = text.strip()
        if "," in s:
            return cls(int(part) for part in s.split(","))
        if not s.isdigit():
            raise ValueError(f"cannot parse permutation from {text!r}")
        if len(s) > 9:
            raise ValueError("digit form is limited to n <= 9; use commas")
        return cls(int(ch) for ch in s)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise IndexError(f"index {j} out of range 1..{self.n}")
        return self.images[j - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, v in enumerate(self.images, start=1):
            inv[v - 1] = j
        p = Permutation.__new__(Permutation)  # a permutation by construction
        p.images = tuple(inv)
        return p

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self(other(j)) for j in range(1, self.n + 1))

    def length(self) -> int:
        """Number of inversions, i.e. the dimension of the Schubert cell."""
        return sum(itertools.starmap(operator.gt, itertools.combinations(self.images, 2)))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def to_json(self) -> list:
        return list(self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        if self.n <= 9:
            return "".join(str(v) for v in self.images)
        return ",".join(str(v) for v in self.images)


@lru_cache(maxsize=1)
def v_of_w(w: Permutation) -> Permutation:
    """The complementary permutation w_0 * w, i.e. j -> n + 1 - w(j)."""
    return Permutation(w.n + 1 - v for v in w.images)


def all_permutations(n: int):
    """All of S_n as Permutation objects, in lexicographic order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


class HessenbergFunction:
    """A nondecreasing function h: [n] -> [n] with h(i) >= i.

    >>> h = HessenbergFunction([2, 3, 4, 4])
    >>> h.is_indecomposable
    True
    >>> h.lambda_partition()
    (2, 1, 0, 0)
    >>> h.lambda_size()
    3
    """

    # is_indecomposable, h(i) > i for every i < n: every ideal reads it, so
    # __init__ takes it once
    __slots__ = ("values", "is_indecomposable")

    def __init__(self, values):
        values = tuple(values)
        check_integers("h", values)
        n = len(values)
        if n == 0:
            raise ValueError("empty Hessenberg function")
        for i, v in enumerate(values, start=1):
            if not i <= v <= n:
                raise ValueError(f"h({i}) = {v} violates {i} <= h({i}) <= {n}")
        if any(values[i] < values[i - 1] for i in range(1, n)):
            raise ValueError(f"values are not nondecreasing: {values!r}")
        self.values = values
        self.is_indecomposable = all(values[i - 1] >= i + 1 for i in range(1, n))

    @classmethod
    def parse(cls, text: str) -> "HessenbergFunction":
        """Parse a comma separated list such as '2,3,4,4'."""
        return cls(int(part) for part in text.strip().split(","))

    @classmethod
    def full(cls, n: int) -> "HessenbergFunction":
        """The maximal function h = (n, ..., n)."""
        return cls([n] * n)

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return self.values[i - 1]

    def lambda_partition(self) -> tuple:
        """The partition (n - h(1), ..., n - h(n))."""
        return tuple(self.n - v for v in self.values)

    def lambda_size(self) -> int:
        """Sum of the parts of the partition, n^2 - sum(h)."""
        return self.n * self.n - sum(self.values)

    def to_json(self) -> list:
        return list(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, HessenbergFunction) and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"HessenbergFunction({list(self.values)})"

    def __str__(self):
        return ",".join(str(v) for v in self.values)


def enumerate_hessenberg(n: int, indecomposable_only: bool = False):
    """All Hessenberg functions on [n], lexicographically sorted: the
    nondecreasing tuples of values in [n], in the lexicographic order of
    `itertools.combinations_with_replacement`, with h(i) >= i, or with
    h(i) >= min(i + 1, n) when `indecomposable_only`.

    The total count is the n-th Catalan number; restricting to
    indecomposable functions gives the (n-1)-st Catalan number.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    least = [min(i + 1, n) if indecomposable_only else i for i in range(1, n + 1)]
    return [HessenbergFunction(values)
            for values in itertools.combinations_with_replacement(range(1, n + 1), n)
            if all(map(operator.ge, values, least))]


@lru_cache(maxsize=1)
def least_hessenberg(w: Permutation) -> tuple:
    """The values of h_w, the least Hessenberg function fixing w:
    h_w(j) = max(j, w^{-1}(w(i) - 1) for i <= j), where the second term
    is skipped when w(i) = 1, realizing the convention w(0) = 0.

    >>> least_hessenberg(Permutation([3, 4, 2, 1]))
    (3, 3, 4, 4)
    """
    inv = w.inverse().images
    return tuple(itertools.accumulate(
        (max(j, inv[wj - 2] if wj > 1 else 0) for j, wj in enumerate(w.images, 1)),
        max,
    ))


def is_fixed_point(w: Permutation, h: HessenbergFunction) -> bool:
    """True iff w^{-1}(w(j) - 1) <= h(j) whenever w(j) > 1, i.e. (h being
    nondecreasing) h >= h_w pointwise; never for another size of w."""
    return w.n == h.n and all(map(operator.ge, h.values, least_hessenberg(w)))


@lru_cache(maxsize=None)
def fixed_points(h: HessenbergFunction) -> tuple:
    """Permutations w of [n] with is_fixed_point(w, h), in lexicographic
    order."""
    return tuple(w for w in all_permutations(h.n) if is_fixed_point(w, h))
