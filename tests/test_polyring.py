import json

import pytest
from cells_reference import PsiMap
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    Monomial,
    Permutation,
    Polynomial,
    PolyMatrix,
    all_permutations,
    poly_from_json,
    poly_parse_text,
    x_universe,
    xvar,
    z_universe,
    zvar,
)

X11, X12, X13 = xvar(1, 1), xvar(1, 2), xvar(1, 3)
X21, X22, X31 = xvar(2, 1), xvar(2, 2), xvar(3, 1)


def V(var):
    return Polynomial.variable(var)


XVARS = list(x_universe(4))

monomials = st.dictionaries(
    st.sampled_from(XVARS), st.integers(1, 3), max_size=3
).map(Monomial)

polynomials = st.dictionaries(
    monomials, st.integers(-9, 9).filter(bool), max_size=8
).map(Polynomial)


class TestMonomial:
    def test_one(self):
        assert Monomial().is_one
        assert Monomial({X11: 0}).is_one

    def test_mul_merges_exponents(self):
        m = Monomial({X11: 1, X12: 2}) * Monomial({X12: 1, X13: 1})
        assert m == Monomial({X11: 1, X12: 3, X13: 1})

    def test_divides_and_div(self):
        a = Monomial({X11: 2, X12: 1})
        b = Monomial({X11: 1})
        assert b.divides(a)
        assert not a.divides(b)
        assert a / b == Monomial({X11: 1, X12: 1})
        with pytest.raises(ValueError):
            b / a

    def test_lcm(self):
        a = Monomial({X11: 2})
        b = Monomial({X11: 1, X12: 1})
        assert a.lcm(b) == Monomial({X11: 2, X12: 1})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial({X11: -1})

    @pytest.mark.parametrize("e", [1.5, 2.0, True, "2"])
    def test_rejects_non_integer_exponents(self, e):
        with pytest.raises(ValueError, match="^the exponent of x_1_1 must be an integer"):
            Monomial({X11: e})


class TestArithmetic:
    def test_difference_of_squares(self):
        p = (V(X11) + 1) * (V(X11) - 1)
        assert p == Polynomial({Monomial({X11: 2}): 1, Monomial(): -1})

    def test_additive_identity(self):
        p = V(X12) * 3 - V(X21)
        assert p + Polynomial.zero() == p

    def test_patch_generator_by_hand(self):
        # assembling the (4,1) patch generator from smaller pieces
        prod = (-V(X22) + V(X31)) * V(X13)
        assert prod == Polynomial(
            {Monomial({X13: 1, X31: 1}): 1, Monomial({X13: 1, X22: 1}): -1}
        )
        f41 = V(X13) * (V(X22) - V(X31)) + (-V(X12) + V(X21))
        assert f41 == poly_parse_text("-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1")

    def test_domain_mismatch_raises(self):
        with pytest.raises(ValueError):
            Polynomial.one() + Polynomial.one(5)

    @pytest.mark.parametrize("c", [1.5, 1.0, False, "1"])
    def test_rejects_non_integer_coefficients(self, c):
        with pytest.raises(ValueError, match="^the coefficient of 1 must be an integer"):
            Polynomial({Monomial(): c})
        with pytest.raises(ValueError, match="must be an integer"):
            Polynomial.const(c, 5)

    def test_mod_p_normalization(self):
        p = Polynomial({Monomial({X11: 1}): 7, Monomial(): -3}, char=5)
        assert p.terms == {Monomial({X11: 1}): 2, Monomial(): 2}

    def test_pow(self):
        p = V(X11) + 1
        assert p**0 == Polynomial.one()
        assert p**3 == p * p * p

    def test_evaluate(self):
        p = V(X11) * V(X12) - 2
        assert p.evaluate({X11: 3, X12: 4}) == 10

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSubstitute:
    """Variable substitution, as the specialization psi of the reference
    `cells_reference.PsiMap`; for w = 3421 it zeroes x_3_1."""

    psi = PsiMap(Permutation([3, 4, 2, 1]))

    def test_paper_specialization(self):
        p = -V(X22) + V(X31)
        assert self.psi.apply(p) == -Polynomial.variable(zvar(2, 1))

    def test_zero_polynomial(self):
        assert self.psi.apply(Polynomial.zero()) == Polynomial.zero()
        assert self.psi.apply(Polynomial.zero(5)) == Polynomial.zero(5)

    def test_monomial_multiplicativity(self):
        p = V(X11) * V(X22)
        z12, z21 = Polynomial.variable(zvar(1, 2)), Polynomial.variable(zvar(2, 1))
        assert self.psi.apply(p) == z12 * z21

    def test_unmapped_variable_outside_universe_raises(self):
        # a cell coordinate is not a patch coordinate, and a foreign
        # variable raises even inside a term that psi would zero
        with pytest.raises(ValueError):
            self.psi.apply(Polynomial.variable(zvar(1, 1)))
        with pytest.raises(ValueError):
            self.psi.apply(V(X31) * V(xvar(4, 4)))

    @given(polynomials, polynomials)
    @settings(max_examples=40)
    def test_homomorphism(self, p, q):
        apply = self.psi.apply
        assert apply(p * q + p) == apply(p) * apply(q) + apply(p)


class TestSerialization:
    def test_text_examples(self):
        assert Polynomial.zero().to_text() == "0"
        assert Polynomial.const(-7).to_text() == "-7"
        p = poly_parse_text("-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1")
        assert p.to_text() == "-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1"
        q = Polynomial({Monomial({X11: 2}): 3, Monomial(): 1})
        assert q.to_text() == "3*x_1_1^2 + 1"
        assert poly_parse_text(q.to_text()) == q

    @pytest.mark.parametrize("text", [
        "x_1_1 - + x_1_2", "x_1_1 +", "+", "-", "x_1_1 -- x_1_2", "2*x_1_1 - - 3",
    ])
    def test_a_sign_no_term_follows_is_refused(self, text):
        with pytest.raises(ValueError, match="^dangling sign in "):
            poly_parse_text(text)

    def test_json_schema_shape(self):
        p = -V(X12) + V(X21)
        doc = p.to_json_dict()
        assert doc == {
            "terms": [
                {"c": "-1", "m": {"x_1_2": 1}},
                {"c": "1", "m": {"x_2_1": 1}},
            ]
        }
        assert poly_from_json(json.loads(json.dumps(doc))) == p

    @given(polynomials)
    @settings(max_examples=80)
    def test_text_roundtrip(self, p):
        assert poly_parse_text(p.to_text()) == p

    @given(polynomials)
    @settings(max_examples=80)
    def test_json_roundtrip(self, p):
        assert poly_from_json(p.to_json_dict()) == p

    @pytest.mark.parametrize("term", [
        {"c": "1", "m": {"x_1_1": 1.5}}, {"c": 2.7, "m": {"x_1_1": 1}},
        {"c": "2.0", "m": {}}, {"c": True, "m": {}},
    ])
    def test_json_refuses_non_integers(self, term):
        with pytest.raises(ValueError):
            poly_from_json({"terms": [term]})

    def test_mod_p_roundtrip(self):
        p = Polynomial({Monomial({X11: 1}): 2, Monomial(): 4}, char=5)
        assert poly_from_json(p.to_json_dict()) == p


class TestMatrices:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix([[1, 0], [0]])

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix([[Polynomial.one(), Polynomial.one(3)], [0, 1]])


class TestUniverses:
    def test_x_universe_n4(self):
        assert list(x_universe(4)) == [
            xvar(1, 1), xvar(1, 2), xvar(1, 3),
            xvar(2, 1), xvar(2, 2),
            xvar(3, 1),
        ]

    def test_z_universe_size_is_length(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                assert len(z_universe(w)) == w.length()
