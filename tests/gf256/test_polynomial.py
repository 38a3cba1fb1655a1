"""Tests proving the field constructions are mathematically sound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf256 import polynomial as gp
from repro.gf256.tables import GENERATOR, RIJNDAEL_POLY

polys = st.integers(min_value=1, max_value=1 << 12)


class TestBasics:
    def test_degree(self):
        assert gp.degree(0) == -1
        assert gp.degree(1) == 0
        assert gp.degree(0b10) == 1
        assert gp.degree(RIJNDAEL_POLY) == 8
        assert gp.degree(1 << 16) == 16

    def test_mod_by_zero_raises(self):
        with pytest.raises(FieldError):
            gp.poly_mod(5, 0)

    def test_negative_exponent_raises(self):
        with pytest.raises(FieldError):
            gp.poly_powmod(2, -1, 7)

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert gp.poly_mul(a, b) == gp.poly_mul(b, a)

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_mul_distributes_over_xor(self, a, b, c):
        assert gp.poly_mul(a, b ^ c) == gp.poly_mul(a, b) ^ gp.poly_mul(a, c)

    @given(polys)
    def test_mod_idempotent(self, a):
        m = RIJNDAEL_POLY
        assert gp.poly_mod(gp.poly_mod(a, m), m) == gp.poly_mod(a, m)

    @given(polys, polys)
    @settings(max_examples=50)
    def test_gcd_divides_both(self, a, b):
        g = gp.poly_gcd(a, b)
        assert gp.poly_mod(a, g) == 0
        assert gp.poly_mod(b, g) == 0


class TestFieldConstructions:
    def test_rijndael_polynomial_is_irreducible(self):
        assert gp.is_irreducible(RIJNDAEL_POLY)

    def test_known_reducible_polynomials_rejected(self):
        # x^8 + 1 = (x+1)^8 over GF(2).
        assert not gp.is_irreducible(0x101)
        # x^2 (not square-free).
        assert not gp.is_irreducible(0b100)

    def test_generator_0x03_is_primitive_in_gf256(self):
        assert gp.is_primitive_element(GENERATOR, RIJNDAEL_POLY)

    def test_0x02_is_not_primitive_for_rijndael(self):
        """The classic gotcha: x itself has order 51 in the Rijndael
        field, which is why AES-style tables use 0x03."""
        assert gp.element_order(0x02, RIJNDAEL_POLY) == 51
        assert not gp.is_primitive_element(0x02, RIJNDAEL_POLY)

    def test_order_divides_group_order(self):
        for element in (0x02, 0x03, 0x05, 0x1D):
            order = gp.element_order(element, RIJNDAEL_POLY)
            assert 255 % order == 0

    def test_zero_has_no_order(self):
        with pytest.raises(FieldError):
            gp.element_order(0, RIJNDAEL_POLY)

    def test_powmod_matches_table_exponentials(self):
        from repro.gf256.tables import EXP

        for power in (0, 1, 7, 100, 254):
            assert gp.poly_powmod(GENERATOR, power, RIJNDAEL_POLY) == EXP[power]
