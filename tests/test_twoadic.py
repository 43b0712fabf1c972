"""Tests for residue arithmetic modulo powers of two."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import solve_linear
from rbcm.twoadic import INFINITY, deg2, geom_sum_mod, sqrt_lift

SEED = 20240811


def brute_roots(h, e_target, s, e_base):
    """All x in [0, 2^e_target) with x^2 = h and x = s (mod 2^(e_base-1))."""
    mod = 1 << e_target
    anchor = 1 << (e_base - 1)
    return [
        x
        for x in range(mod)
        if (x * x - h) % mod == 0 and (x - s) % anchor == 0
    ]


class TestDeg2:
    def test_zero_is_infinite(self):
        assert deg2(0) == INFINITY
        assert deg2(0) > 10**9

    def test_examples(self):
        assert deg2(12) == 2
        assert deg2(1) == 0
        assert deg2(-8) == 3

    @given(st.integers(min_value=-(2**70), max_value=2**70).filter(lambda u: u != 0))
    def test_exact_valuation(self, u):
        k = deg2(u)
        assert u % (1 << k) == 0
        assert u % (1 << (k + 1)) != 0


class TestGeomSum:
    def test_examples(self):
        assert geom_sum_mod(2, 3, 64) == 7
        assert geom_sum_mod(5, 0, 16) == 0
        # direct summation oracle: 1 + 5 + 25 + 125 = 156 = 12 (mod 16)
        assert geom_sum_mod(5, 4, 16) == 12

    def test_naive_oracle(self):
        rng = random.Random(SEED)
        for _ in range(300):
            s = rng.randrange(-50, 50)
            u = rng.randrange(0, 1 << 12)
            e = rng.randrange(0, 16)
            naive = sum(pow(s, i, 1 << e) for i in range(u)) % (1 << e) if e else 0
            assert geom_sum_mod(s, u, 1 << e) == naive % (1 << e)

    @given(st.integers(0, 2**40), st.integers(-1000, 1000), st.integers(0, 30))
    @settings(max_examples=200)
    def test_splitting_identity(self, u, s, e):
        # [u + 1]_s = [u]_s + s^u
        mod = 1 << e
        lhs = geom_sum_mod(s, u + 1, mod)
        rhs = (geom_sum_mod(s, u, mod) + pow(s, u, mod)) % mod
        assert lhs == rhs

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            geom_sum_mod(3, -1, 32)


class TestSolveLinear:
    def test_examples(self):
        assert solve_linear(2, 4, 3) == [2, 6]
        assert solve_linear(1, 5, 4) == [5]
        assert solve_linear(2, 1, 3) == []

    def test_exhaustive_oracle(self):
        rng = random.Random(SEED)
        for _ in range(400):
            e = rng.randrange(0, 9)
            A = rng.randrange(0, 1 << e) if e else 0
            B = rng.randrange(0, 1 << e) if e else 0
            expected = [x for x in range(1 << e) if (A * x - B) % (1 << e) == 0]
            assert solve_linear(A, B, e) == expected

    def test_cardinality(self):
        for e in range(1, 10):
            for k in range(e + 1):
                A = 1 << k
                sols = solve_linear(A, 0, e)
                assert len(sols) == math.gcd(A, 1 << e)


class TestSqrtLift:
    def test_examples(self):
        assert sqrt_lift(1, 1, 3, 10) == 1
        # 17 - 9 = 8 gives the correction 3 + 4 = 7; 49 = 17 (mod 32)
        assert sqrt_lift(3, 17, 3, 5) == 7
        out = sqrt_lift(3, 9, 3, 8)
        assert out % 4 == 3 and (out * out - 9) % 256 == 0
        assert out == 3  # exact square: no correction needed

    def test_postconditions_random(self):
        rng = random.Random(SEED)
        for _ in range(1000):
            e = rng.randrange(3, 20)
            e_target = rng.randrange(e + 1, e + 25)
            s = rng.randrange(1, 1 << e, 2)
            h = s * s + (1 << e) * rng.randrange(-(1 << 12), 1 << 12)
            out = sqrt_lift(s, h, e, e_target)
            assert (out * out - h) % (1 << e_target) == 0
            assert (out - s) % (1 << (e - 1)) == 0

    def test_exhaustive_brute_agreement(self):
        # every valid (s, h, e) with e <= 6 against the explicit root list
        for e in range(3, 7):
            for e_target in range(e + 1, 13, 3):
                mod_t = 1 << e_target
                for s in range(1, 1 << e, 2):
                    for h in range(s * s % (1 << e), mod_t, 1 << e):
                        out = sqrt_lift(s, h, e, e_target)
                        roots = brute_roots(h, e_target, s, e)
                        assert roots, f"no roots for s={s}, h={h}, e={e}"
                        assert out in roots

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 3"):
            sqrt_lift(1, 1, 2, 5)
        with pytest.raises(ValueError, match="must exceed"):
            sqrt_lift(1, 1, 4, 4)
        with pytest.raises(ValueError, match="odd"):
            sqrt_lift(2, 4, 3, 5)
        with pytest.raises(ValueError, match="not a square root"):
            sqrt_lift(3, 11, 3, 5)
