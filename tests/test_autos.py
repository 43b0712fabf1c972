"""Tests for parametrized automorphisms: validation, composition, restriction."""

import random

import numpy as np
import pytest

import oracles
from rbcm import autos, brute
from rbcm.autos import (
    AutoParams,
    AutomorphismError,
    aut_group,
    compose,
    conjugate_normal_form,
    find_lift,
    identity_params,
    inverse,
    lifts_to_whole,
    normal_form_params,
    restrict_to_plus,
    simplified_compose_c_ge_b,
    validate,
)
from rbcm.groups import DeltaParams, Metacyclic, parse_group, plus_presentation

L1645 = Metacyclic(16, 4, 5)
DELTA734 = DeltaParams(7, 3, 4).group()
PLUS734 = plus_presentation(DELTA734, "a2_b").group  # L(64, 8, 17)

rng = random.Random(99)


class TestValidate:
    def test_identity_valid(self):
        assert validate(identity_params(L1645))

    def test_spec_example(self):
        p = AutoParams(1, 1, 4, 3, L1645)
        assert validate(p)
        # it must preserve the relations a^16 = b^4 = 1, b a b^-1 = a^5
        G = L1645
        A, B = autos.apply(p, G.alpha()), autos.apply(p, G.beta())
        assert G.element_order(A) == 16 and G.element_order(B) == 4
        assert G.mul(G.mul(B, A), G.inv(B)) == G.pow(A, G.r)

    def test_even_x1_fails(self):
        rep = validate(AutoParams(2, 1, 4, 3, L1645))
        assert not rep and any("determinant" in v for v in rep.violations)
        with pytest.raises(AutomorphismError, match="determinant"):
            autos.as_perm(AutoParams(2, 1, 4, 3, L1645))

    def test_family_hypothesis(self):
        with pytest.raises(AutomorphismError, match="deg2"):
            autos.tilde_exponents(Metacyclic(8, 2, 3))


class TestApply:
    def test_identity_fixes(self):
        p = identity_params(L1645)
        for g in L1645.elements():
            assert autos.apply(p, g) == g

    def test_spec_image(self):
        p = AutoParams(1, 1, 4, 3, L1645)
        assert autos.apply(p, L1645.alpha()) == L1645.el(1, 1)

    def test_homomorphism_and_generator_extension(self):
        # the closed formula equals the homomorphic extension from the images
        G = L1645
        for p in rng.sample(aut_group(G), 20):
            A, B = autos.apply(p, G.alpha()), autos.apply(p, G.beta())
            for g in G.elements():
                expected = G.mul(G.pow(A, g.x), G.pow(B, g.y))
                assert autos.apply(p, g) == expected

    def test_as_perm_matches_apply(self):
        G = L1645
        for p in rng.sample(aut_group(G), 10):
            perm = autos.as_perm(p)
            for g in G.elements():
                assert G.decode(int(perm[G.encode(g)])) == autos.apply(p, g)

    def test_relation_preservation_all(self):
        G = PLUS734
        for p in rng.sample(aut_group(G), 25):
            A, B = p.image_a(), p.image_b()
            assert G.element_order(A) == G.n
            assert G.element_order(B) == G.element_order(G.beta())
            assert G.mul(G.mul(B, A), G.inv(B)) == G.pow(A, G.r)


class TestCompose:
    def test_identity_neutral(self):
        G = L1645
        for p in rng.sample(aut_group(G), 10):
            assert compose(identity_params(G), p) == p
            assert compose(p, identity_params(G)) == p

    def test_inverse_law(self):
        for G in (L1645, PLUS734):
            for p in rng.sample(aut_group(G), 10):
                pi = inverse(p)
                assert compose(pi, p) == identity_params(G)
                assert compose(p, pi) == identity_params(G)

    def test_pointwise_exhaustive_small(self):
        G = L1645
        p = AutoParams(1, 1, 4, 3, G)
        comp = compose(p, p)
        for g in G.elements():
            assert autos.apply(comp, g) == autos.apply(p, autos.apply(p, g))

    def test_pointwise_random(self):
        for G in (L1645, PLUS734, DELTA734):
            auts = aut_group(G)
            for _ in range(15):
                s1, s2 = rng.choice(auts), rng.choice(auts)
                comp = compose(s1, s2)
                assert np.array_equal(
                    autos.as_perm(comp), autos.as_perm(s1)[autos.as_perm(s2)]
                )

    def test_composite_validates(self):
        auts = aut_group(PLUS734)
        for _ in range(20):
            assert validate(compose(rng.choice(auts), rng.choice(auts)))


class TestSimplifiedCompose:
    def test_oracle_agreement_bulk(self):
        # the undefined coefficient is pinned as (r-1)/2: verified against the
        # general composition on at least 10^4 random pairs
        count = 0
        for G in (PLUS734, DELTA734, Metacyclic(64, 8, 17)):
            auts = aut_group(G)
            for _ in range(4000):
                s1, s2 = rng.choice(auts), rng.choice(auts)
                assert simplified_compose_c_ge_b(s1, s2) == compose(s1, s2)
                count += 1
        assert count >= 10**4

    def test_precondition(self):
        G = Metacyclic(64, 16, 5)  # c = 2 < b = 4
        with pytest.raises(AutomorphismError, match="ct >= bt"):
            simplified_compose_c_ge_b(identity_params(G), identity_params(G))


class TestCounts:
    @pytest.mark.parametrize(
        "group", [Metacyclic(16, 4, 5), Metacyclic(32, 8, 5), Metacyclic(32, 4, 9)]
    )
    def test_parametrized_equals_bruteforce(self, group):
        assert len(aut_group(group)) == len(brute.enumerate_automorphisms(group))

    def test_parametrization_is_injective(self):
        G = L1645
        perms = {autos.as_perm(p).tobytes() for p in aut_group(G)}
        assert len(perms) == len(aut_group(G))


class TestAutGroup:
    """The four arrays of ``aut_group`` against the nested-loop enumeration."""

    GROUPS = ["Z8", "Z2xZ4", "L(16,4,5)", "L(32,4,9)", "L(32,8,5)", "D(9,4,5)"]

    @pytest.mark.parametrize("text", GROUPS)
    def test_rows_equal_oracle_in_order(self, text):
        G = parse_group(text)
        auts = aut_group(G)
        assert all(a.dtype == np.int64 for a in (auts.x1, auts.y1, auts.x2, auts.y2))
        assert list(auts) == list(oracles.enumerate_params(G))
        assert all(validate(p) for p in auts)

    @pytest.mark.parametrize("text", ["L(16,4,5)", "L(32,8,5)"])
    def test_corner_case_rows_present(self, text):
        # bt = at - ct here, so rows with deg2(y1) = at - 2 ct take y2 = 1 + 2^(at-ct-1)
        G = parse_group(text)
        at, bt, ct = autos.tilde_exponents(G)
        auts = aut_group(G)
        assert np.any((auts.y2 - 1) % (1 << min(at - ct, bt)))

    @pytest.mark.parametrize("text", GROUPS)
    def test_images_match_apply(self, text):
        G = parse_group(text)
        auts = aut_group(G)
        local = random.Random(text)  # leaves the module's shared stream as it was
        rows = np.array(sorted(local.sample(range(len(auts)), min(len(auts), 40))))
        perms = np.array([autos.as_perm(auts[int(k)]) for k in rows])
        for g in local.sample(list(G.elements()), min(G.order, 12)):
            expected = [G.encode(autos.apply(auts[int(k)], g)) for k in rows]
            assert auts.images(G.encode(g), rows).tolist() == expected
            assert auts.images(G.encode(g))[rows].tolist() == expected
            assert perms[:, G.encode(g)].tolist() == expected

    def test_sequence_protocol(self):
        auts = aut_group(L1645)
        assert auts[-1] == list(auts)[-1]
        assert auts[0] == identity_params(L1645)
        with pytest.raises(IndexError):
            auts[len(auts)]
        assert aut_group(L1645) is auts  # cached per group


class TestRestriction:
    def test_identity_restricts_to_identity(self):
        res = restrict_to_plus(identity_params(DELTA734))
        assert res.params == identity_params(PLUS734)

    def test_spec_example(self):
        tau = AutoParams(1, 0, 2, 1, DELTA734)
        res = restrict_to_plus(tau)
        assert res.params == AutoParams(1, 0, 1, 1, PLUS734)

    def test_odd_x2_rejected(self):
        bad = AutoParams(1, 0, 1, 1, DELTA734)
        with pytest.raises(AutomorphismError, match="x2"):
            restrict_to_plus(bad)

    def test_restriction_is_even_x2_always_for_delta(self):
        # on D(a,b,c) with a > b the parameter constraints force x2 even
        for p in rng.sample(aut_group(DELTA734), 30):
            assert p.x2 % 2 == 0
            restrict_to_plus(p)

    def test_pointwise_on_subgroup(self):
        pres = plus_presentation(DELTA734, "a2_b")
        for p in rng.sample(aut_group(DELTA734), 10):
            res = restrict_to_plus(p)
            for h in rng.sample(list(pres.group.elements()), 25):
                assert autos.apply(p, pres.include(h)) == pres.include(
                    autos.apply(res.params, h)
                )


class TestLifting:
    def test_identity_lifts(self):
        assert lifts_to_whole(identity_params(PLUS734), DELTA734)

    def test_odd_y1_does_not_lift(self):
        # the classification's kernel automorphisms sigma(z,1;0,w) never lift
        p = normal_form_params(PLUS734, 3, 5)
        assert not lifts_to_whole(p, DELTA734)

    def test_spec_example_lift_found(self):
        p = AutoParams(1, 2, 0, 1, PLUS734)  # y-slots (2, 1): even, deg2(0) = inf
        assert lifts_to_whole(p, DELTA734)
        tau = find_lift(p, DELTA734)
        assert restrict_to_plus(tau).params == p

    def test_every_restriction_lifts_back(self):
        for p in rng.sample(aut_group(DELTA734), 20):
            res = restrict_to_plus(p).params
            assert lifts_to_whole(res, DELTA734)
            tau = find_lift(res, DELTA734)
            assert restrict_to_plus(tau).params == res


class TestConjugation:
    Z, W = 3, 5  # a normal form on D(7,3,4)

    def test_identity_fixes(self):
        out = conjugate_normal_form(identity_params(PLUS734), self.Z, self.W, DELTA734)
        assert out and out.z_prime == self.Z and out.w_prime == self.W

    def test_shift_by_quarter(self):
        taup = AutoParams(1, 0, 32, 1, PLUS734)  # x2 = 2^(a-2)
        out = conjugate_normal_form(taup, self.Z, self.W, DELTA734)
        assert out and out.z_prime == (self.Z + 32) % 64 and out.w_prime == self.W
        # direct composition cross-check
        sigma = normal_form_params(PLUS734, self.Z, self.W)
        conj = compose(compose(taup, sigma), inverse(taup))
        assert conj == normal_form_params(PLUS734, out.z_prime, out.w_prime)

    def test_centralizer_condition(self):
        # x2 = 0 and x1 - y2 = (z - w) y1: fixes the normal form
        taup = AutoParams(1, 0, 0, 1, PLUS734)
        out = conjugate_normal_form(taup, self.Z, self.W, DELTA734)
        assert out and out.z_prime == self.Z and out.w_prime == self.W

    def test_small_shift_reported(self):
        taup = AutoParams(1, 0, 2, 1, PLUS734)
        out = conjugate_normal_form(taup, self.Z, self.W, DELTA734)
        assert not out
        assert any("deg2(p2)" in f for f in out.failed)

    def test_exhaustive_agreement_with_composition(self):
        # every liftable tau+ either conjugates within the normal form as the
        # closed form predicts, or genuinely leaves it
        sigma = normal_form_params(PLUS734, self.Z, self.W)
        checked = 0
        for p in rng.sample(aut_group(DELTA734), 40):
            taup = restrict_to_plus(p).params
            out = conjugate_normal_form(taup, self.Z, self.W, DELTA734)
            conj = compose(compose(taup, sigma), inverse(taup))
            in_form = conj.x2 == 0 and conj.y1 == 1
            assert bool(out) == in_form
            if out:
                assert conj == normal_form_params(PLUS734, out.z_prime, out.w_prime)
            checked += 1
        assert checked == 40

    def test_precondition_z(self):
        with pytest.raises(AutomorphismError, match="z = -1"):
            conjugate_normal_form(identity_params(PLUS734), 4, self.W, DELTA734)
