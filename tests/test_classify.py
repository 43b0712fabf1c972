"""Tests for the classification engine on D(a,b,c)."""

import dataclasses
import importlib

import numpy as np
import pytest

import oracles
from rbcm import autos, maps
from rbcm.classify import (
    InternalInconsistency,
    _even_products,
    _generates_a2_b,
    _residues_for,
    _verify_conditions,
    check_necessary,
    classify,
    distinct,
    quotient_cross_check,
    realize,
)
from rbcm.groups import DeltaParams, GroupError
from rbcm.maps import VerificationError
from rbcm.twoadic import deg2

classify_module = importlib.import_module("rbcm.classify")  # rbcm.classify is also a function


def closed_form_cases(max_a=24, max_classes=64):
    """``(a, b, c, z, w)`` for every existence triple ``D(a,b,c)`` with
    ``a <= max_a`` and its first ``max_classes`` residues ``z``."""
    for a in range(7, max_a + 1):
        for b in range(1, a - 3):
            for c in range(max(2, a - b, b + 1), a - 2):
                w = (1 - (1 << (c - 2))) % (1 << b)
                for z1 in range(min(max_classes, 1 << (a - c - 1))):
                    z = (-1 + (1 << (c - 2)) + (1 << (c - 1)) * z1) % (1 << (a - 1))
                    yield a, b, c, z, w


class TestNecessary:
    def test_existence_branch(self):
        rep = check_necessary(7, 3, 4)
        assert rep.existence
        assert rep.constraints["class_count"] == 4
        assert rep.constraints["min_deg2_t_plus_1"] == 5

    def test_no_existence_branch(self):
        rep = check_necessary(7, 4, 3)
        assert not rep.existence
        assert "c > b" in rep.reason
        assert classify(7, 4, 3, verify_level="fast").solutions == []

    def test_invalid_descriptor(self):
        with pytest.raises(GroupError, match="b != c"):
            check_necessary(6, 3, 3)


class TestSolve:
    def test_734_values(self):
        sols = classify(7, 3, 4, verify_level="fast").solutions
        assert len(sols) == 4
        assert [s.z for s in sols] == [3, 11, 19, 27]
        assert all(s.w == 5 for s in sols)
        assert [s.z1 for s in sols] == [0, 1, 2, 3]

    def test_solution_invariants(self):
        for a, b, c in [(7, 3, 4), (8, 3, 5), (9, 4, 5)]:
            for s in classify(a, b, c, verify_level="fast").solutions:
                mod_x = 1 << (a - 1)
                assert s.z == (-1 + (1 << (c - 2)) + (1 << (c - 1)) * s.z1) % mod_x
                assert s.w == (1 - (1 << (c - 2))) % (1 << b)
                assert (s.z * s.z - 1) % (1 << (c - 1)) == 0
                assert (s.z + s.w) % (1 << b) == 0
                assert 0 < s.u_tilde < (1 << (a - c))
                assert s.ell % 2 == 1
                assert deg2(s.t + 1) >= max(b + 1, a - c + 2)

    def test_solution_count_desk_scale(self):
        assert len(classify(12, 4, 8, verify_level="fast").solutions) == 8

    def test_conditions_reverified(self):
        # the verifier runs for every emitted solution; poke it directly too
        s = classify(7, 3, 4, verify_level="fast").solutions[0]
        _verify_conditions(7, 3, 4, s.z, s.w, s.ell, s.t, s.u_tilde, s.u1, s.v1)
        with pytest.raises(InternalInconsistency):
            _verify_conditions(7, 3, 4, s.z, s.w, s.ell, s.t, s.u_tilde, s.u1 + 1, s.v1)


class TestClosedFormResidues:
    # integers only: no group table and no map is built

    def test_cases_cover_every_existence_triple(self):
        expected = set()
        for a in range(1, 25):
            for b in range(1, a):
                for c in range(1, a):
                    try:
                        if check_necessary(a, b, c).existence:
                            expected.add((a, b, c))
                    except GroupError:
                        pass
        assert {case[:3] for case in closed_form_cases()} == expected

    def test_residues_pass_the_conditions_at_ell_one(self):
        for a, b, c, z, w in closed_form_cases():
            u_tilde, u1, v1 = _residues_for(a, b, c, z)
            _verify_conditions(a, b, c, z, w, 1, (1 << (b + 2)) - 1, u_tilde, u1, v1)

    def test_first_generator_inverts_the_last(self):
        # omega_1 = a^(2 u1) b^(v1) omega_d with omega_d = a^u~ b, and
        # omega_1 omega_d = 1 is iota(d) = 1, i.e. ell = 1
        for a, b, c, z, _ in closed_form_cases():
            G = DeltaParams(a, b, c).group()
            u_tilde, u1, v1 = _residues_for(a, b, c, z)
            omega_d = G.el(u_tilde, 1)
            omega_1 = G.mul(G.el(2 * u1, v1), omega_d)
            assert G.mul(omega_1, omega_d) == G.identity()

    def test_read_back_offset_other_than_one_is_an_engine_bug(self, monkeypatch):
        balance_data = maps.balance_data
        monkeypatch.setattr(
            maps, "balance_data", lambda cmap: dataclasses.replace(balance_data(cmap), ell=3)
        )
        with pytest.raises(InternalInconsistency, match="ell = 1"):
            realize(7, 3, 4, 0)


class TestRealize:
    def test_full_verification(self):
        r = realize(7, 3, 4, 0)
        assert r.verified
        assert r.solution.t == 31 and r.solution.d == 32 and r.solution.ell == 1
        assert r.checks["skew_law_all_pairs"]
        assert r.checks["kernel_is_a2_b"]
        assert r.checks["pi_on_generators_is_t"]

    def test_restriction_check_rejects_swapped_kernel_images(self):
        r = realize(7, 3, 4, 0)
        G = r.cmap.group
        assert oracles.restriction_failure(G, r.skew.phi) is None
        kernel = np.flatnonzero(r.skew.kernel_mask())
        x, y = kernel[1], kernel[-1]
        r.skew.phi[[x, y]] = r.skew.phi[[y, x]]
        res = oracles.restriction_failure(G, r.skew.phi)
        assert res.detail == "phi(k e) is not phi(k) phi(e) on <a^2, b>"
        k, e = G.encode(res.eta), G.encode(res.mu)
        assert r.skew.phi[G.mul_vec(np.int64(k), np.int64(e))] != G.mul_vec(
            r.skew.phi[k], r.skew.phi[e]
        )

    @pytest.mark.parametrize("full", [True, False])
    def test_realize_runs_no_dart_certificate(self, monkeypatch, full):
        def fail(cmap, phi):
            raise AssertionError("the dart certificate ran")

        monkeypatch.setattr(maps, "check_skew", fail)
        r = realize(7, 3, 4, 0, full=full)
        assert r.verified and r.checks["phi_restriction_is_automorphism"]

    def test_realize_builds_no_table_at_the_fast_level(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a |G|-sized table was built")

        for owner, name in (
            (classify_module, "_build_phi"), (maps, "power_function_probe"),
            (oracles, "restriction_failure"), (oracles, "check_skew_by_reduction"),
            (maps, "check_skew"), (maps, "orbit_walk"), (autos, "as_perm"),
            (autos, "geom_table"),
        ):
            monkeypatch.setattr(owner, name, fail)
        for z1 in range(16):
            r = realize(11, 5, 6, z1, full=False)
            assert r.verified and "skew" not in vars(r)

    def test_table_off_r2_is_a_verification_error(self, monkeypatch):
        # swap theta's images of omega_d a^2 omega_d^-1 and b inside the rule:
        # the cycle, and so the map and its balance, stay as realized
        good = realize(7, 3, 4, 0, full=False)
        G, wd = good.cmap.group, good.rule.omega_d
        conj = int(G.mul_vec(G.mul_vec(wd, G.code(2, 0)), G.inv_vec(wd)))
        swap = {conj: G.code(0, 1), G.code(0, 1): conj}
        theta = maps.CosetRule._theta
        monkeypatch.setattr(maps.CosetRule, "_theta", lambda rule, h: theta(rule, swap.get(h, h)))
        for full in (False, True):
            with pytest.raises(VerificationError, match="skew law fails"):
                realize(7, 3, 4, 0, full=full)
        broken = dataclasses.replace(good.rule)
        assert broken.cycle == good.cmap.omega_idx.tolist()
        table = np.array([broken(g) for g in range(G.order)])
        assert not oracles.reduction_conditions(good.cmap, table, good.solution.t)["R2"]

    def test_eta_check_rejects_generators_of_a_b2(self):
        r = realize(7, 3, 4, 0)
        G = r.cmap.group
        assert _generates_a2_b(G, r.orbit.eta)
        # <a, b^2> has the order of <a^2, b>, so a check on the size of the
        # span alone accepts these generators
        gens = [G.encode(G.alpha()), G.encode(G.el(0, 2)), G.encode(G.el(3, 4))]
        assert G.closure_idx(gens).size * 2 == G.order
        assert not _generates_a2_b(G, gens)

    def test_even_products_check_rejects_product_off_kernel(self):
        r = realize(7, 3, 4, 0)
        G = r.cmap.group
        products = _even_products(G, r.cmap)
        assert _generates_a2_b(G, products)
        # their squares lie in ker pi but span only a proper subgroup of it
        assert not _generates_a2_b(G, G.mul_vec(products, products))
        products[3] = G.mul_vec(products[3], np.int64(G.encode(G.alpha())))
        assert r.skew.pi[products[3]] != 1
        assert not _generates_a2_b(G, products)

    def test_invalid_theta_is_an_engine_bug(self, monkeypatch):
        # x1 = 2z makes the determinant of sigma(2z,1;0,w) even
        monkeypatch.setattr(
            autos, "normal_form_params", lambda sub, z, w: autos.AutoParams(2 * z, 1, 0, w, sub)
        )
        with pytest.raises(InternalInconsistency, match="theta is not an automorphism.*even"):
            realize(7, 3, 4, 0)

    def test_phi_construction(self):
        r = realize(7, 3, 4, 0)
        G = r.cmap.group
        omega_d = r.cmap.omega_idx[-1]
        assert omega_d == G.encode(G.el(r.solution.u_tilde, 1))
        assert r.skew.phi[omega_d] == r.cmap.omega_idx[0]

    def test_pi_values(self):
        r = realize(7, 3, 4, 1)
        t = r.solution.t
        assert set(r.skew.pi.tolist()) == {1, t}
        assert np.all(r.skew.pi[r.cmap.omega_idx] == t)

    def test_skew_order_equals_valency(self):
        r = realize(7, 3, 4, 2)
        assert maps.perm_order(r.skew.phi) == r.cmap.d

    def test_out_of_range_z1(self):
        with pytest.raises(GroupError, match="z1"):
            realize(7, 3, 4, 4)

    def test_no_existence(self):
        with pytest.raises(GroupError, match="c > b"):
            realize(7, 4, 3, 0)

    # every key realize proves at each level; criteria 1 and 3 read some of them
    FAST_CHECKS = {
        "skew_law_all_pairs", "phi_restriction_is_automorphism", "pi_on_generators_is_t",
        "kernel_is_a2_b", "pi_two_valued", "balanced", "deg2_t_plus_1",
        "type_I_normalized", "plus_part_is_normal_form",
    }
    CHECKS = {
        "fast": FAST_CHECKS,
        "full": FAST_CHECKS
        | {"inverse_conditions", "kernel_generated_by_etas", "kernel_is_even_products"},
    }

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_checks_keys_are_stable(self, level):
        r = realize(7, 3, 4, 0, full=level == "full")
        assert set(r.checks) == self.CHECKS[level]
        assert all(v is True for v in r.checks.values()) and r.verified

    @pytest.mark.parametrize("a, b, c", [(32, 16, 17), (40, 21, 22)])
    def test_a_past_int64_bound_is_rejected_before_any_allocation(self, monkeypatch, a, b, c):
        def allocate(self):
            raise AssertionError("the group was built")

        monkeypatch.setattr(DeltaParams, "group", allocate)
        for run in (lambda: realize(a, b, c, 0), lambda: classify(a, b, c, "fast")):
            with pytest.raises(GroupError, match=r"a <= 31"):
                run()
        # a = 31 passes the bound and goes on to build the group
        with pytest.raises(AssertionError, match="group was built"):
            realize(31, 15, 16, 0)

    def test_z_shifted_class_is_isomorphic(self):
        # z and z + 2^(a-2) describe the same class (a conjugation reaches it)
        base = realize(7, 3, 4, 0)
        shifted = realize(7, 3, 4, z=(3 + 32) % 64)
        assert shifted.verified
        assert maps.are_isomorphic(base.cmap, shifted.cmap) is not None

    def test_distinct_classes_not_isomorphic(self):
        r0 = realize(7, 3, 4, 0)
        r1 = realize(7, 3, 4, 1)
        assert maps.are_isomorphic(r0.cmap, r1.cmap) is None


class TestDistinct:
    def test_pairwise_734(self):
        realized = [realize(7, 3, 4, z1) for z1 in range(4)]
        cert = distinct(realized)
        assert cert.pair_count == 6
        assert all(p[2] for p in cert.shift_route)
        assert cert.shift_route == cert.search_route

    def test_self_isomorphic(self):
        r = realize(7, 3, 4, 0)
        assert maps.are_isomorphic(r.cmap, r.cmap) is not None

    def test_isomorphic_pair_reported_on_both_routes(self):
        # z = 35 is z1 = 0 shifted by 2^(a-2): the same class
        cert = distinct([realize(7, 3, 4, 0), realize(7, 3, 4, z=35)])
        assert cert.pair_count == 1
        assert cert.shift_route == cert.search_route == ((0, 4, False),)

    def test_duplicate_map_reported_on_both_routes(self):
        # the two maps share every key of the sorted table
        r = realize(7, 3, 4, 1)
        cert = distinct([r, r])
        assert cert.shift_route == cert.search_route == ((1, 1, False),)

    def test_search_must_be_reflexive(self, monkeypatch):
        realized = [realize(7, 3, 4, z1) for z1 in range(2)]
        empty = np.array([], dtype=np.int64)
        monkeypatch.setattr(maps, "isomorphisms", lambda s, t: [(None, empty)] * len(s))
        with pytest.raises(InternalInconsistency, match="reflexive"):
            distinct(realized)

    def test_search_must_be_symmetric(self, monkeypatch):
        # the stub reports (0, 1) but not (1, 0); both maps are self-isomorphic
        realized = [realize(7, 3, 4, z1) for z1 in range(2)]
        hits = [(None, np.array([0, 1])), (None, np.array([1]))]
        monkeypatch.setattr(maps, "isomorphisms", lambda s, t: hits)
        with pytest.raises(InternalInconsistency, match="symmetric"):
            distinct(realized)

    def test_certificate_equals_the_scan_on_every_triple_up_to_2_14(self, monkeypatch):
        from test_certificates import existence_triples

        for a, b, c in existence_triples(14):
            realized = [realize(a, b, c, z1, full=False) for z1 in range(1 << (a - c - 1))]
            solved = distinct(realized)
            with monkeypatch.context() as patch:
                patch.setattr(maps, "isomorphisms", lambda s, t: [
                    (None, owners)
                    for _, owners in oracles.scan_isomorphisms(autos.aut_group(s[0].group), s, t)
                ])
                assert distinct(realized) == solved, (a, b, c)

    def test_full_classify_scans_no_automorphism_group(self, monkeypatch):
        def scan(group):
            raise AssertionError(f"Aut({group}) was built")

        monkeypatch.setattr(autos, "aut_group", scan)
        out = classify(10, 4, 6, "full")
        assert out.all_verified and out.distinctness.pair_count == 28
        assert out.distinctness.shift_route == out.distinctness.search_route


class TestQuotientCrossCheck:
    @pytest.mark.parametrize("z1", range(4))
    def test_734_profiles(self, z1):
        r = realize(7, 3, 4, z1)
        profile = quotient_cross_check(r)
        assert profile.map_type == "I"
        assert profile.valency == 1 << (profile.k + 1)
        assert (r.solution.t + 1) % profile.valency == 0
        assert (profile.k_prime, profile.k) == (3, 3)


class TestClassify:
    def test_fast_level(self):
        out = classify(7, 3, 4, verify_level="fast")
        assert len(out.solutions) == 4
        assert out.realized == []

    def test_full_level(self):
        out = classify(7, 3, 4, verify_level="full")
        assert out.all_verified
        assert len(out.profiles) == 4
        assert out.distinctness.pair_count == 6

    def test_unknown_level(self):
        with pytest.raises(GroupError, match="verify level"):
            classify(7, 3, 4, verify_level="medium")
