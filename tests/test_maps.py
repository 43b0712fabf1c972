"""Tests for Cayley maps: skew checks, balance, regularity, quotients, genus."""

import json
import random

import numpy as np
import pytest

from rbcm import autos, brute, maps
from rbcm.groups import DeltaParams, Metacyclic, PowerSubgroup, parse_group
from rbcm.maps import (
    CayleyMap,
    MapError,
    SkewFailure,
    SkewMorphism,
    VerificationError,
    abelian_profile_check,
    are_isomorphic,
    balance_data,
    canonical_json,
    check_skew,
    genus,
    is_regular,
    map_automorphism_count,
    map_from_json_dict,
    map_to_json_dict,
    normalize_indexing,
    orbit_walk,
    perm_cycles,
    quotient_map,
)

Z5 = Metacyclic(5, 1, 1)
Z4 = Metacyclic(4, 1, 1)
Z3 = Metacyclic(3, 1, 1)


def cyclic_map(G, values):
    return CayleyMap(G, [G.el(v, 0) for v in values])


def doubling_phi():
    return np.array([Z5.encode(Z5.el(2 * x % 5, 0)) for x in range(5)], dtype=np.int64)


class TestCayleyMap:
    def test_validation(self):
        with pytest.raises(MapError, match="identity"):
            cyclic_map(Z5, [0, 1, 4])
        with pytest.raises(MapError, match="inverses"):
            cyclic_map(Z5, [1, 2])
        with pytest.raises(MapError, match="generate"):
            cyclic_map(Metacyclic(8, 1, 1), [2, 6])
        with pytest.raises(MapError, match="distinct"):
            cyclic_map(Z5, [1, 1, 4, 4])

    def test_rho(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        assert cm.rho(Z5.el(1, 0)) == Z5.el(2, 0)
        assert cm.rho(Z5.el(3, 0)) == Z5.el(1, 0)
        assert cm.omega_at(5) == cm.omega_at(1)
        assert cm.pos(Z5.el(4, 0)) == 3


class TestCheckSkew:
    def test_identity_on_omega_fails_bijection_guard(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        with pytest.raises(MapError, match="restrict"):
            check_skew(cm, Z5.all_idx())

    def test_automorphism_gives_trivial_pi(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        res = check_skew(cm, doubling_phi())
        assert isinstance(res, SkewMorphism)
        assert set(res.pi.tolist()) == {1}

    def test_dict_input(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        table = {Z5.el(x, 0): Z5.el(2 * x % 5, 0) for x in range(5)}
        assert isinstance(check_skew(cm, table), SkewMorphism)

    def test_violating_pair_reported(self):
        # on Z8 with omega = (1,3,5,7): fix rho on the generators but swap the
        # images of 2 and 4; the law then fails with an explicit witness
        Z8 = Metacyclic(8, 1, 1)
        cm = cyclic_map(Z8, [1, 3, 5, 7])
        phi = np.zeros(8, dtype=np.int64)
        for j, v in enumerate([1, 3, 5, 7]):
            phi[Z8.encode(Z8.el(v, 0))] = Z8.encode(Z8.el([3, 5, 7, 1][j], 0))
        phi[Z8.encode(Z8.el(2, 0))] = Z8.encode(Z8.el(4, 0))
        phi[Z8.encode(Z8.el(4, 0))] = Z8.encode(Z8.el(2, 0))
        phi[Z8.encode(Z8.el(6, 0))] = Z8.encode(Z8.el(6, 0))
        res = check_skew(cm, phi)
        assert isinstance(res, SkewFailure)
        assert res.eta is not None and res.mu is not None

    def test_exhaustive_law(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        skew = check_skew(cm, doubling_phi())
        G = Z5
        for eta in G.elements():
            for mu in G.elements():
                lhs = skew.apply(G.mul(eta, mu))
                rhs = G.mul(
                    skew.apply(eta),
                    G.decode(int(skew.power(skew.pi_of(eta))[G.encode(mu)])),
                )
                assert lhs == rhs


class TestBalance:
    def test_z5_good_ordering(self):
        bal = balance_data(cyclic_map(Z5, [1, 2, 4, 3]))
        assert (bal.t, bal.ell, bal.map_type) == (1, 2, "I")

    def test_z5_antibalanced_ordering(self):
        bal = balance_data(cyclic_map(Z5, [1, 2, 3, 4]))
        assert (bal.t, bal.map_type) == (3, "I")

    def test_involution_gives_type_two(self):
        G = Metacyclic(8, 1, 1)
        bal = balance_data(cyclic_map(G, [1, 4, 7, 2, 3, 6, 5]))
        if bal is not None:
            assert bal.map_type == "II"

    def test_unbalanced_returns_none(self):
        Z7 = Metacyclic(7, 1, 1)
        assert balance_data(cyclic_map(Z7, [1, 2, 6, 3, 5, 4])) is None

    def test_d2_trivial_cycle(self):
        bal = balance_data(cyclic_map(Z4, [1, 3]))
        assert bal.t == 1 and bal.map_type == "I"

    def test_normalize_unchanged_when_normal(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        bal = balance_data(cm)
        cm2, bal2, shift = normalize_indexing(cm, bal)
        assert shift == 0 and bal2.ell == 2  # gcd(t-1,d)/2 = 2

    def test_normalize_shifted(self):
        cm = cyclic_map(Z5, [2, 4, 3, 1])  # same cycle, rotated
        bal = balance_data(cm)
        cm2, bal2, shift = normalize_indexing(cm, bal)
        assert bal2.ell == 2
        # the result is a rotation of the same cyclic sequence
        ref = [Z5.encode(Z5.el(v, 0)) for v in (2, 4, 3, 1)]
        doubled = ref + ref
        got = [Z5.encode(w) for w in cm2.omega]
        assert any(doubled[s : s + 4] == got for s in range(4))


class TestRegularity:
    def test_z3_balanced(self):
        assert is_regular(cyclic_map(Z3, [1, 2])) is not None

    def test_z5_doubling_orbit_regular(self):
        skew = is_regular(cyclic_map(Z5, [1, 2, 4, 3]))
        assert skew is not None
        assert np.array_equal(skew.phi, doubling_phi())

    def test_z5_straight_not_regular(self):
        assert is_regular(cyclic_map(Z5, [1, 2, 3, 4])) is None

    def test_oracle_counts(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        assert map_automorphism_count(cm) == 5 * 4
        cm2 = cyclic_map(Z5, [1, 2, 3, 4])
        assert map_automorphism_count(cm2) < 5 * 4

    def test_propagation_agrees_with_count_oracle(self):
        # exhaustive over every cyclic ordering of small generating sets
        G = Metacyclic(8, 1, 1)
        import itertools

        for rest in itertools.permutations([3, 5, 7]):
            cm = cyclic_map(G, (1,) + rest)
            regular = is_regular(cm) is not None
            assert regular == (map_automorphism_count(cm) == G.order * cm.d)


class TestOrbitWalk:
    def test_walk_and_cycles(self):
        perm = np.array([2, 0, 1, 4, 3, 5])
        assert orbit_walk(perm, 0) == [2, 1, 0]
        assert perm_cycles(perm) == [[0, 2, 1], [3, 4], [5]]

    def test_walk_that_never_returns(self):
        # 0 -> 1 -> 2 -> 1 -> ...: not a permutation, and 0 is never reached again
        assert orbit_walk(np.array([1, 2, 1]), 0) is None


class TestGenus:
    def test_spec_examples(self):
        assert genus(cyclic_map(Z3, [1, 2])) == maps.EmbeddingData(3, 3, 2, 0)
        assert genus(cyclic_map(Z4, [1, 3])) == maps.EmbeddingData(4, 4, 2, 0)
        assert genus(cyclic_map(Z5, [1, 2, 4, 3])).genus == 1

    def test_torus_k5(self):
        emb = genus(cyclic_map(Z5, [1, 2, 4, 3]))
        assert (emb.vertices, emb.edges, emb.faces) == (5, 10, 5)


class TestIsomorphism:
    def test_reflexive(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        assert are_isomorphic(cm, cm) is not None

    def test_symmetric(self):
        m1 = cyclic_map(Z5, [1, 2, 4, 3])
        m2 = cyclic_map(Z5, [2, 4, 3, 1])
        assert are_isomorphic(m1, m2) is not None
        assert are_isomorphic(m2, m1) is not None

    def test_different_valency(self):
        m1 = cyclic_map(Metacyclic(8, 1, 1), [1, 3, 5, 7])
        m2 = cyclic_map(Metacyclic(8, 1, 1), [1, 7])
        assert are_isomorphic(m1, m2) is None

    def test_order_mismatch_is_error(self):
        with pytest.raises(MapError, match="different order"):
            are_isomorphic(cyclic_map(Z5, [1, 4]), cyclic_map(Z4, [1, 3]))

    @pytest.mark.parametrize("text", ["Z8", "Z2xZ4", "D(7,3,4)"])
    def test_batched_search_matches_every_automorphism(self, text):
        # oracle: every automorphism as a permutation, its image of each
        # generator cycle looked up among all rotations of all cycles
        from rbcm.classify import realize

        G = parse_group(text)
        if text == "D(7,3,4)":
            found = [realize(7, 3, 4, z1).cmap for z1 in range(4)]
            found.append(realize(7, 3, 4, z=35).cmap)
        else:
            found = [fm.cmap for fm in brute.enumerate_rbcm(G)]
        cmaps = found + [cm.rotate(1) for cm in found] + found[:1]
        rotations = {}
        for j, cm in enumerate(cmaps):
            for s in range(cm.d):
                rotations.setdefault(tuple(np.roll(cm.omega_idx, -s).tolist()), []).append(j)
        aut = autos.aut_group(G)
        perms = [autos.as_perm(p) for p in aut]
        hits = maps.isomorphisms(aut, cmaps, cmaps)
        assert len(hits) == len(cmaps)
        for src, (rows, targets) in zip(cmaps, hits):
            want = sorted(
                (k, j)
                for k, perm in enumerate(perms)
                for j in rotations.get(tuple(perm[src.omega_idx].tolist()), [])
            )
            assert sorted(zip(rows.tolist(), targets.tolist())) == want
            assert want
            for j, cm in enumerate(cmaps):
                first = min((k for k, t in want if t == j), default=None)
                perm = are_isomorphic(src, cm)
                assert (perm is None) == (first is None)
                assert first is None or np.array_equal(perm, perms[first])


class TestQuotient:
    def _delta_map(self):
        from rbcm.classify import realize

        r = realize(7, 3, 4, 0)
        return r

    def test_trivial_xi(self):
        r = self._delta_map()
        xi = PowerSubgroup(r.cmap.group, 7)  # <a^128> = trivial subgroup
        qres = quotient_map(r.cmap, r.skew, xi)
        assert qres.cmap.group.order == r.cmap.group.order
        assert qres.cmap.d == r.cmap.d

    def test_quotient_by_alpha_16(self):
        r = self._delta_map()
        xi = PowerSubgroup(r.cmap.group, 4)
        qres = quotient_map(r.cmap, r.skew, xi)
        assert qres.cmap.group == Metacyclic(16, 8, 1)
        assert qres.cmap.d == 16
        assert qres.balance.t == 15
        assert (r.balance.t - qres.balance.t) % qres.cmap.d == 0

    def test_invariant_intermediate_xi(self):
        r = self._delta_map()
        xi = PowerSubgroup(r.cmap.group, 5, 2)  # <a^32, b^4>: invariant and normal
        qres = quotient_map(r.cmap, r.skew, xi)
        assert qres.cmap.group.order == 32 * 4

    def test_non_normal_xi_rejected(self):
        r = self._delta_map()
        xi = PowerSubgroup(r.cmap.group, 7, 2)  # <b^4> alone is not normal
        with pytest.raises(MapError, match="normal"):
            quotient_map(r.cmap, r.skew, xi)

    def test_profile(self):
        r = self._delta_map()
        qres = quotient_map(r.cmap, r.skew, PowerSubgroup(r.cmap.group, 4))
        profile = abelian_profile_check(qres)
        assert profile.k == 3 and profile.k_prime == 3
        assert profile.valency == 1 << (profile.k + 1)
        assert profile.map_type == "I"


class TestJson:
    def test_roundtrip_bytes_identical(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        skew = is_regular(cm)
        doc = map_to_json_dict(cm, skew)
        text = canonical_json(doc)
        again = canonical_json(json.loads(text))
        assert text == again

    def test_parse_roundtrip(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        skew = is_regular(cm)
        doc = map_to_json_dict(cm, skew)
        cm2, phi, pi = map_from_json_dict(json.loads(canonical_json(doc)))
        assert cm2.omega == cm.omega
        assert np.array_equal(phi, skew.phi)
        assert np.array_equal(pi, skew.pi)

    def test_malformed(self):
        with pytest.raises(MapError, match="malformed"):
            map_from_json_dict({"group": "L(8,2,3)"})
