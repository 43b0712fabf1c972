"""Tests for the exhaustive enumeration oracles."""

import hashlib
import itertools
import types

import numpy as np
import pytest

import oracles
from rbcm import autos, brute, maps
from rbcm.brute import (
    BudgetExceeded,
    SearchBudget,
    automorphism_perms,
    enumerate_automorphisms,
    enumerate_rbcm,
    naive_enumerate_rbcm,
    prune_predicates,
    subgroup_automorphism_perms,
)
from rbcm.groups import Metacyclic, index2_subgroups, parse_group

Z4 = Metacyclic(4, 1, 1)
Z8 = Metacyclic(8, 1, 1)
Z2X4 = Metacyclic(4, 2, 1)
L823 = Metacyclic(8, 2, 3)


def canon_keys(G, result):
    perms = automorphism_perms(G)
    return sorted(brute._canonical_form(fm.cmap, perms) for fm in result)


class TestAutomorphisms:
    def test_z8_count(self):
        assert len(enumerate_automorphisms(Z8)) == 4

    def test_units_oracle(self):
        # cyclic groups: automorphisms = prime-to-order units
        import math

        for n in (4, 8, 12, 16):
            G = Metacyclic(n, 1, 1)
            expected = sum(1 for u in range(1, n) if math.gcd(u, n) == 1)
            assert len(enumerate_automorphisms(G)) == expected

    def test_images_preserve_relations(self):
        for A, B in enumerate_automorphisms(L823):
            assert L823.element_order(A) == 8
            assert L823.mul(L823.mul(B, A), L823.inv(B)) == L823.pow(A, 3)

    def test_perms_are_automorphisms(self):
        for perm in automorphism_perms(L823):
            for g1 in L823.elements():
                for g2 in L823.elements():
                    i, j = L823.encode(g1), L823.encode(g2)
                    assert perm[L823.mul_vec(np.int64(i), np.int64(j))] == L823.mul_vec(
                        np.int64(perm[i]), np.int64(perm[j])
                    )

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_automorphisms(Metacyclic(1 << 13, 1, 1))

    def test_subgroup_automorphisms(self):
        # <a^2, b> of L(8,2,3) is Z4 x Z2 (a^2 has order 4, b order 2, commute)
        H = index2_subgroups(L823)[0]
        perms = subgroup_automorphism_perms(L823, H.member_idx())
        assert len(perms) == 8  # |Aut(Z4 x Z2)| = 8


class TestEnumerate:
    def test_z4_contains_balanced(self):
        res = enumerate_rbcm(Z4)
        assert len(res) == 1
        fm = res[0]
        assert fm.balance.t == 1 and fm.cmap.d == 2
        assert set(fm.cmap.omega_idx.tolist()) == {1, 3}  # a, a^3

    def test_all_outputs_reverify(self):
        for G in (Z4, Z8, Z2X4, L823):
            for fm in enumerate_rbcm(G):
                assert isinstance(maps.check_skew(fm.cmap, fm.skew.phi), maps.SkewMorphism)
                assert maps.is_regular(fm.cmap) is not None
                bal = maps.balance_data(fm.cmap)
                assert bal is not None and bal.t == fm.balance.t

    def test_exhaustive_flag_certifies(self):
        res = enumerate_rbcm(Z8, exhaustive=True)
        for fm in res:
            assert (
                maps.map_automorphism_count(fm.cmap) == Z8.order * fm.cmap.d
            )

    def test_budget_order(self):
        with pytest.raises(BudgetExceeded):
            enumerate_rbcm(Metacyclic(128, 2, 63), SearchBudget(max_order=64))

    @pytest.mark.parametrize("G", [Z4, Z8, Z2X4], ids=["Z4", "Z8", "Z2xZ4"])
    def test_naive_agreement_fast_groups(self, G):
        assert canon_keys(G, enumerate_rbcm(G)) == canon_keys(G, naive_enumerate_rbcm(G))

    @pytest.mark.parametrize("name", ["L(8,2,3)", "L(16,2,9)", "Z8", "Z2xZ4", "L(6,2,5)"])
    def test_coset_arm_matches_sequential_oracle(self, name, monkeypatch):
        """The lockstep walk gives every ``(H, hperm)`` pair's cycles in the
        order of the one-pair-at-a-time loop.  ``L(6,2,5)`` is not a
        2-group, so its maps are certified generating by ``closure_idx``."""
        G = parse_group(name)
        calls = []
        coset_orbits = brute._coset_orbits

        def spy(G, members, hperm):
            calls.append((members, hperm, coset_orbits(G, members, hperm)))
            return calls[-1][2]

        monkeypatch.setattr(brute, "_coset_orbits", spy)
        enumerate_rbcm(G)
        assert len(calls) == sum(
            len(subgroup_automorphism_perms(G, H.member_idx())) for H in index2_subgroups(G)
        )
        for members, hperm, orbits in calls:
            assert orbits == oracles.sequential_coset_arm(G, members, hperm)

    def test_partial_result_is_deduplicated(self, monkeypatch):
        """A tripped time limit reports its maps up to isomorphism, like a
        complete run.  The clock ticks once per read, so the budget trips at
        the 101st ``_check_time``; 64 maps in 4 classes were found by then."""
        ticks = itertools.count()
        clock = types.SimpleNamespace(monotonic=lambda: float(next(ticks)))
        monkeypatch.setattr(brute, "time", clock)
        G = parse_group("L(16,2,7)")
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_rbcm(G, SearchBudget(time_limit_s=100.5))
        keys = canon_keys(G, exc.value.partial)
        assert len(set(keys)) == len(keys) == 4

    def test_self_consistency_L823(self):
        res = enumerate_rbcm(L823)
        assert len(res) == 5
        # every map passes the independent arc-count oracle
        for fm in res:
            assert maps.map_automorphism_count(fm.cmap) == L823.order * fm.cmap.d


def output_sha256(found) -> str:
    doc = [fm.to_json_dict() for fm in found]
    return hashlib.sha256(maps.canonical_json(doc).encode()).hexdigest()


class TestPinnedOutput:
    """The canonical JSON of each enumeration, byte for byte, as pinned
    before arc propagation was batched and rotations skipped."""

    EXHAUSTIVE_SHA256 = {
        "L(8,2,3)": "fbb6985d0f8ded623f6180a4067f1e5887a2c235f8eb85aced38f021cc3b31f8",
        "L(16,2,9)": "62abc426fa9b096017205dcbf1022a8d32baee4074303efd8856ae9074d4daa2",
        "L(16,2,7)": "a55d05994f4f4baee9f65889b3a2e5bfc4733c8d1ff3685e0ffff7bfaba9de6e",
    }
    NAIVE_SHA256 = {
        "Z8": "c954e6d7f2809cd8f0bb6820601dc83d48cdc98f4700084d4e4cbe044cfeb84f",
        "Z2xZ4": "40de83f34c880f49e4fee16596940212472a88a99784a2138c9d18bd4b0475d9",
    }

    @pytest.mark.parametrize("name", sorted(EXHAUSTIVE_SHA256))
    def test_enumerate_exhaustive(self, name):
        found = enumerate_rbcm(parse_group(name), exhaustive=True)
        assert output_sha256(found) == self.EXHAUSTIVE_SHA256[name]

    @pytest.mark.parametrize("name", sorted(NAIVE_SHA256))
    def test_naive(self, name):
        assert output_sha256(naive_enumerate_rbcm(parse_group(name))) == self.NAIVE_SHA256[name]

    def test_reverify_once_per_rotation_class(self, monkeypatch):
        """``enumerate_rbcm`` on ``L(16,2,7)`` sent 19,392 cycles to
        ``_reverify`` before rotations were skipped: 7,198 distinct
        sequences in 918 rotation classes.  Each class is now one row of
        one stacked call."""
        rows = []
        reverify = brute._reverify

        def spy(G, cycles):
            rows.extend(cycles.tolist())
            return reverify(G, cycles)

        monkeypatch.setattr(brute, "_reverify", spy)
        enumerate_rbcm(parse_group("L(16,2,7)"))
        keys = {tuple(c[c.index(min(c)):] + c[: c.index(min(c))]) for c in rows}
        assert len(keys) == len(rows) == 918


class TestGuided:
    def test_prune_predicates_on_normal_form(self):
        from rbcm.groups import DeltaParams, plus_presentation

        sub = plus_presentation(DeltaParams(7, 3, 4).group()).group
        p = autos.normal_form_params(sub, 3, 5)
        assert all(prune_predicates(7, 3, 4, p).values())

    def test_pruning_soundness_replay(self):
        # no engine solution is ever pruned: its kernel automorphism passes
        # the candidate filter and its seed data passes the orbit conditions
        from rbcm.classify import realize

        for z1 in range(4):
            r = realize(7, 3, 4, z1, full=False)
            sol = r.solution
            sub = brute.plus_presentation(r.cmap.group).group
            phi_plus = autos.normal_form_params(sub, sol.z, sol.w)
            assert all(prune_predicates(7, 3, 4, phi_plus).values())
            assert autos.validate(phi_plus)
            # the seed's inverse is in its orbit at an odd offset
            bal = maps.balance_data(r.cmap)
            assert bal is not None and bal.ell % 2 == 1
            # order of the restriction divides the valency
            assert sol.d % maps.perm_order(autos.as_perm(phi_plus)) == 0

    def test_empty_branch_is_exhausted_fast(self):
        res = brute.guided_search_delta(5, 3, 2)
        assert res.found == [] and res.exhausted
        assert res.stats["kernel_candidates"] == 0

    def test_kernel_candidate_loop_on_one_candidate(self, monkeypatch):
        """``D(7,3,4)`` with ``Aut(<a^2, b>)`` cut to its first candidate that
        passes ``prune_predicates``: the loop scans its seed pairs and finds
        one map, isomorphic to the engine's class ``z1 = 0``."""
        from rbcm.classify import realize
        from rbcm.groups import DeltaParams, plus_presentation

        sub = plus_presentation(DeltaParams(7, 3, 4).group()).group
        aut_group = autos.aut_group
        first = next(p for p in aut_group(sub) if all(prune_predicates(7, 3, 4, p).values()))
        monkeypatch.setattr(autos, "aut_group", lambda g: [first] if g == sub else aut_group(g))
        res = brute.guided_search_delta(7, 3, 4)
        assert res.stats == {"kernel_candidates": 1, "pairs_scanned": 10607, "pairs_surviving": 64}
        assert output_sha256(res.found) == (
            "34de996873ae333d6789a619040a2bdbc5e88172da7b1b33beb8a24d1200d7c6"
        )
        (fm,) = res.found
        hits = [z1 for z1 in range(4)
                if maps.are_isomorphic(fm.cmap, realize(7, 3, 4, z1, full=False).cmap) is not None]
        assert hits == [0]
