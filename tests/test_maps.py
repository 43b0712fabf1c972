"""Tests for Cayley maps: skew checks, balance, regularity, quotients, genus."""

import json
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import oracles
from test_certificates import ANY_MAP_GROUPS, found_maps, realized_maps
from rbcm import autos, brute, maps
from rbcm.groups import DeltaParams, Metacyclic, PowerSubgroup, parse_group
from rbcm.maps import (
    BalanceData,
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
    generator_orbit,
    genus,
    is_regular,
    map_automorphism_count,
    map_from_json_dict,
    map_to_json_dict,
    normalize_indexing,
    orbit_walk,
    perm_cycles,
    quotient_map,
    verify_inverse_conditions,
)

Z5 = Metacyclic(5, 1, 1)
Z4 = Metacyclic(4, 1, 1)
Z3 = Metacyclic(3, 1, 1)


def cyclic_map(G, values):
    return CayleyMap(G, [G.code(v, 0) for v in values])


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
        # codes outside [0, |G|) would wrap silently as numpy indices
        with pytest.raises(MapError, match="lie in"):
            CayleyMap(Z5, [1, -1])
        with pytest.raises(MapError, match="lie in"):
            CayleyMap(Z5, [1, 4, 5])
        with pytest.raises(MapError, match="integer"):
            CayleyMap(Z5, [1.5, 3.5])
        with pytest.raises(MapError, match="empty"):
            CayleyMap(Z5, [])


class TestCheckSkew:
    def test_identity_on_omega_fails_bijection_guard(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        res = check_skew(cm, Z5.all_idx())
        assert isinstance(res, SkewFailure) and "restrict" in res.detail
        assert (res.eta, res.mu) == (Z5.el(1, 0), Z5.el(1, 0))

    def test_candidate_defects_have_witnesses(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        phi = doubling_phi()
        moved = phi.copy()
        moved[[0, 1]] = moved[[1, 0]]
        res = check_skew(cm, moved)
        assert "identity" in res.detail and (res.eta, res.mu) == (Z5.el(0, 0), Z5.el(2, 0))
        twice = phi.copy()
        twice[3] = twice[2]
        res = check_skew(cm, twice)
        assert "bijection" in res.detail and (res.eta, res.mu) == (Z5.el(2, 0), Z5.el(3, 0))
        assert res.eta != res.mu and twice[Z5.encode(res.eta)] == twice[Z5.encode(res.mu)]

    def test_reduction_keeps_the_table_witnesses(self):
        # CM(Z4, (1, 3)) with the automorphism x -> -x
        cm = cyclic_map(Z4, [1, 3])
        phi = -Z4.all_idx() % 4
        assert isinstance(oracles.check_skew_by_reduction(cm, phi), SkewMorphism)
        moved, twice, off_rho = phi.copy(), phi.copy(), phi.copy()
        moved[[0, 2]] = moved[[2, 0]]
        twice[2] = twice[1]
        off_rho[[1, 3]] = off_rho[[3, 1]]
        for bad, detail in ((moved, "identity"), (twice, "bijection"), (off_rho, "rho")):
            res = oracles.check_skew_by_reduction(cm, bad)
            assert detail in res.detail and res == check_skew(cm, bad)

    def test_automorphism_gives_trivial_pi(self):
        cm = cyclic_map(Z5, [1, 2, 4, 3])
        res = check_skew(cm, doubling_phi())
        assert isinstance(res, SkewMorphism)
        assert set(res.pi.tolist()) == {1}

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
        G, phi = Z5, skew.phi
        for eta in G.elements():
            for mu in G.elements():
                image = G.encode(mu)
                for _ in range(skew.pi[G.encode(eta)]):
                    image = phi[image]
                lhs = G.decode(phi[G.encode(G.mul(eta, mu))])
                assert lhs == G.mul(G.decode(phi[G.encode(eta)]), G.decode(image))


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
        got = cm2.omega_idx.tolist()
        assert any(doubled[s : s + 4] == got for s in range(4))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_balance_data_matches_the_search_over_t(data):
    """``balance_data`` reads ``t`` off one position of ``iota``; the oracle
    tries every ``t`` and types the map by its involutions."""
    name = data.draw(st.sampled_from(ANY_MAP_GROUPS + ("D(7,3,4)",)))
    if name == "D(7,3,4)":
        cm = data.draw(st.sampled_from([cm for cm, _ in realized_maps(7, 3, 4)]))
        cm = cm.rotate(data.draw(st.integers(0, cm.d - 1)))
    else:
        G = parse_group(name)
        picks = data.draw(st.lists(st.integers(1, G.order - 1), min_size=1, max_size=4, unique=True))
        gens = sorted(set(picks) | set(G.inv_vec(np.array(picks)).tolist()))
        try:
            cm = CayleyMap(G, data.draw(st.permutations(gens)))
        except MapError:
            assume(False)
    bal = balance_data(cm)
    event("balanced" if bal is not None else "not balanced")
    assert bal == oracles.balance_by_search(cm)


def test_balance_search_sees_both_verdicts():
    balanced = cyclic_map(Z5, [1, 2, 4, 3])
    unbalanced = cyclic_map(Metacyclic(7, 1, 1), [1, 2, 6, 3, 5, 4])
    assert balance_data(balanced) == oracles.balance_by_search(balanced) is not None
    assert balance_data(unbalanced) is oracles.balance_by_search(unbalanced) is None


@lru_cache(maxsize=None)
def realized_classes(a: int, b: int, c: int) -> tuple:
    from rbcm.classify import realize

    return tuple(realize(a, b, c, z1) for z1 in range(1 << (a - c - 1)))


class TestOrbitIdentities:
    """Each check of ``generator_orbit`` and ``verify_inverse_conditions``
    that an input can reach, with its message and its first failing index.

    Two checks follow from the group law: the ``g``-sums of
    ``generator_orbit``, as ``y``-exponents add, and the even halved
    coefficient ``r^g + r^-1`` of ``verify_inverse_conditions`` modulo an
    even ``n``.  No input reaches those.  The prefix products are
    ``omega_j omega_d^-1`` by definition, and ``omega_d^-2 = eta_ell ...
    eta_1`` is the inverse bookkeeping at ``j = 1``, so neither is checked."""

    @pytest.fixture(scope="class")
    def realized(self):
        return realized_classes(7, 3, 4)[0]

    def test_realized_map_passes(self, realized):
        orbit = generator_orbit(realized.cmap, realized.skew, realized.balance)
        verify_inverse_conditions(realized.cmap, orbit, realized.balance, realized.solution.u_tilde)

    def test_tampered_cycle(self, realized):
        order = list(range(realized.cmap.d))
        order[5], order[9] = 9, 5
        cm = CayleyMap(realized.cmap.group, realized.cmap.omega_idx[order])
        with pytest.raises(VerificationError, match=r"^inverse bookkeeping fails at j=7$"):
            generator_orbit(cm, realized.skew, realized.balance)

    @pytest.mark.parametrize("t, ell, j", [(31, 3, 1), (15, 1, 2)])
    def test_wrong_balance_data(self, realized, t, ell, j):
        bal = BalanceData(t, ell, "I", realized.cmap.d)
        with pytest.raises(VerificationError, match=rf"^inverse bookkeeping fails at j={j}$"):
            generator_orbit(realized.cmap, realized.skew, bal)

    def test_eta_outside_the_kernel(self, realized):
        eta = generator_orbit(realized.cmap, realized.skew, realized.balance).eta
        pi = realized.skew.pi.copy()
        pi[eta[6]] = realized.balance.t
        skew = SkewMorphism(realized.cmap, realized.skew.phi, pi)
        with pytest.raises(VerificationError, match=r"power-function kernel at j=7$"):
            generator_orbit(realized.cmap, skew, realized.balance)

    def test_eta_with_odd_a_exponent(self):
        # CM(Z5, (a^4, a^3, a, a^2)): eta_1 = a^2, eta_2 = a^4, eta_3 = a^3
        cm = cyclic_map(Z5, [4, 3, 1, 2])
        with pytest.raises(VerificationError, match=r"odd a-exponent; kernel is not <a\^2, b> at j=3$"):
            generator_orbit(cm, is_regular(cm), balance_data(cm))

    def test_phi_does_not_advance_eta(self, realized):
        eta = generator_orbit(realized.cmap, realized.skew, realized.balance).eta
        phi = realized.skew.phi.copy()
        phi[eta[4]] = phi[eta[5]]
        skew = SkewMorphism(realized.cmap, phi, realized.skew.pi)
        with pytest.raises(VerificationError, match=r"^phi\(eta_j\) != eta_\(j\+1\) at j=5$"):
            generator_orbit(realized.cmap, skew, realized.balance)

    @pytest.mark.parametrize("cycle, i", [((1, 5, 4, 8, 7, 2), 2), ((1, 5, 7, 2, 4, 8), 4)])
    def test_twisted_sum_on_wrapping_prefix_products(self, cycle, i):
        # on Z9 the eta_j have even codes, but their prefix sums wrap modulo
        # the odd n, so f_i = x(prod_i) / 2 is not the u-sum modulo n // 2
        G = Metacyclic(9, 1, 1)
        cm = cyclic_map(G, cycle)
        eta = G.mul_vec(cm.omega_idx, G.inv_vec(np.roll(cm.omega_idx, 1)))
        phi = G.all_idx().copy()
        phi[eta] = np.roll(eta, -1)
        skew = SkewMorphism(cm, phi, np.ones(G.order, dtype=np.int64))
        message = f"f_{i} disagrees with the twisted u-sum"
        with pytest.raises(VerificationError, match=f"^{message}$"):
            generator_orbit(cm, skew, balance_data(cm))
        prod = G.mul_vec(cm.omega_idx, G.inv_vec(cm.omega_idx[-1]))
        assert oracles.closed_form_failure(G, eta, prod) == message

    def test_wrong_u_tilde(self, realized):
        orbit = generator_orbit(realized.cmap, realized.skew, realized.balance)
        with pytest.raises(VerificationError, match=r"^base generator a\^5 b\^1 is not a\^7 b$"):
            verify_inverse_conditions(realized.cmap, orbit, realized.balance, 7)

    @pytest.mark.parametrize(
        "t, ell, message",
        [
            (31, 3, "offset-sum condition fails at i=1"),
            (1, 31, "offset-sum condition fails at i=2"),
            (31, 14, "twisted-sum condition fails at i=1"),
            (2, 30, "twisted-sum condition fails at i=2"),
        ],
    )
    def test_inverse_conditions_with_wrong_balance_data(self, realized, t, ell, message):
        orbit = generator_orbit(realized.cmap, realized.skew, realized.balance)
        bal = BalanceData(t, ell, "I", realized.cmap.d)
        with pytest.raises(VerificationError, match=f"^{message}$".replace("(", r"\(")):
            verify_inverse_conditions(realized.cmap, orbit, bal, realized.solution.u_tilde)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_orbit_identities_match_the_index_loops(data):
    """The prefix sums of ``generator_orbit`` and ``verify_inverse_conditions``
    against the per-index loops, on realized maps with their own or with
    tampered balance data and base exponent."""
    r = data.draw(st.sampled_from(realized_classes(7, 3, 4) + realized_classes(8, 3, 5)))
    G, d = r.cmap.group, r.cmap.d
    assert oracles.closed_form_failure(G, r.orbit.eta, r.orbit.prod) is None
    bal, u_tilde = r.balance, r.solution.u_tilde
    if data.draw(st.booleans()):
        bal = BalanceData(data.draw(st.integers(1, d)), data.draw(st.integers(0, d)), "I", d)
    if data.draw(st.integers(0, 9)) == 0:
        u_tilde = data.draw(st.integers(0, G.n - 1))
    if G.code(u_tilde, 1) != r.cmap.omega_idx[-1]:
        expected = f"base generator {G.decode(int(r.cmap.omega_idx[-1]))} is not a^{u_tilde} b"
    else:
        expected = oracles.inverse_condition_failure(G, r.orbit.prod, bal, u_tilde)
    event("holds" if expected is None else expected.split()[0])
    try:
        verify_inverse_conditions(r.cmap, r.orbit, bal, u_tilde)
        got = None
    except VerificationError as exc:
        got = str(exc)
    assert got == expected


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
        row_of = {p: k for k, p in enumerate(aut)}
        perms = [autos.as_perm(p) for p in aut]
        hits = maps.isomorphisms(cmaps, cmaps)
        assert len(hits) == len(cmaps)
        for src, (auts, targets) in zip(cmaps, hits):
            want = sorted(
                (k, j)
                for k, perm in enumerate(perms)
                for j in rotations.get(tuple(perm[src.omega_idx].tolist()), [])
            )
            got = [(row_of[p], j) for p, j in zip(auts, targets.tolist())]
            assert got == sorted(got) == want  # hits in aut_group order
            assert want
            for j, cm in enumerate(cmaps):
                first = min((k for k, t in want if t == j), default=None)
                perm = are_isomorphic(src, cm)
                assert (perm is None) == (first is None)
                assert first is None or np.array_equal(perm, perms[first])


@lru_cache(maxsize=None)
def automorphism_perms(G):
    """``aut_group`` as permutations, in its row order; ``brute.automorphism_perms``
    outside the parametrized family."""
    try:
        return [autos.as_perm(p) for p in autos.aut_group(G)]
    except autos.AutomorphismError:
        return brute.automorphism_perms(G)


def first_intertwining(m1, m2):
    """The automorphism ``are_isomorphic`` returned before its solve: the first
    of ``automorphism_perms`` that carries ``m1``'s cycle onto a rotation of
    ``m2``'s."""
    rotations = {tuple(np.roll(m2.omega_idx, -s).tolist()) for s in range(m2.d)}
    return next(
        (p for p in automorphism_perms(m1.group) if tuple(p[m1.omega_idx].tolist()) in rotations),
        None,
    )


def hit_list(auts, targets):
    return [(p.x1, p.y1, p.x2, p.y2, j) for p, j in zip(auts, targets.tolist())]


class TestIsomorphismSolver:
    """``maps.isomorphisms`` solves for each automorphism in parameter space;
    ``oracles.scan_isomorphisms`` screens every row of ``aut_group``."""

    def test_matches_scan_on_every_class_up_to_2_14(self):
        from test_certificates import existence_triples

        triples = existence_triples(14)
        for a, b, c in triples:
            cmaps = [cm for cm, _ in realized_maps(a, b, c)]
            cmaps.append(cmaps[-1].rotate(1))
            aut = autos.aut_group(cmaps[0].group)
            solved = maps.isomorphisms(cmaps, cmaps)
            scanned = oracles.scan_isomorphisms(aut, cmaps, cmaps)
            for (auts, targets), (rows, owners) in zip(solved, scanned):
                want = sorted(hit_list([aut[int(k)] for k in rows], owners))
                assert hit_list(auts, targets) == want, (a, b, c)
        assert len(triples) == 11

    @pytest.mark.parametrize("text", ["D(7,3,4)", "L(16,2,9)"])
    def test_finds_the_automorphism_that_made_the_target(self, text):
        G = parse_group(text)
        if text == "D(7,3,4)":
            sources = [cm for cm, _ in realized_maps(7, 3, 4)]
        else:
            sources = [fm.cmap for fm in brute.enumerate_rbcm(G)]
        rng = random.Random(17)
        for tau in rng.sample(list(autos.aut_group(G)), 12):
            src = rng.choice(sources)
            target = CayleyMap(G, np.roll(autos.as_perm(tau)[src.omega_idx], rng.randrange(src.d)))
            (stabilizer, _), = maps.isomorphisms([src], [src])
            (auts, targets), = maps.isomorphisms([src], [target])
            assert tau in set(auts)
            # every hit is tau after an automorphism of the source map
            assert set(auts) == {autos.compose(tau, alpha) for alpha in stabilizer}
            assert targets.tolist() == [0] * len(auts)

    def test_swapped_generators_give_no_hit(self):
        for src, _ in realized_maps(7, 3, 4):
            w = src.omega_idx.copy()
            w[[0, 1]] = w[[1, 0]]
            swapped = CayleyMap(src.group, w)
            (auts, targets), = maps.isomorphisms([src], [swapped])
            assert len(auts) == 0 and targets.size == 0
            (rows, _), = oracles.scan_isomorphisms(autos.aut_group(src.group), [src], [swapped])
            assert rows.size == 0

    def test_rank_one_solves_only_x1(self):
        Z16 = Metacyclic(16, 1, 1)
        auts, k = autos.solve(Z16, 3, 3, np.array([9, 5, 6]), np.array([9, 5, 6]))
        # 3 x1 = 9, 5, 6 (mod 16): x1 = 3, 7 and the even 2, which no automorphism has
        assert (auts.x1.tolist(), k.tolist()) == ([3, 7], [0, 1])
        assert auts.y1.tolist() == auts.x2.tolist() == auts.y2.tolist() == [0, 0]
        (hits, _), = maps.isomorphisms([cyclic_map(Z16, [1, 15])], [cyclic_map(Z16, [5, 11])])
        assert [(p.x1, p.y1, p.x2, p.y2) for p in hits] == [(5, 0, 0, 0), (11, 0, 0, 0)]

    def test_sources_must_span_the_frattini_quotient(self):
        G = DeltaParams(7, 3, 4).group()
        even = np.array([G.code(2, 1)])
        with pytest.raises(autos.AutomorphismError, match="span"):
            autos.solve(G, G.code(1, 0), G.code(3, 0), even, even)

    def test_no_spanning_pair_falls_back_to_brute_automorphisms(self):
        # L(1,8,1) is Z8 written as <b>: no parity of x to span with
        for cm, _ in found_maps("L(1,8,1)"):
            with pytest.raises(autos.AutomorphismError, match="span"):
                maps.isomorphisms([cm], [cm])
            assert np.array_equal(are_isomorphic(cm, cm), np.arange(8))

    def test_are_isomorphic_returns_the_first_automorphism(self):
        from rbcm.classify import realize

        Z8 = Metacyclic(8, 1, 1)
        pairs = [
            (cyclic_map(Z5, [1, 2, 4, 3]), cyclic_map(Z5, [2, 4, 3, 1])),
            (cyclic_map(Z5, [2, 4, 3, 1]), cyclic_map(Z5, [1, 2, 4, 3])),
            (cyclic_map(Z8, [1, 3, 5, 7]), cyclic_map(Z8, [3, 1, 7, 5])),
            (cyclic_map(Z8, [1, 3, 5, 7]), cyclic_map(Z8, [1, 7, 5, 3])),
            (realize(7, 3, 4, 0).cmap, realize(7, 3, 4, z=35).cmap),
            (realize(7, 3, 4, 0).cmap, realize(7, 3, 4, 1).cmap),
        ]
        pairs += [(m1, m2) for m1, _ in found_maps("Z2xZ4") for m2, _ in found_maps("Z2xZ4")]
        pairs += [(m, m.rotate(2)) for m, _ in realized_maps(7, 3, 4)]
        nonempty = 0
        for m1, m2 in pairs:
            want = first_intertwining(m1, m2)
            got = are_isomorphic(m1, m2)
            assert (got is None) == (want is None)
            nonempty += got is not None
            assert got is None or np.array_equal(got, want)
        assert 0 < nonempty < len(pairs)


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
        assert np.array_equal(cm2.omega_idx, cm.omega_idx)
        assert np.array_equal(phi, skew.phi)
        assert np.array_equal(pi, skew.pi)

    def test_malformed(self):
        with pytest.raises(MapError, match="malformed"):
            map_from_json_dict({"group": "L(8,2,3)"})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_json_round_trip_of_random_maps(data):
    """Documents are the boundary where codes become ``a^x b^y`` and back:
    parsing a serialized map gives back its codes and tables, and serializing
    the parsed map gives the same bytes."""
    name = data.draw(st.sampled_from(ANY_MAP_GROUPS + ("D(7,3,4)",)))
    G = parse_group(name)
    if name == "D(7,3,4)" and data.draw(st.booleans()):
        # a rotated realized map: regular, so its document carries the tables
        cm = data.draw(st.sampled_from([cm for cm, _ in realized_maps(7, 3, 4)]))
        cm = cm.rotate(data.draw(st.integers(0, cm.d - 1)))
    else:
        picks = data.draw(st.lists(st.integers(1, G.order - 1), min_size=1, max_size=4, unique=True))
        gens = sorted(set(picks) | set(G.inv_vec(np.array(picks)).tolist()))
        try:
            cm = CayleyMap(G, data.draw(st.permutations(gens)))
        except MapError:
            assume(False)
    skew = is_regular(cm)
    event("regular" if skew is not None else "not regular")
    text = canonical_json(map_to_json_dict(cm, skew))
    cm2, phi, pi = map_from_json_dict(json.loads(text))
    assert np.array_equal(cm2.omega_idx, cm.omega_idx)
    if skew is None:
        assert phi is None and pi is None
    else:
        assert np.array_equal(phi, skew.phi) and np.array_equal(pi, skew.pi)
    again = map_to_json_dict(cm2, None if phi is None else check_skew(cm2, phi))
    assert canonical_json(again) == text
