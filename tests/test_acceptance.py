"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 10 (the
exhaustion of the guided search) is long-running and marked ``exhaustive``;
enable it with ``RBCM_RUN_EXHAUSTIVE=1``.

Two criteria reference parameter triples that violate the family's own
constraints and denote groups that do not exist: L(32,4,5) has 5^4 != 1
(mod 32), and D(8,3,4) / D(9,3,4) have b + c < a so (1+2^c)^(2^b) != 1
(mod 2^a).  For those the suite asserts the descriptor is rejected and runs
the stated check on the nearest valid substitutes; see the README.
"""

import math
import os
import random

import numpy as np
import pytest

from rbcm import autos, brute, maps
from rbcm.classify import classify, realize
from rbcm.groups import GroupError, Metacyclic, PowerSubgroup, index2_subgroups
from rbcm.twoadic import deg2, sqrt_lift

SEED = 0xBA5E


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def full_734():
    return classify(7, 3, 4, verify_level="full")


@pytest.fixture(scope="module")
def full_835():
    return classify(8, 3, 5, verify_level="full")


def test_criterion_1_headline_count(full_734):
    out = full_734
    ok = (
        len(out.solutions) == 4
        and out.all_verified
        and all(r.skew.pair_mode == "exhaustive" for r in out.realized)
        and all(r.checks["skew_law_all_pairs"] for r in out.realized)
        and all(r.checks["type_I_normalized"] for r in out.realized)
        and all(r.checks["pi_on_generators_is_t"] for r in out.realized)
        and all(r.checks["pi_two_valued"] for r in out.realized)
        and all(r.checks["kernel_is_even_products"] for r in out.realized)
        and all(r.checks["phi_restriction_is_automorphism"] for r in out.realized)
        and out.distinctness.pair_count == 6
        and all(p[2] for p in out.distinctness.shift_route)
        and out.distinctness.shift_route == out.distinctness.search_route
    )
    report(1, ok, "D(7,3,4): 4 classes, all checks, pairwise distinct both routes")


def test_criterion_2_count_scaling(full_835):
    # the two listed triples with b + c < a denote groups that do not exist
    for bad in ((8, 3, 4), (9, 3, 4)):
        with pytest.raises(GroupError):
            classify(*bad)
    out_835 = full_835
    out_945 = classify(9, 4, 5, verify_level="full")
    out_1156 = classify(11, 5, 6, verify_level="full")
    ok = (
        len(out_835.solutions) == 4
        and out_835.all_verified
        and len(out_945.solutions) == 8
        and out_945.all_verified
        and len(out_1156.solutions) == 16
        and out_1156.all_verified
        and all(p[2] for p in out_945.distinctness.shift_route)
        and all(p[2] for p in out_1156.distinctness.shift_route)
    )
    report(
        2,
        ok,
        "counts 4/8/16 on (8,3,5)/(9,4,5)/(11,5,6), fully verified; "
        "(8,3,4) and (9,3,4) rejected as invalid descriptors",
    )


def test_criterion_3_restriction(full_734, full_835):
    ok = True
    for out in (full_734, full_835):
        for r in out.realized:
            s = r.solution
            ok = ok and r.checks["kernel_is_a2_b"]
            ok = ok and deg2(s.t + 1) >= max(s.b + 1, s.a - s.c + 2)
    report(3, ok, "kernel <a^2,b> and deg2(t+1) >= max(b+1, a-c+2) for every solution")


def test_criterion_4_quotient_reduction(full_734, full_835):
    ok = True
    for out in (full_734, full_835):
        for r, profile in zip(out.realized, out.profiles):
            q = maps.quotient_map(r.cmap, r.skew, PowerSubgroup(r.cmap.group, r.solution.c))
            ok = ok and q.cmap.group.is_abelian
            ok = ok and q.cmap.group.n == 1 << r.solution.c
            ok = ok and q.cmap.group.m == 1 << r.solution.b
            ok = ok and profile.valency == 1 << (profile.k + 1)
            ok = ok and (r.solution.t + 1) % profile.valency == 0
            ok = ok and profile.map_type == "I"
    report(4, ok, "quotients by <a^(2^c)> verify the full rank-2 abelian profile")


def test_criterion_5_square_root_lifting():
    rng = random.Random(SEED)
    ok = True
    for _ in range(1000):
        e = rng.randrange(3, 18)
        e_target = rng.randrange(e + 1, e + 20)
        s = rng.randrange(1, 1 << e, 2)
        h = s * s + (1 << e) * rng.randrange(-(1 << 10), 1 << 10)
        out = int(sqrt_lift(s, h, e, e_target))
        ok = ok and (out * out - h) % (1 << e_target) == 0
        ok = ok and (out - s) % (1 << (e - 1)) == 0
    checked = 0
    for e in range(3, 7):
        for e_target in (e + 1, 12):
            mod_t = 1 << e_target
            squares = {}
            for x in range(mod_t):
                squares.setdefault(x * x % mod_t, []).append(x)
            for s in range(1, 1 << e, 2):
                for h in range(s * s % (1 << e), mod_t, 1 << e):
                    out = int(sqrt_lift(s, h, e, e_target))
                    roots = [
                        x for x in squares.get(h % mod_t, []) if (x - s) % (1 << (e - 1)) == 0
                    ]
                    ok = ok and bool(roots) and out in roots
                    checked += 1
    report(5, ok, f"1000 random lifts + {checked} exhaustive lifts match brute-force roots")


def test_criterion_6_group_law_oracle():
    ok = True
    for G in (Metacyclic(8, 2, 3), Metacyclic(16, 4, 5)):
        P = G.perm_representation()
        perms = {g: P.perm(g) for g in G.elements()}
        ident = G.all_idx()
        for g1 in G.elements():
            ok = ok and np.array_equal(perms[G.inv(g1)], _perm_inverse(perms[g1]))
            ok = ok and G.pow(g1, G.element_order(g1)).is_identity()
            for g2 in G.elements():
                ok = ok and np.array_equal(
                    perms[g1][perms[g2]], perms[G.mul(g1, g2)]
                )
                comm = G.commutator(g1, g2)
                direct = G.mul(G.mul(g1, g2), G.mul(G.inv(g1), G.inv(g2)))
                ok = ok and comm == direct
        ok = ok and np.array_equal(perms[G.identity()], ident)
    report(6, ok, "group law agrees with the left-regular representation on all pairs")


def _perm_inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(p.size)
    return out


def test_criterion_7_automorphism_parametrization():
    with pytest.raises(GroupError):
        Metacyclic(32, 4, 5)  # the listed group does not exist: 5^4 = 17 (mod 32)
    groups = [Metacyclic(16, 4, 5), Metacyclic(32, 8, 5), Metacyclic(32, 4, 9)]
    ok = True
    for G in groups:
        ok = ok and len(autos.aut_group(G)) == len(brute.enumerate_automorphisms(G))
    rng = random.Random(SEED)
    pairs = 0
    for G in groups:
        auts = autos.aut_group(G)
        for _ in range(3500):
            s1, s2 = rng.choice(auts), rng.choice(auts)
            comp = autos.compose(s1, s2)
            ok = ok and np.array_equal(
                autos.as_perm(comp), autos.as_perm(s1)[autos.as_perm(s2)]
            )
            pairs += 1
    ok = ok and pairs >= 10**4
    report(7, ok, "validated tuple counts match brute force; compose pointwise on 10^4 pairs")


def test_criterion_8_index2_subgroups():
    ok = True
    for G in (
        Metacyclic(8, 2, 3),
        Metacyclic(16, 4, 5),
        Metacyclic(64, 8, 17),
        Metacyclic(4, 4, 1),
    ):
        subs = index2_subgroups(G)
        ok = ok and len(subs) == 3
        kernels = set()
        for fa in (0, 1):
            for fb in (0, 1):
                if (fa, fb) == (0, 0):
                    continue
                if (fa * G.n) % 2 or (fb * G.m) % 2 or (fa * (G.r - 1)) % 2:
                    continue
                kernels.add(
                    frozenset(
                        G.encode(g) for g in G.elements() if (fa * g.x + fb * g.y) % 2 == 0
                    )
                )
        listed = {frozenset(int(i) for i in s.member_idx()) for s in subs}
        ok = ok and listed == kernels and len(kernels) == 3
    report(8, ok, "exactly 3 index-2 subgroups, matching the homomorphism scan")


def test_criterion_9_small_group_oracle():
    ok = True
    details = []
    for G, name in (
        (Metacyclic(4, 1, 1), "Z4"),
        (Metacyclic(8, 1, 1), "Z8"),
        (Metacyclic(4, 2, 1), "Z2xZ4"),
        (Metacyclic(8, 2, 3), "L(8,2,3)"),
    ):
        structured = brute.enumerate_rbcm(G, exhaustive=True)
        naive = brute.naive_enumerate_rbcm(G)
        perms = brute.automorphism_perms(G)
        keys_s = sorted(brute._canonical_form(fm.cmap, perms) for fm in structured)
        keys_n = sorted(brute._canonical_form(fm.cmap, perms) for fm in naive)
        ok = ok and keys_s == keys_n
        details.append(f"{name}:{len(structured)}")
    report(9, ok, "naive enumeration matches the structured arm: " + ", ".join(details))


@pytest.mark.exhaustive
@pytest.mark.skipif(
    not os.environ.get("RBCM_RUN_EXHAUSTIVE"),
    reason="long-running completeness search; set RBCM_RUN_EXHAUSTIVE=1",
)
def test_criterion_10_guided_completeness(full_734):
    result = brute.guided_search_delta(7, 3, 4)
    engine = [r.cmap for r in full_734.realized]
    ok = result.exhausted and len(result.found) == 4
    matched = set()
    for fm in result.found:
        hits = [i for i, em in enumerate(engine) if maps.are_isomorphic(fm.cmap, em) is not None]
        ok = ok and len(hits) == 1
        matched.update(hits)
    ok = ok and matched == {0, 1, 2, 3}
    report(10, ok, "guided exhaustion finds exactly the 4 engine classes")
