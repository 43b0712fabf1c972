"""Tests for split metacyclic group arithmetic against the permutation oracle."""

import random

import numpy as np
import pytest

from rbcm.groups import (
    DeltaParams,
    GroupError,
    IndexTwoPresentation,
    Metacyclic,
    PowerSubgroup,
    abelianization_invariants,
    format_element,
    geom_table,
    index2_subgroups,
    parse_element,
    parse_group,
    plus_presentation,
    quotient,
)
from rbcm.groups import _verify_homomorphism
from oracles import commutator_subgroup_idx
from rbcm.twoadic import geom_sum_mod

L823 = Metacyclic(8, 2, 3)
L1645 = Metacyclic(16, 4, 5)


class TestDescriptor:
    def test_validation(self):
        with pytest.raises(GroupError, match="r\\^m"):
            Metacyclic(32, 4, 5)  # 5^4 = 17 (mod 32)
        with pytest.raises(GroupError):
            Metacyclic(0, 2, 1)
        assert Metacyclic(8, 2, 11).r == 3  # canonical residue

    def test_delta_descriptor(self):
        assert DeltaParams(7, 3, 4).group() == Metacyclic(128, 8, 17)
        with pytest.raises(GroupError, match="b != c"):
            DeltaParams(6, 3, 3)
        with pytest.raises(GroupError, match="c <= a-3"):
            DeltaParams(6, 3, 4)
        with pytest.raises(GroupError, match="max\\(2, a-b\\)"):
            DeltaParams(8, 3, 4)
        assert DeltaParams.of(Metacyclic(128, 8, 17)) == DeltaParams(7, 3, 4)
        # isomorphic to D(9,4,5) but not of the form L(2^a, 2^b; 1+2^c)
        assert DeltaParams.of(Metacyclic(512, 16, 97)) is None
        assert DeltaParams.of(Metacyclic(8, 1, 1)) is None

    def test_parse(self):
        assert parse_group("L(8,2,3)") == L823
        assert parse_group("D(7,3,4)") == Metacyclic(128, 8, 17)
        assert parse_group("Z8") == Metacyclic(8, 1, 1)
        assert parse_group("Z2xZ4") == Metacyclic(2, 4, 1)
        with pytest.raises(GroupError):
            parse_group("Q8")

    def test_element_syntax(self):
        g = L823.el(3, 1)
        assert format_element(g) == "a^3 b^1"
        assert parse_element(L823, "a^3 b^1") == g
        assert parse_element(L823, "a^3") == L823.el(3, 0)
        assert parse_element(L823, "b^1") == L823.beta()
        assert parse_element(L823, "1") == L823.identity()


class TestGroupLaw:
    def test_frozen_examples(self):
        ab = L823.el(1, 1)
        assert ab * ab == L823.el(4, 0)
        assert L823.beta() * L823.alpha() == L823.el(3, 1)
        assert L823.mul(L823.el(2, 0), L823.identity()) == L823.el(2, 0)

    def test_mismatched_groups(self):
        with pytest.raises(GroupError, match="used in"):
            L823.mul(L823.alpha(), L1645.alpha())

    def test_pow_examples(self):
        ab = L823.el(1, 1)
        assert L823.pow(ab, 0) == L823.identity()
        assert ab**2 == L823.el(4, 0)
        assert ab**-1 == L823.el(5, 1)

    def test_inverse_closed_form(self):
        for G in (L823, L1645, Metacyclic(6, 2, 5)):
            for g in G.elements():
                assert G.mul(g, G.inv(g)).is_identity()
                assert G.mul(G.inv(g), g).is_identity()

    def test_pow_repeated_mul_oracle(self):
        rng = random.Random(1)
        for G in (L823, L1645):
            for _ in range(50):
                g = G.decode(rng.randrange(G.order))
                u = rng.randrange(-20, 40)
                acc = G.identity()
                step = g if u >= 0 else G.inv(g)
                for _ in range(abs(u)):
                    acc = G.mul(acc, step)
                assert G.pow(g, u) == acc

    def test_commutator_examples(self):
        a, b = L823.alpha(), L823.beta()
        assert L823.commutator(a, a).is_identity()
        assert L823.commutator(a, b) == L823.el(6, 0)
        assert L823.commutator(L823.el(2, 0), L823.el(3, 0)).is_identity()

    def test_commutator_defining_product(self):
        for G in (L823, L1645):
            for g1 in G.elements():
                for g2 in G.elements():
                    direct = G.mul(G.mul(g1, g2), G.mul(G.inv(g1), G.inv(g2)))
                    assert G.commutator(g1, g2) == direct

    def test_element_order(self):
        assert L823.identity().order() == 1
        assert L823.alpha().order() == 8
        assert L823.el(1, 1).order() == 4
        for G in (L823, L1645):
            for g in G.elements():
                o = g.order()
                assert G.pow(g, o).is_identity()
                assert all(not G.pow(g, u).is_identity() for u in range(1, o))

    def test_associativity_exhaustive_small(self):
        G = Metacyclic(4, 2, 3)
        els = list(G.elements())
        for g1 in els:
            for g2 in els:
                for g3 in els:
                    assert G.mul(G.mul(g1, g2), g3) == G.mul(g1, G.mul(g2, g3))

    def test_conjugation_identity(self):
        # b^y a^x = a^(x r^y) b^y on all of L(16,4,5)
        G = L1645
        for x in range(16):
            for y in range(4):
                lhs = G.mul(G.pow(G.beta(), y), G.pow(G.alpha(), x))
                rhs = G.mul(G.pow(G.alpha(), x * pow(5, y, 16)), G.pow(G.beta(), y))
                assert lhs == rhs


class TestPermRepresentation:
    def test_identity_and_order(self):
        P = L823.perm_representation()
        assert np.array_equal(P.perm(L823.identity()), L823.all_idx())
        assert P.perm_order(L823.alpha()) == 8

    def test_composition_exhaustive(self):
        for G in (L823, L1645):
            P = G.perm_representation()
            for g1 in G.elements():
                p1 = P.perm(g1)
                for g2 in G.elements():
                    composed = p1[P.perm(g2)]
                    assert np.array_equal(composed, P.perm(G.mul(g1, g2)))

    def test_mul_oracle_agreement(self):
        for G in (L823, L1645):
            P = G.perm_representation()
            for g1 in G.elements():
                for g2 in G.elements():
                    assert P.mul_oracle(g1, g2) == G.mul(g1, g2)

    def test_too_large(self):
        with pytest.raises(GroupError, match="too large"):
            Metacyclic(1 << 10, 1 << 8, 1).perm_representation()


class TestVectorized:
    def test_mul_vec_matches_scalar(self):
        rng = random.Random(7)
        for G in (L823, L1645, Metacyclic(12, 2, 5)):
            a = np.array([rng.randrange(G.order) for _ in range(200)], dtype=np.int64)
            b = np.array([rng.randrange(G.order) for _ in range(200)], dtype=np.int64)
            prod = G.mul_vec(a, b)
            inv = G.inv_vec(a)
            for i in range(200):
                assert G.decode(int(prod[i])) == G.mul(G.decode(int(a[i])), G.decode(int(b[i])))
                assert G.decode(int(inv[i])) == G.inv(G.decode(int(a[i])))

    def test_code_matches_encode(self):
        for G in (L823, Metacyclic(12, 2, 5)):
            for x in range(-G.n, 2 * G.n):
                for y in range(-G.m, 2 * G.m):
                    assert G.code(x, y) == G.encode(G.el(x, y))

    def test_outer_matches_mul_vec(self):
        G = L1645
        rows = np.array([3, 17, 40], dtype=np.int64)
        cols = G.all_idx()
        outer = G.mul_vec_outer(rows, cols)
        for i, r in enumerate(rows):
            assert np.array_equal(outer[i], G.mul_vec(np.int64(r), cols))

    @pytest.mark.parametrize("text", ["Z8", "Z2xZ4", "L(16,4,5)", "L(32,8,5)", "D(7,3,4)"])
    def test_geom_table_matches_geom_sum_mod(self, text):
        G = parse_group(text)
        table = geom_table(G)
        assert table.shape == (G.m, G.n) and not table.flags.writeable
        assert table.tolist() == [
            [geom_sum_mod(G.rpow(y), u, G.n) for u in range(G.n)] for y in range(G.m)
        ]
        assert geom_table(G) is table  # cached per group

    def test_generates_edge_cases(self):
        trivial = Metacyclic(1, 1, 1)
        assert trivial.generates([]) and trivial.generates([0])
        assert not L823.generates([]) and not L823.generates([0])
        # <a^2, b> is a proper subgroup of L(8,2,3); <ab, b> is all of it
        a2, b, ab = (L823.encode(L823.el(x, y)) for x, y in ((2, 0), (0, 1), (1, 1)))
        assert not L823.generates([a2, b]) and L823.generates([ab, b])
        # one nonzero parity suffices when a factor is trivial
        assert Metacyclic(1, 8, 1).generates([3]) and not Metacyclic(1, 8, 1).generates([2])

    def test_closure(self):
        assert L823.closure_idx([L823.encode(L823.el(2, 0))]).size == 4
        full = L823.closure_idx([L823.encode(L823.alpha()), L823.encode(L823.beta())])
        assert full.size == 16


class TestSubgroups:
    def test_three_index2(self):
        subs = index2_subgroups(L823)
        assert [s.tag for s in subs] == ["a2_b", "a_b2", "a2_ab"]
        assert all(s.order == 8 and s.index == 2 for s in subs)

    def test_membership_examples(self):
        subs = index2_subgroups(L823)
        a2 = L823.el(2, 0)
        ab = L823.el(1, 1)
        assert all(a2 in s for s in subs)
        assert [ab in s for s in subs] == [False, False, True]

    def test_odd_order_rejected(self):
        # a factor of odd order has no parity functional onto Z_2
        assert [s.tag for s in index2_subgroups(Metacyclic(8, 1, 1))] == ["a2_b"]
        assert [s.tag for s in index2_subgroups(Metacyclic(1, 8, 1))] == ["a_b2"]
        assert index2_subgroups(Metacyclic(7, 1, 1)) == []

    def test_kernel_oracle(self):
        # index-2 subgroups = kernels of homomorphisms onto Z_2, found by scan
        for G in (L823, L1645, Metacyclic(4, 4, 1)):
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
            listed = {
                frozenset(int(i) for i in s.member_idx()) for s in index2_subgroups(G)
            }
            assert listed == kernels

    def test_closed_under_product(self):
        for s in index2_subgroups(L1645):
            members = list(s.elements())
            assert len(members) == s.order
            for g1 in members[:6]:
                for g2 in members[:6]:
                    assert s.group.mul(g1, g2) in s
                    assert s.group.inv(g1) in s


class TestPlusPresentation:
    def test_spec_examples(self):
        D = DeltaParams(7, 3, 4).group()
        assert plus_presentation(D).group == Metacyclic(64, 8, 17)

    def test_inclusion_identity(self):
        pres = plus_presentation(L1645)
        assert pres.include(pres.group.identity()).is_identity()

    def test_inclusion_homomorphism_random(self):
        rng = random.Random(3)
        pres = plus_presentation(DeltaParams(7, 3, 4).group())
        H, G = pres.group, pres.parent
        for _ in range(100):
            h1 = H.decode(rng.randrange(H.order))
            h2 = H.decode(rng.randrange(H.order))
            assert pres.include(H.mul(h1, h2)) == G.mul(pres.include(h1), pres.include(h2))

    def test_inclusion_checked_on_every_product(self):
        # r = 33 instead of 65: include(b a^2) != include(b) include(a^2), at an
        # order (|H| = 2^13) where a sample of pairs can miss it
        wrong = IndexTwoPresentation(DeltaParams(10, 4, 6).group(), Metacyclic(512, 16, 33))
        with pytest.raises(GroupError, match="not a homomorphism"):
            wrong.verify()
        plus_presentation(DeltaParams(10, 4, 6).group()).verify()
        # <a^2, b> of Z8 is L(4,1,1); with m' = 4 inclusion sends b^2 to a^2
        with pytest.raises(GroupError, match="not injective"):
            IndexTwoPresentation(Metacyclic(8, 1, 1), Metacyclic(4, 4, 1)).verify()

    def test_homomorphism_check_uses_both_generators(self):
        # (x, y) -> (x, y^2) on Z4 x Z4 respects right products with a, not with b
        G = Metacyclic(4, 4, 1)
        with pytest.raises(GroupError, match="generator a\\^0 b\\^1"):
            _verify_homomorphism(G, G, lambda idx: idx // 4 * 4 + (idx % 4) ** 2 % 4, "f")

    def test_retract_roundtrip(self):
        pres = plus_presentation(L1645)
        for h in pres.group.elements():
            assert pres.retract(pres.include(h)) == h
        idx = pres.group.all_idx()
        assert np.array_equal(pres.retract_vec(pres.include_vec(idx)), idx)

    def test_retract_rejects_non_members(self):
        with pytest.raises(GroupError, match="a\\^3 b\\^1 is not in <a\\^2, b>"):
            plus_presentation(L1645).retract(L1645.el(3, 1))
        with pytest.raises(GroupError, match="a\\^1 b\\^2 is not in <a\\^2, b>"):
            plus_presentation(L1645).retract_vec(np.array([0, L1645.encode(L1645.el(1, 2))]))

    def test_unsupported(self):
        # <a^2, b> has index 2 only when n is even
        with pytest.raises(GroupError, match="n must be even"):
            plus_presentation(Metacyclic(7, 1, 1))


class TestQuotient:
    def test_spec_example(self):
        D = DeltaParams(7, 3, 4).group()
        q = quotient(D, PowerSubgroup(D, 4))
        assert q.group == Metacyclic(16, 8, 1)
        assert q.group.is_abelian
        assert q.project(D.alpha()) == q.group.el(1, 0)
        assert q.project(D.beta()) == q.group.el(0, 1)

    def test_trivial_quotient(self):
        q = quotient(L823, PowerSubgroup(L823, 0, 0))
        assert q.group.order == 1

    def test_quotient_by_alpha(self):
        q = quotient(L823, PowerSubgroup(L823, 0))
        assert q.group.order == 2
        # coset enumeration oracle: classes by b-parity
        classes = {}
        for g in L823.elements():
            classes.setdefault(q.group.encode(q.project(g)), set()).add(L823.encode(g))
        assert len(classes) == 2
        assert all(len(v) == 8 for v in classes.values())

    def test_normality_detection(self):
        # <b^2> alone is not normal in L(8,2,3)... it has index 2 in <b>, check shape
        G = Metacyclic(8, 4, 3)  # 3^4 = 81 = 1 (mod 8)
        xi = PowerSubgroup(G, 1, None)  # <a^2>: conjugation sends a^2 to a^6, fine
        assert xi.is_normal()

    def test_projection_is_homomorphism(self):
        D = DeltaParams(7, 3, 4).group()
        q = quotient(D, PowerSubgroup(D, 4))
        rng = random.Random(5)
        for _ in range(100):
            g1 = D.decode(rng.randrange(D.order))
            g2 = D.decode(rng.randrange(D.order))
            assert q.project(D.mul(g1, g2)) == q.group.mul(q.project(g1), q.project(g2))


class TestAbelianization:
    def test_orders(self):
        # |commutator subgroup| * |abelianization| = |G|
        for G in (L823, L1645, Metacyclic(8, 4, 3)):
            inv = abelianization_invariants(G)
            comm = commutator_subgroup_idx(G)
            assert comm.size * inv[0] * inv[1] == G.order
