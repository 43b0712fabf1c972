"""Differential tests: the production certificates against the oracles.

The skew law of every realized class is proved by the reduction
certificate ``maps.check_skew_by_reduction``: the power function read by
the ``omega_1`` probe, ``phi`` an automorphism of ``<a^2, b>`` (R1) and one
identity on its two generators (R2), in ``O(|G|)``.  It is compared with
the dart certificate of ``maps.check_skew`` on tables built from random
residues up to order ``2^12``, and each of its conditions is broken once to
show the failure and its witness.  The dart certificate is in turn compared with
the ``|G|^2`` pair sweep, and the closed-form face count of ``maps.genus``
with dart tracing, on maps of order up to ``2^11``.  One map of order
``2^16`` checks that the dart certificate covers every row block.
``maps.is_regular``, which takes the arc propagation as its certificate, is
compared with the dart certificate of the propagated candidate and with
the arc-image count, and batches of ``maps._propagate`` rows with the
sequential oracle ``oracles.sequential_propagate``.  The closed-form
generation certificate of ``Metacyclic.generates`` is compared with the
closure BFS ``closure_idx`` on random subsets.
"""

import dataclasses
import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import oracles
from rbcm import autos, brute, maps
from rbcm.classify import _build_phi, _coset_rule, _generates_a2_b, realize
from rbcm.groups import DeltaParams, Metacyclic, parse_group, plus_presentation
from rbcm.maps import (
    CayleyMap,
    MapError,
    SkewFailure,
    SkewMorphism,
    check_skew,
    check_skew_by_rule,
    genus,
    is_regular,
    power_function_probe,
)
from oracles import check_skew_by_reduction

SKEW_GROUPS = ("Z8", "Z2xZ4", "L(8,2,3)", "L(16,4,5)")
GENUS_GROUPS = ("Z4",) + SKEW_GROUPS
ANY_MAP_GROUPS = ("L(8,2,3)", "L(16,4,5)", "L(16,2,7)", "L(9,3,4)", "L(7,3,2)")
# 2-groups (closed form), then groups that are not (closure fallback)
GENERATION_GROUPS = (
    "Z4", "Z8", "L(1,8,1)", "Z2xZ4", "L(8,2,3)", "L(16,2,7)", "L(16,4,5)",
    "L(64,8,17)", "D(7,3,4)", "Z3", "L(6,2,5)",
)


@lru_cache(maxsize=None)
def found_maps(name: str) -> "tuple[tuple[CayleyMap, np.ndarray], ...]":
    return tuple((fm.cmap, fm.skew.phi) for fm in brute.enumerate_rbcm(parse_group(name)))


@lru_cache(maxsize=None)
def realized_maps(a: int, b: int, c: int) -> "tuple[tuple[CayleyMap, np.ndarray], ...]":
    out = (realize(a, b, c, z1, full=False) for z1 in range(1 << (a - c - 1)))
    return tuple((r.cmap, r.skew.phi) for r in out)


def skew_pool() -> "list[tuple[CayleyMap, np.ndarray]]":
    """Regular maps with their skew-morphisms, orders 8 to 2^10."""
    return [case for name in SKEW_GROUPS for case in found_maps(name)] + list(
        realized_maps(7, 3, 4)
    )


def reordered(cmap: CayleyMap, order: "list[int]") -> CayleyMap:
    return CayleyMap(cmap.group, cmap.omega_idx[order])


def tamper(data, cmap: CayleyMap, phi: np.ndarray) -> "tuple[CayleyMap, np.ndarray]":
    """The map as found, with two images off ``Omega`` swapped, or with its
    generator cycle re-ordered (``phi`` then follows the new rotation on
    ``Omega`` and is unchanged elsewhere, so it stays a bijection)."""
    G, d = cmap.group, cmap.d
    kind = data.draw(st.sampled_from(["as found", "swap off omega", "reorder cycle"]))
    phi = phi.copy()
    if kind == "swap off omega":
        off = np.setdiff1d(G.all_idx(), np.append(cmap.omega_idx, G.encode(G.identity())))
        assume(off.size >= 2)
        x, y = data.draw(st.lists(st.sampled_from(off.tolist()), min_size=2, max_size=2, unique=True))
        phi[[x, y]] = phi[[y, x]]
    elif kind == "reorder cycle":
        cmap = reordered(cmap, data.draw(st.permutations(range(d))))
        phi[cmap.omega_idx] = cmap.omega_idx[(np.arange(d) + 1) % d]
    return cmap, phi


def assert_real_witness(cmap: CayleyMap, phi: np.ndarray, res) -> None:
    """The reported pair breaks the law for the only exponent the omega_1
    probe allows at eta, or no exponent is allowed there at all."""
    assert isinstance(res, SkewFailure)
    G = cmap.group
    eta, mu = G.encode(res.eta), G.encode(res.mu)
    k = int(oracles.probe_power_function(cmap, phi)[eta])
    assert k < 0 or not oracles.law_holds_at(cmap, phi, k, eta, mu)


def assert_reduction_witness(cmap: CayleyMap, phi: np.ndarray, res) -> None:
    """The reported pair breaks the law for the exponent the reduction
    requires at eta: 1 on ``<a^2, b>`` and ``t = pi(omega_d)`` off it; or the
    probe finds no ``t``, and no exponent at eta either."""
    assert isinstance(res, SkewFailure)
    G = cmap.group
    eta, mu = G.encode(res.eta), G.encode(res.mu)
    probe = oracles.probe_power_function(cmap, phi)
    k = 1 if res.eta.x % 2 == 0 else int(probe[cmap.omega_idx[-1]])
    if k < 0:
        assert probe[eta] < 0
    else:
        assert not oracles.law_holds_at(cmap, phi, k, eta, mu)


REDUCTION_TRIPLES = ((7, 3, 4), (8, 3, 5), (8, 4, 5), (9, 3, 6))  # orders 2^10 to 2^12


@lru_cache(maxsize=None)
def random_residue_maps() -> "tuple[tuple[maps.CosetRule, CayleyMap, np.ndarray], ...]":
    """Rules of random residues ``(z, w, u~, u1, v1)``, each with its table
    from ``_build_phi`` and the map of the table's orbit of ``omega_d``:
    ``theta = sigma(z,1;0,w)`` is any automorphism of ``<a^2, b>`` in that
    form, ``u~`` is odd, ``v1`` is -2 (as in every realized class) or free,
    and ``u1`` is free or solves (C2) at ``ell = 1``.  Tuples whose orbit is
    not a Cayley map are skipped."""
    rng = random.Random(12)
    out = []
    for a, b, c in REDUCTION_TRIPLES:
        G = DeltaParams(a, b, c).group()
        sub = plus_presentation(G).group
        thetas = [
            (z, w)
            for z in range(1 << (a - 1))
            for w in range(1 << b)
            if autos.validate(autos.normal_form_params(sub, z, w))
        ]
        for _ in range(500):
            z, w = rng.choice(thetas)
            u_tilde = rng.randrange(1, 1 << (a - 1), 2)
            v1 = rng.choice([-2 % (1 << b), rng.randrange(1 << b)])
            c2 = -(1 + (1 << (c - 1)) * (v1 - 1)) * u_tilde  # (C2) at ell = 1
            u1 = rng.choice([c2, rng.randrange(1 << (a - 1))]) % (1 << (a - 1))
            rule = _coset_rule(G, z, w, u_tilde, u1, v1)
            phi = _build_phi(rule)
            cycle = maps.orbit_walk(phi, rule.omega_d)
            if cycle is None:
                continue
            try:
                out.append((rule, CayleyMap(G, cycle), phi))
            except MapError:
                continue
    return tuple(out)


def test_reduction_matches_dart_certificate_on_built_tables():
    """The reduction and the dart certificate on the tables of
    ``random_residue_maps``.  Both verdicts must occur."""
    verdicts = Counter()
    for _, cmap, phi in random_residue_maps():
        dart, reduced = check_skew(cmap, phi), check_skew_by_reduction(cmap, phi)
        assert isinstance(reduced, SkewMorphism) == isinstance(dart, SkewMorphism)
        if isinstance(reduced, SkewMorphism):
            assert np.array_equal(reduced.pi, dart.pi)
            verdicts["pass"] += 1
        else:
            assert_reduction_witness(cmap, phi, reduced)
            verdicts["fail"] += 1
    assert verdicts["pass"] >= 1 and verdicts["fail"] >= 1, verdicts


def test_rule_matches_reduction_on_random_residues():
    """The rule-form certificate against the table reduction on the residues
    of ``random_residue_maps``: the rule walks the table's cycle, and both
    give the same verdict, with the same ``t`` and ``pi`` or the same
    failure and witness.  Both verdicts must occur.  The law at
    ``(omega_d, omega_1)`` fits some ``t`` on every one of them, as
    ``check_skew_by_rule`` proves."""
    verdicts = Counter()
    for rule, cmap, phi in random_residue_maps():
        G = cmap.group
        assert rule.cycle == cmap.omega_idx.tolist()
        assert oracles.probe_power_function(cmap, phi)[rule.omega_d] > 0
        by_rule, reduced = check_skew_by_rule(cmap, rule), check_skew_by_reduction(cmap, phi)
        if isinstance(reduced, SkewMorphism):
            assert by_rule == reduced.pi[rule.omega_d]
            assert np.array_equal(reduced.pi, np.where(G.all_idx() // G.m % 2 == 0, 1, by_rule))
            verdicts["pass"] += 1
        else:
            assert by_rule == reduced
            verdicts[reduced.detail] += 1
    assert verdicts["pass"] >= 1 and len(verdicts) >= 2, verdicts


def existence_triples(max_log_order: int) -> "list[tuple[int, int, int]]":
    """Every ``D(a,b,c)`` with ``c > b`` of order at most ``2^max_log_order``."""
    return [
        (a, b, c)
        for a in range(7, max_log_order)
        for b in range(1, max_log_order - a + 1)
        for c in range(max(2, a - b, b + 1), a - 2)
    ]


def test_rule_matches_reduction_on_every_class_up_to_2_14():
    """On every class of every existence triple up to order ``2^14``, the
    rule gives the cycle, ``t``, ``ell`` and ``pi`` that the table reduction
    certifies on the materialized table."""
    classes = 0
    for a, b, c in existence_triples(14):
        for z1 in range(1 << (a - c - 1)):
            r = realize(a, b, c, z1, full=False)
            phi = _build_phi(r.rule)
            cmap = CayleyMap(r.cmap.group, maps.orbit_walk(phi, r.rule.omega_d))
            assert cmap.omega_idx.tolist() == r.rule.cycle == r.cmap.omega_idx.tolist()
            bal = maps.balance_data(cmap)
            assert (bal.t, bal.ell) == (r.solution.t, r.solution.ell)
            reduced = check_skew_by_reduction(cmap, phi)
            assert reduced.pi[r.rule.omega_d] == check_skew_by_rule(cmap, r.rule) == bal.t
            assert np.array_equal(reduced.pi, r.skew.pi) and np.array_equal(phi, r.skew.phi)
            classes += 1
    assert classes == 52


def test_reduction_covers_exactly_the_maps_of_its_form():
    """On every regular map the enumeration finds (where the law holds), the
    reduction accepts exactly when ``pi`` is 1 on ``<a^2, b>`` and constant
    off it and ``phi`` maps ``<a^2, b>`` into itself.  The other maps are
    left to the dart certificate; each rejection names a real defect."""
    verdicts = Counter()
    for name in ("Z4", "Z8", "Z2xZ4", "L(8,2,3)", "L(16,4,5)"):
        for cmap, phi in found_maps(name):
            G = cmap.group
            pi = check_skew(cmap, phi).pi
            in_k = G.all_idx() // G.m % 2 == 0
            of_form = np.all(pi[in_k] == 1) and np.unique(pi[~in_k]).size == 1
            into = np.all(phi[in_k] // G.m % 2 == 0)
            res = check_skew_by_reduction(cmap, phi)
            assert isinstance(res, SkewMorphism) == bool(of_form and into)
            if isinstance(res, SkewMorphism):
                assert np.array_equal(res.pi, pi)
            elif of_form:
                assert "into itself" in res.detail
                assert res.eta.x % 2 == 0 and res.mu.x % 2 == 1
                assert G.encode(res.mu) == phi[G.encode(res.eta)]
            else:
                assert "pi is not 1" in res.detail
                assert_reduction_witness(cmap, phi, res)
            verdicts[res.detail if isinstance(res, SkewFailure) else "pass"] += 1
    assert len(verdicts) == 3, verdicts


def test_reduction_rejects_a_table_off_the_pi_rule():
    r = realize(7, 3, 4, 0, full=False)
    kernel = np.flatnonzero(r.skew.kernel_mask())
    phi = r.skew.phi.copy()
    phi[kernel[[1, -1]]] = phi[kernel[[-1, 1]]]
    res = check_skew_by_reduction(r.cmap, phi)
    assert res.detail == "phi(eta * mu0) is not phi(eta) * (generator)"
    assert_reduction_witness(r.cmap, phi, res)


def test_reduction_rejects_a_table_not_multiplicative_on_the_kernel():
    # CM(Z4 x Z4, (a^3, a^3 b^3, a, a b)): filling each right coset of
    # <omega_1> by the pi rule (1 on <a^2, b>, t = 1 off it) from a free
    # start gives this table.  It passes the probe everywhere and maps
    # <a^2, b> onto itself, but is not multiplicative there.
    G = parse_group("Z4xZ4")
    cmap = CayleyMap(G, [G.code(3, 0), G.code(3, 3), G.code(1, 0), G.code(1, 1)])
    phi = np.array([0, 11, 8, 9, 5, 12, 13, 14, 10, 1, 2, 3, 15, 6, 7, 4])
    assert np.all(power_function_probe(cmap, phi) == 1)
    assert np.all(phi[G.all_idx() // G.m % 2 == 0] // G.m % 2 == 0)
    res = check_skew_by_reduction(cmap, phi)
    assert res.detail == "phi(k e) is not phi(k) phi(e) on <a^2, b>"
    assert_reduction_witness(cmap, phi, res)
    assert_real_witness(cmap, phi, res)


def test_reduction_rejects_a_table_off_the_coset_rule():
    # the coset rule is not checked: with (R1) it follows from pi = 1 on
    # <a^2, b>, so the probe catches a table that breaks it
    r = realize(7, 3, 4, 0, full=False)
    G = r.cmap.group
    off = np.setdiff1d(np.flatnonzero(G.all_idx() // G.m % 2), r.cmap.omega_idx)
    phi = r.skew.phi.copy()
    phi[off[[0, -1]]] = phi[off[[-1, 0]]]
    assert not oracles.reduction_conditions(r.cmap, phi, r.solution.t)["coset"]
    res = check_skew_by_reduction(r.cmap, phi)
    assert res.detail == "phi(eta * mu0) is not phi(eta) * (generator)"
    assert_reduction_witness(r.cmap, phi, res)


def bad_w_rule() -> maps.CosetRule:
    """The residues of the class ``z1 = 0`` of ``D(7,3,4)`` with ``w = 1`` in
    place of 5 and ``u~ = 3``: the orbit is a Cayley map, (R1) and the pi
    rule hold, and (R2) and (R3) fail."""
    return _coset_rule(DeltaParams(7, 3, 4).group(), 3, 1, 3, 5, 6)


def bad_w_table() -> "tuple[CayleyMap, np.ndarray]":
    rule = bad_w_rule()
    phi = _build_phi(rule)
    return CayleyMap(rule.pres.parent, maps.orbit_walk(phi, rule.omega_d)), phi


def test_reduction_rejects_a_table_off_r2():
    cmap, phi = bad_w_table()
    res = check_skew_by_reduction(cmap, phi)
    assert res.detail == "phi(omega_d s omega_d^-1) is not omega_1 phi^t(s) omega_1^-1"
    assert res.eta == cmap.group.decode(int(cmap.omega_idx[-1]))
    assert_reduction_witness(cmap, phi, res)
    assert_real_witness(cmap, phi, res)
    assert isinstance(check_skew(cmap, phi), SkewFailure)


def test_rule_rejects_residues_off_r2():
    rule = bad_w_rule()
    cmap = CayleyMap(rule.pres.parent, rule.cycle)
    res = check_skew_by_rule(cmap, rule)
    assert res.detail == "phi(omega_d s omega_d^-1) is not omega_1 phi^t(s) omega_1^-1"
    assert res.eta == cmap.group.decode(rule.omega_d)
    table_cmap, phi = bad_w_table()
    assert np.array_equal(table_cmap.omega_idx, cmap.omega_idx)
    assert res == check_skew_by_reduction(cmap, phi)
    assert_real_witness(cmap, phi, res)


def test_rule_checks_its_preconditions():
    good = realize(7, 3, 4, 0, full=False).rule
    G, theta = good.pres.parent, good.theta
    with pytest.raises(autos.AutomorphismError, match="even"):
        maps.CosetRule(
            good.pres, dataclasses.replace(theta, x1=2 * theta.x1), good.omega_d, good.omega_1
        )
    for omega_d, omega_1 in ((G.code(2, 1), good.omega_1), (good.omega_d, G.code(2, 1))):
        with pytest.raises(MapError, match="off <a\\^2, b>"):
            maps.CosetRule(good.pres, theta, omega_d, omega_1)
    with pytest.raises(MapError, match="not the orbit"):
        check_skew_by_rule(CayleyMap(G, good.cycle).rotate(1), good)


def test_reduction_rejects_tables_off_r3():
    # (R3) is not checked: it follows from (R1), (R2) and pi(omega_d) = t,
    # so (R2) or the probe catches a table that breaks it
    cmap, phi = bad_w_table()
    t = int(power_function_probe(cmap, phi)[cmap.omega_idx[-1]])
    assert not oracles.reduction_conditions(cmap, phi, t)["R3"]
    assert "omega_1 phi^t(s)" in check_skew_by_reduction(cmap, phi).detail
    r = realize(7, 3, 4, 0, full=False)
    G, wd = r.cmap.group, np.int64(r.cmap.omega_idx[-1])
    square = int(G.mul_vec(wd, wd))
    phi = r.skew.phi.copy()
    phi[[square, G.code(2, 0)]] = phi[[G.code(2, 0), square]]
    assert not oracles.reduction_conditions(r.cmap, phi, r.solution.t)["R3"]
    res = check_skew_by_reduction(r.cmap, phi)
    assert isinstance(res, SkewFailure)
    assert_reduction_witness(r.cmap, phi, res)


def test_reduction_holds_its_conditions_on_every_realized_class():
    for cmap, phi in realized_maps(7, 3, 4) + realized_maps(8, 3, 5):
        skew = check_skew_by_reduction(cmap, phi)
        t = int(skew.pi[cmap.omega_idx[-1]])
        assert oracles.reduction_conditions(cmap, phi, t) == {"coset": True, "R2": True, "R3": True}


def test_reduction_needs_an_even_n():
    G = parse_group("Z3")
    with pytest.raises(MapError, match="odd n"):
        check_skew_by_reduction(CayleyMap(G, [1, 2]), np.array([0, 2, 1]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dart_certificate_matches_pair_sweep(data):
    cmap, phi = tamper(data, *data.draw(st.sampled_from(skew_pool())))
    # the production probe reads 0 where the oracle finds no exponent (-1)
    probe = np.maximum(oracles.probe_power_function(cmap, phi), 0)
    assert np.array_equal(power_function_probe(cmap, phi), probe)
    res = check_skew(cmap, phi)
    pi = oracles.pair_sweep(cmap, phi)
    event("accepted" if pi is not None else "rejected")
    if pi is not None:
        assert isinstance(res, SkewMorphism)
        assert np.array_equal(res.pi, pi)
        assert oracles.reversal_holds(cmap, pi)
        assert res.pair_mode == "exhaustive"
        return
    assert_real_witness(cmap, phi, res)


def test_dart_certificate_accepts_and_rejects_on_every_group():
    for cmap, phi in skew_pool():
        assert isinstance(check_skew(cmap, phi), SkewMorphism)
        G = cmap.group
        off = np.setdiff1d(G.all_idx(), np.append(cmap.omega_idx, 0))
        if off.size >= 2:
            bad = phi.copy()
            bad[off[:2]] = bad[off[1::-1]]
            assert_real_witness(cmap, bad, check_skew(cmap, bad))
            assert oracles.pair_sweep(cmap, bad) is None


def test_closed_form_faces_match_tracing():
    cmaps = [cm for name in GENUS_GROUPS for cm, _ in found_maps(name)]
    cmaps += [cm for abc in ((7, 3, 4), (8, 3, 5)) for cm, _ in realized_maps(*abc)]
    for cm in cmaps:
        faces = genus(cm).faces
        assert faces == oracles.traced_face_count(cm, +1) == oracles.traced_face_count(cm, -1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_form_faces_match_tracing_on_any_cayley_map(data):
    G = parse_group(data.draw(st.sampled_from(ANY_MAP_GROUPS)))
    picks = data.draw(st.lists(st.integers(1, G.order - 1), min_size=2, max_size=4, unique=True))
    gens = sorted(set(picks) | set(G.inv_vec(np.array(picks)).tolist()))
    try:
        cm = CayleyMap(G, data.draw(st.permutations(gens)))
    except MapError:
        assume(False)
    assert genus(cm).faces == oracles.traced_face_count(cm, +1)


def test_dart_certificate_covers_every_row_block():
    # CM(Z_n x Z_2, (a, a^-1, ab, a^-1 b)) is regular with
    # phi(a^x b^y) = a^-x b^(y + x(x-1)/2).  At order 2^16 the certificate
    # runs each value of pi in two row blocks.  Swapping the images of
    # a^(n-2) and a^(n-2) b passes the omega_1 probe everywhere; the law
    # fails only on rows near a^(n-2), all in the last blocks.
    n = 1 << 15
    G = Metacyclic(n, 2, 1)
    cmap = CayleyMap(G, [G.code(1, 0), G.code(-1, 0), G.code(1, 1), G.code(-1, 1)])
    x, y = np.divmod(G.all_idx(), 2)
    phi = (-x % n) * 2 + (y + x * (x - 1) // 2) % 2
    assert isinstance(check_skew(cmap, phi), SkewMorphism)
    top = [G.encode(G.el(n - 2, 0)), G.encode(G.el(n - 2, 1))]
    phi[top] = phi[top[::-1]]
    assert np.all(oracles.probe_power_function(cmap, phi) > 0)
    assert_real_witness(cmap, phi, check_skew(cmap, phi))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_propagation_certificate_matches_dart_certificate(data):
    """``is_regular`` takes the propagated map automorphism as its own
    certificate, and its label shifts as ``pi``; the dart certificate of that
    candidate, whose ``pi`` comes from the ``omega_1`` probe, must agree, and
    so must the arc-image count on orders up to 32."""
    source = data.draw(st.sampled_from(SKEW_GROUPS + ("D(7,3,4)",)))
    if source == "D(7,3,4)":
        cmap = data.draw(st.sampled_from([cm for cm, _ in realized_maps(7, 3, 4)]))
        kind = data.draw(st.sampled_from(["rotate", "swap two"]))
        if kind == "rotate":
            cmap = cmap.rotate(data.draw(st.integers(0, cmap.d - 1)))
        else:
            order = list(range(cmap.d))
            i, j = data.draw(st.lists(st.sampled_from(order), min_size=2, max_size=2, unique=True))
            order[i], order[j] = j, i
            cmap = reordered(cmap, order)
    else:
        G = parse_group(source)
        picks = data.draw(st.lists(st.integers(1, G.order - 1), min_size=1, max_size=4))
        gens = sorted(set(picks) | set(G.inv_vec(np.array(picks)).tolist()))
        try:
            cmap = CayleyMap(G, data.draw(st.permutations(gens)))
        except MapError:
            assume(False)
    G = cmap.group
    skew = is_regular(cmap)
    one = np.ones(1, dtype=np.int64)
    ok, img, _ = maps._propagate(G, cmap.omega_idx[None], cmap.iota0[None], one - 1, one)
    dart = check_skew(cmap, img[0]) if ok[0] else None
    event("regular" if skew is not None else "not regular")
    assert (skew is not None) == isinstance(dart, SkewMorphism)
    if skew is not None:
        assert np.array_equal(skew.phi, dart.phi) and np.array_equal(skew.pi, dart.pi)
    if G.order <= 32:
        assert (skew is not None) == (maps.map_automorphism_count(cmap) == G.order * cmap.d)


def assert_rows_match_sequential(G: Metacyclic, rows) -> np.ndarray:
    """``maps._propagate`` on ``(cmap, img0, shift0)`` rows of one group and
    valency, in one batch: every row's verdict, and the images and shifts
    of every passing row, are those of the one-vertex-at-a-time oracle.
    Returns the verdicts."""
    ok, img, sh = maps._propagate(
        G,
        np.array([cm.omega_idx for cm, _, _ in rows]),
        np.array([cm.iota0 for cm, _, _ in rows]),
        np.array([img0 for _, img0, _ in rows]),
        np.array([shift0 for _, _, shift0 in rows]),
    )
    assert ok.shape == (len(rows),) and img.shape == sh.shape == (len(rows), G.order)
    for k, (cmap, img0, shift0) in enumerate(rows):
        expected = oracles.sequential_propagate(cmap, img0, shift0)
        assert bool(ok[k]) == (expected is not None)
        if expected is not None:
            assert np.array_equal(img[k], expected[0]) and np.array_equal(sh[k], expected[1])
    return ok


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_propagation_matches_sequential_oracle(data):
    """One batch of ``maps._propagate`` holds orderings of one generating
    set with starting arcs.  The set is a regular map's, where rotations
    and every arc pass, or a random one.  The identity arc passes on any
    ordering; swaps, reorderings and other arcs fail, on the random sets of
    ``D(7,3,4)`` and ``L(16,4,5)`` after two to nine levels."""
    source = data.draw(st.sampled_from(SKEW_GROUPS + ("D(7,3,4)",)))
    G = parse_group(source)
    if data.draw(st.booleans()):
        pool = realized_maps(7, 3, 4) if source == "D(7,3,4)" else found_maps(source)
        base = data.draw(st.sampled_from([cm for cm, _ in pool]))
    else:
        picks = data.draw(st.lists(st.integers(1, G.order - 1), min_size=1, max_size=4))
        try:
            base = CayleyMap(G, sorted(set(picks) | set(G.inv_vec(np.array(picks)).tolist())))
        except MapError:
            assume(False)
    d = base.d
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(
            st.sampled_from(["rotate", "any arc", "identity arc", "swap two", "reorder"])
        )
        order, img0, shift0 = list(range(d)), 0, 1
        if kind == "rotate":
            order = np.roll(order, -data.draw(st.integers(0, d - 1))).tolist()
        elif kind == "any arc":
            img0, shift0 = data.draw(st.integers(0, G.order - 1)), data.draw(st.integers(0, d - 1))
        elif kind == "identity arc":
            order, shift0 = data.draw(st.permutations(range(d))), 0
        elif kind == "swap two" and d > 1:
            i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
            order[i], order[j] = j, i
        else:
            order = data.draw(st.permutations(range(d)))
        rows.append((reordered(base, order), img0, shift0))
    ok = assert_rows_match_sequential(G, rows)
    event(f"{int(ok.sum())} of {len(rows)} rows pass")


def test_batched_propagation_mixed_levels():
    """64 random orderings and arcs of one generating set of ``D(7,3,4)``
    in one batch: an instrumented copy of ``maps._propagate`` saw 8 rows
    pass, 54 drop out at the third level and 2 at the fourth."""
    G = parse_group("D(7,3,4)")
    base = CayleyMap(G, [259, 447, 713, 726, 773, 818])
    rng = np.random.default_rng(0)
    rows = [
        (
            reordered(base, rng.permutation(base.d).tolist()),
            int(rng.integers(G.order)),
            int(rng.integers(base.d)),
        )
        for _ in range(64)
    ]
    ok = assert_rows_match_sequential(G, rows)
    assert 0 < ok.sum() < len(rows)


def draw_subset(data, G: Metacyclic, x_step: int = 1) -> np.ndarray:
    """Up to four encoded elements with ``x`` a multiple of ``x_step``; half
    the time all of them are pushed into one maximal subgroup (``x`` or
    ``y`` doubled), so that both verdicts occur often."""
    xs = data.draw(st.lists(st.integers(0, G.n - 1), max_size=4))
    ys = data.draw(st.lists(st.integers(0, G.m - 1), min_size=len(xs), max_size=len(xs)))
    x, y = np.array(xs, dtype=np.int64) * x_step, np.array(ys, dtype=np.int64)
    squeeze = data.draw(st.sampled_from(["none", "x", "y"]))
    if squeeze == "x":
        x = x * 2
    elif squeeze == "y":
        y = y * 2
    return x % G.n * G.m + y % G.m


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_generation_certificate_matches_closure(data):
    G = parse_group(data.draw(st.sampled_from(GENERATION_GROUPS)))
    gens = draw_subset(data, G)
    expected = G.closure_idx(gens).size == G.order
    event("generates" if expected else "proper subgroup")
    assert G.generates(gens) == expected
    assert G.generates(gens.tolist()) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_generation_matches_closure(data):
    G = parse_group(data.draw(st.sampled_from(("D(7,3,4)", "L(16,4,5)", "L(8,2,3)", "L(64,8,17)"))))
    gens = draw_subset(data, G, x_step=data.draw(st.sampled_from([1, 2])))
    kernel = np.flatnonzero(G.all_idx() // G.m % 2 == 0)
    expected = np.array_equal(G.closure_idx(gens), kernel)
    event("generates <a^2, b>" if expected else "does not")
    assert _generates_a2_b(G, gens) == expected
