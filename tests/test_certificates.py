"""Differential tests: the production certificates against the oracles.

The dart certificate of ``maps.check_skew`` is compared with the ``|G|^2``
pair sweep, and the closed-form face count of ``maps.genus`` with dart
tracing, on maps of order up to ``2^11``.  One map of order ``2^16`` checks
that the certificate covers every row block.
"""

from functools import lru_cache

import numpy as np
from hypothesis import assume, event, given, settings, strategies as st

import oracles
from rbcm import brute
from rbcm.classify import realize
from rbcm.groups import Metacyclic, parse_group
from rbcm.maps import (
    CayleyMap,
    MapError,
    SkewFailure,
    SkewMorphism,
    check_skew,
    genus,
    power_function_probe,
)

SKEW_GROUPS = ("Z8", "Z2xZ4", "L(8,2,3)", "L(16,4,5)")
GENUS_GROUPS = ("Z4",) + SKEW_GROUPS
ANY_MAP_GROUPS = ("L(8,2,3)", "L(16,4,5)", "L(16,2,7)", "L(9,3,4)", "L(7,3,2)")


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
    return CayleyMap(cmap.group, [cmap.omega[i] for i in order])


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
    omega = [G.decode(i) for i in data.draw(st.permutations(gens))]
    try:
        cm = CayleyMap(G, omega)
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
    cmap = CayleyMap(G, [G.el(1, 0), G.el(-1, 0), G.el(1, 1), G.el(-1, 1)])
    x, y = np.divmod(G.all_idx(), 2)
    phi = (-x % n) * 2 + (y + x * (x - 1) // 2) % 2
    assert isinstance(check_skew(cmap, phi), SkewMorphism)
    top = [G.encode(G.el(n - 2, 0)), G.encode(G.el(n - 2, 1))]
    phi[top] = phi[top[::-1]]
    assert np.all(oracles.probe_power_function(cmap, phi) > 0)
    assert_real_witness(cmap, phi, check_skew(cmap, phi))
