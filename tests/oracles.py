"""Slow first-principles oracles that only the tests call.

Each one restates a definition directly, with none of the reasoning the
production certificates rely on, so the tests can compare the two:

* ``pair_sweep`` checks the skew law ``phi(eta mu) = phi(eta) phi^pi(eta)(mu)``
  on all ``|G|^2`` pairs, against the dart certificate ``maps.check_skew``,
  and ``reversal_holds`` checks the dart-reversal condition that the
  certificate derives rather than checks;
* ``traced_face_count`` follows every dart around its face, against the
  closed-form count inside ``maps.genus``;
* ``enumerate_params`` walks the parameter constraints in nested loops and
  validates every tuple, against the arrays of ``autos.aut_group``;
* ``commutator_subgroup_idx`` closes the set of all commutators, against
  the closed-form ``groups.abelianization_invariants``.

The sweep is quadratic in ``|G|`` and the tracing loops in Python over
every dart; keep them to orders up to ``2^11``.
"""

from typing import Iterator, Optional

import numpy as np

from rbcm.autos import AutoParams, tilde_exponents, validate
from rbcm.groups import Metacyclic
from rbcm.maps import CayleyMap
from rbcm.twoadic import deg2


def probe_power_function(cmap: CayleyMap, phi: np.ndarray) -> np.ndarray:
    """``pi(eta)`` in ``1..d`` with ``phi(eta omega_1) = phi(eta) phi^pi(eta)(omega_1)``.

    The only exponent the law allows at ``eta``; ``-1`` where none fits.
    Requires ``phi`` to restrict to ``rho``, so that ``phi^k(omega_1)`` is
    ``omega_(1+k)``.
    """
    G, d = cmap.group, cmap.d
    lhs = phi[G.mul_vec(G.all_idx(), cmap.omega_idx[0])]
    shifted = cmap.omega_idx[np.arange(1, d + 1) % d]  # phi^k(omega_1) for k = 1..d
    hit = G.mul_vec(phi[:, None], shifted[None, :]) == lhs[:, None]
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, -1)


def law_holds_at(cmap: CayleyMap, phi: np.ndarray, k: int, eta: int, mu: int) -> bool:
    """``phi(eta mu) == phi(eta) phi^k(mu)`` for encoded ``eta``, ``mu``."""
    G = cmap.group
    img = mu
    for _ in range(k):
        img = int(phi[img])
    return int(phi[G.mul_vec(np.int64(eta), np.int64(mu))]) == int(
        G.mul_vec(phi[eta], np.int64(img))
    )


def pair_sweep(cmap: CayleyMap, phi: np.ndarray) -> "Optional[np.ndarray]":
    """The power function if the law holds on every pair ``(eta, mu)``, else None.

    ``phi`` must fix the identity, be a bijection and restrict to ``rho``.
    """
    G, d = cmap.group, cmap.d
    idx = G.all_idx()
    pi = probe_power_function(cmap, phi)
    if np.any(pi < 0):
        return None
    powers = [idx]
    for _ in range(d):
        powers.append(phi[powers[-1]])
    for k in range(1, d + 1):
        etas = np.flatnonzero(pi == k)
        lhs = phi[G.mul_vec(etas[:, None], idx[None, :])]
        rhs = G.mul_vec(phi[etas][:, None], powers[k][None, :])
        if not np.array_equal(lhs, rhs):
            return None
    return pi


def reversal_holds(cmap: CayleyMap, pi: np.ndarray) -> bool:
    """``iota(i) + pi(eta omega_i) = iota(i + pi(eta)) (mod d)`` on every dart."""
    G, d = cmap.group, cmap.d
    heads = G.mul_vec(G.all_idx()[:, None], cmap.omega_idx[None, :])
    shifted = (np.arange(d)[None, :] + pi[:, None]) % d
    return bool(np.all((cmap.iota0[None, :] + pi[heads]) % d == cmap.iota0[shifted]))


def traced_face_count(cmap: CayleyMap, direction: int) -> int:
    """Faces found by following every dart: ``(v, i) -> (v omega_i, iota(i) + direction)``."""
    G = cmap.group
    N, d = G.order, cmap.d
    next_label = (cmap.iota0 + direction) % d
    dest = np.empty((N, d), dtype=np.int64)
    idx = G.all_idx()
    for j in range(d):
        dest[:, j] = G.mul_vec(idx, cmap.omega_idx[j])
    fperm = (dest * d + next_label[None, :]).ravel()
    seen = np.zeros(N * d, dtype=bool)
    count = 0
    for a in range(N * d):
        if seen[a]:
            continue
        count += 1
        b = a
        while not seen[b]:
            seen[b] = True
            b = int(fperm[b])
    return count


def enumerate_params(group: Metacyclic) -> Iterator[AutoParams]:
    """All validated parameter tuples, in lexicographic (x1, y1, x2, y2) order."""
    at, bt, ct = tilde_exponents(group)
    n, m = group.n, group.m
    if bt == 0:
        for x1 in range(1, n, 2):
            yield AutoParams(x1, 0, 0, 0, group)
        return
    x2_step = 1 << max(at - bt, 0)
    y1_step = 1 << max(bt - ct, 0)
    mu = min(at - ct, bt)
    for x1 in range(1, n, 2):
        for y1 in range(0, m, y1_step):
            if mu > 0:
                corner = bt == at - ct and deg2(y1) + ct == at - ct
                target = (1 + (1 << (at - ct - 1))) if corner else 1
                y2_candidates = range(target % (1 << mu), m, 1 << mu)
            else:
                y2_candidates = range(m)
            for x2 in range(0, n, x2_step):
                for y2 in y2_candidates:
                    p = AutoParams(x1, y1, x2, y2, group)
                    if validate(p):
                        yield p


def commutator_subgroup_idx(group: Metacyclic) -> np.ndarray:
    """Encoded commutator subgroup, computed as the closure of all commutators."""
    gens = set()
    for g1 in group.elements():
        for g2 in group.elements():
            gens.add(group.encode(group.commutator(g1, g2)))
    return group.closure_idx(sorted(gens))
