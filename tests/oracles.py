"""Slow first-principles oracles that only the tests call.

Each one restates a definition directly, with none of the reasoning the
production certificates rely on, so the tests can compare the two:

* ``pair_sweep`` checks the skew law ``phi(eta mu) = phi(eta) phi^pi(eta)(mu)``
  on all ``|G|^2`` pairs, against the dart certificate ``maps.check_skew``,
  and ``reversal_holds`` checks the dart-reversal condition that the
  certificate derives rather than checks;
* ``traced_face_count`` follows every dart around its face, against the
  closed-form count inside ``maps.genus``.

The sweep is quadratic in ``|G|`` and the tracing loops in Python over
every dart; keep them to orders up to ``2^11``.
"""

from typing import Optional

import numpy as np

from rbcm.maps import CayleyMap


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
