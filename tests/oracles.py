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
  the closed-form ``groups.abelianization_invariants``;
* ``balance_by_search`` tries every balance exponent ``t`` in ``1..d`` and
  types the map by its involutions, against ``maps.balance_data``, which
  reads ``t`` off ``iota`` at one position;
* ``reduction_conditions`` evaluates the coset rule, (R2) and (R3) of the
  reduction to ``<a^2, b>`` element by element, against the implications
  that the reduction certificates rely on instead of checking them;
* ``check_skew_by_reduction`` (with ``restriction_failure``) certifies a
  ``phi`` table by that reduction in ``O(|G|)``, checking on the table what
  the rule-form certificate ``maps.check_skew_by_rule`` of ``realize``
  holds by construction;
* ``closed_form_failure`` and ``inverse_condition_failure`` evaluate the
  orbit identities index by index in Python integers, the twisted sums as
  an ``O(d^2)`` double loop, against the prefix sums of
  ``maps.generator_orbit`` and ``maps.verify_inverse_conditions``;
* ``sequential_propagate`` extends one arc image one vertex at a time,
  comparing image and label shift wherever an arc reaches a known vertex,
  against the level-synchronous, batched ``maps._propagate``;
* ``sequential_coset_arm`` builds one ``phi`` and walks one orbit per seed
  pair of the ``t > 1`` arm of ``brute.enumerate_rbcm``, against the
  lockstep walk over all seed pairs at once, ``brute._coset_orbits``;
* ``scan_isomorphisms`` screens every row of ``autos.aut_group`` for the
  automorphisms that carry one map onto another, against the solve in
  parameter space of ``maps.isomorphisms``;
* ``solve_linear`` lists every solution of ``A x = B (mod 2^e)``, the
  general congruence that the odd determinants of ``autos.solve`` avoid.

The sweep is quadratic in ``|G|`` and the tracing loops in Python over
every dart; keep them to orders up to ``2^11``.
"""

import math
from typing import Iterator, Optional

import numpy as np

from rbcm import maps
from rbcm.autos import AutGroup, AutoParams, tilde_exponents, validate
from rbcm.groups import Metacyclic
from rbcm.maps import BalanceData, CayleyMap, orbit_walk
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


def balance_by_search(cmap: CayleyMap) -> "Optional[BalanceData]":
    """The map's ``BalanceData`` from every ``t`` in ``1..d`` with ``t^2 = 1 (mod d)``
    and ``iota(i + t) = iota(i) + 1`` for all ``i``; None if no ``t`` passes.

    At most one ``t`` can pass, as ``iota`` is an involution.  The map is of
    type II exactly when some generator is an involution.
    """
    d, iota0 = cmap.d, cmap.iota0
    arange = np.arange(d)
    valid = [
        t
        for t in range(1, d + 1)
        if (t * t) % d == 1 % d and np.array_equal((iota0 + 1) % d, iota0[(arange + t) % d])
    ]
    if not valid:
        return None
    (t,) = valid
    map_type = "II" if np.any(iota0 == arange) else "I"
    return BalanceData(t, int(iota0[d - 1]) + 1, map_type, d)


def closed_form_failure(G: Metacyclic, eta: np.ndarray, prod: np.ndarray) -> "Optional[str]":
    """The first of ``g_i = v_1 + ... + v_i`` and
    ``f_i = sum_(j <= i) r^(g_i - g_j) u_j (mod n/2)`` to fail, as
    ``maps.generator_orbit`` words it, for ``eta_j = a^(2 u_j) b^(v_j)`` and
    ``prod_i = a^(2 f_i) b^(g_i)``; None if all hold."""
    m, n_half = G.m, G.n // 2
    u, v = [e // m // 2 for e in eta.tolist()], [e % m for e in eta.tolist()]
    f, g = [p // m // 2 for p in prod.tolist()], [p % m for p in prod.tolist()]
    for i in range(1, len(u) + 1):
        if g[i - 1] != sum(v[:i]) % m:
            return f"g_{i} disagrees with the v-sum"
        acc = sum(pow(G.r, (g[i - 1] - g[j - 1]) % m, n_half) * u[j - 1] for j in range(1, i + 1))
        if (acc - f[i - 1]) % n_half:
            return f"f_{i} disagrees with the twisted u-sum"
    return None


def inverse_condition_failure(
    G: Metacyclic, prod: np.ndarray, bal: BalanceData, u_tilde: int
) -> "Optional[str]":
    """The first coordinate condition of ``omega_(ell+ti) = omega_i^-1`` to
    fail, as ``maps.verify_inverse_conditions`` words it; None if all hold.
    The base generator must already be ``a^u_tilde b``."""
    n, n_half, m, d = G.n, G.n // 2, G.m, prod.size
    f, g = [p // m // 2 for p in prod.tolist()], [p % m for p in prod.tolist()]
    r_inv = pow(G.r, -1, n)
    for i in range(1, d + 1):
        k = (bal.ell + bal.t * i - 1) % d  # ell + t i, zero-based
        if (g[k] + g[i - 1] + 2) % m:
            return f"offset-sum condition fails at i={i}"
        half = (pow(G.r, g[k], n) + r_inv) % n
        if half % 2:
            return "odd numerator in the halved coefficient"
        twist = pow(r_inv, (g[i - 1] + 1) % m, n_half)
        if (f[k] + twist * f[i - 1] + half // 2 * u_tilde) % n_half:
            return f"twisted-sum condition fails at i={i}"
    return None


def reduction_conditions(cmap: CayleyMap, phi: np.ndarray, t: int) -> "dict[str, bool]":
    """The conditions of the reduction to ``K = <a^2, b>``, in ``GroupElement`` arithmetic:

    * ``coset``: ``phi(h omega_d) = phi(h) omega_1`` for every ``h`` in ``K``;
    * ``R2``: ``phi(omega_d s omega_d^-1) = omega_1 phi^t(s) omega_1^-1`` for ``s`` in ``{a^2, b}``;
    * ``R3``: ``phi(omega_d^2) = omega_1 omega_t``.
    """
    G = cmap.group

    def image(g, steps=1):
        code = G.encode(g)
        for _ in range(steps):
            code = int(phi[code])
        return G.decode(code)

    w1, wd = G.decode(int(cmap.omega_idx[0])), G.decode(int(cmap.omega_idx[-1]))
    coset = all(
        image(G.mul(h, wd)) == G.mul(image(h), w1) for h in G.elements() if h.x % 2 == 0
    )
    r2 = all(
        image(G.mul(G.mul(wd, s), G.inv(wd))) == G.mul(G.mul(w1, image(s, t)), G.inv(w1))
        for s in (G.el(2, 0), G.el(0, 1))
    )
    r3 = image(G.mul(wd, wd)) == G.mul(w1, G.decode(int(cmap.omega_idx[t - 1])))
    return {"coset": coset, "R2": r2, "R3": r3}


def check_skew_by_reduction(cmap: CayleyMap, phi: np.ndarray) -> "maps.SkewMorphism | maps.SkewFailure":
    """Verify a candidate ``phi`` table by the reduction to the index-2 kernel ``K = <a^2, b>``.

    The table form of ``maps.check_skew_by_rule``, which ``realize`` runs:
    every condition that the rule form holds by construction is checked
    here on the ``|G|``-sized table.
    ``check_skew``'s contract, on ``L(n, m; r)`` with even ``n``; ``K`` is
    the elements with even ``x``.  Write ``omega_d = omega_0`` and
    ``theta = phi|K``.  After ``check_skew``'s table checks it checks, in
    ``O(|G|)`` array work and ``t`` table steps (the darts take ``O(|G| d)``):

    * pi: the ``omega_1`` probe reads 1 on ``K`` and ``t = pi(omega_d)`` off it;
    * (R1) ``theta`` is an automorphism of ``K`` (``restriction_failure``);
    * (R2) ``phi(omega_d s omega_d^-1) = omega_1 phi^t(s) omega_1^-1`` for
      ``s`` in ``{a^2, b}``.

    These prove the law on all pairs with that ``pi``.  By (R1) every
    ``omega_i = phi^i(omega_d)`` lies off ``K``, so ``h1 = omega_1 omega_d^-1``
    lies in ``K``.  ``pi = 1`` at ``h h1^-1`` and at ``h1^-1`` gives the coset
    rule ``phi(h omega_d) = theta(h) omega_1``; with (R1) that is the law for
    ``eta`` in ``K``, and ``phi^k(h omega_d) = theta^k(h) omega_k``.  For
    ``eta = g omega_d`` and ``mu`` in ``K`` the law is
    ``theta(omega_d mu omega_d^-1) = omega_1 theta^t(mu) omega_1^-1``: two
    homomorphisms on ``K`` that (R2) equates on its generators.  The law at
    ``(omega_d, omega_1)``, which ``pi(omega_d) = t`` states, rewritten by
    (R2), gives (R3) ``theta(omega_d^2) = omega_1 omega_t``, and with it the
    law for ``mu = h omega_d``: ``theta(g) theta(omega_d h omega_d^-1)
    theta(omega_d^2) = theta(g) omega_1 theta^t(h) omega_t``.  (Jajcay and
    Siran, Skew-morphisms of regular Cayley maps, Discrete Math. 2002;
    Conder, Jajcay and Tucker, Regular t-balanced Cayley maps, JCTB 2007.)

    A failure is a pair at which the law fails for the exponent the
    reduction requires at ``eta`` (1 on ``K``, ``t`` off it), except an image
    of ``K`` outside ``K``, reported as the element and its image.  So a
    skew-morphism of another form, with ``ker pi`` other than ``K`` or with
    ``phi(K) != K``, is rejected; ``check_skew`` certifies those.
    """
    G = cmap.group
    if G.n % 2:
        raise maps.MapError(f"the reduction needs the index-2 kernel <a^2, b>; {G} has odd n")
    phi = phi.astype(np.int64)
    failure = maps._table_failure(cmap, phi)
    if failure is not None:
        return failure

    in_k = G.all_idx() // G.m % 2 == 0
    w1, wd = int(cmap.omega_idx[0]), int(cmap.omega_idx[-1])
    pi = maps.power_function_probe(cmap, phi)
    t = int(pi[wd])
    if t == 0:
        return maps._probe_failure(cmap, wd, "phi(eta * mu0) is not phi(eta) * (generator)")
    bad = np.flatnonzero(pi != np.where(in_k, 1, t))
    if bad.size:
        eta = int(bad[0])
        detail = "pi is not 1 on <a^2, b> and t = pi(omega_d) off it"
        if pi[eta] == 0:
            detail = "phi(eta * mu0) is not phi(eta) * (generator)"
        return maps._probe_failure(cmap, eta, detail)

    failure = restriction_failure(G, phi)
    if failure is not None:
        return failure

    gens = np.array([G.code(2, 0), G.code(0, 1)], dtype=np.int64)
    powered = gens
    for _ in range(t):
        powered = phi[powered]
    lhs = phi[G.mul_vec(G.mul_vec(np.int64(wd), gens), G.inv_vec(np.int64(wd)))]
    rhs = G.mul_vec(G.mul_vec(np.int64(w1), powered), G.inv_vec(np.int64(w1)))
    off = np.flatnonzero(lhs != rhs)
    if off.size:
        detail = "phi(omega_d s omega_d^-1) is not omega_1 phi^t(s) omega_1^-1"
        return maps.SkewFailure(G.decode(wd), G.decode(int(gens[off[0]])), detail)
    return maps.SkewMorphism(cmap, phi, pi)


def restriction_failure(G: Metacyclic, phi: np.ndarray) -> "Optional[maps.SkewFailure]":
    """(R1): ``phi`` maps ``K = <a^2, b>`` into itself and ``phi(k e) = phi(k) phi(e)``
    for all ``k`` in ``K`` and ``e`` in ``{a^2, b}``; None if both hold.

    Induction on word length in ``a^2, b`` then gives
    ``phi(k k') = phi(k) phi(k')`` on all of ``K``, and an injective ``phi``
    permutes ``K``.  A failure names an element of ``K`` and its image
    outside ``K``, or a pair ``(k, e)`` at which the product rule fails.
    """
    kernel = np.flatnonzero(G.all_idx() // G.m % 2 == 0)
    outside = np.flatnonzero(phi[kernel] // G.m % 2)
    if outside.size:
        k = int(kernel[outside[0]])
        detail = "phi does not map <a^2, b> into itself"
        return maps.SkewFailure(G.decode(k), G.decode(int(phi[k])), detail)
    for e in (G.code(2, 0), G.code(0, 1)):
        off = np.flatnonzero(phi[G.mul_vec(kernel, np.int64(e))] != G.mul_vec(phi[kernel], phi[e]))
        if off.size:
            detail = "phi(k e) is not phi(k) phi(e) on <a^2, b>"
            return maps.SkewFailure(G.decode(int(kernel[off[0]])), G.decode(e), detail)
    return None


def sequential_propagate(
    cmap: CayleyMap, img0: int, shift0: int
) -> "Optional[tuple[np.ndarray, np.ndarray]]":
    """Extend the arc assignment ``(1, omega_1) -> (img0, omega_(1+shift0))``
    one vertex at a time; the vertex images and label shifts, or None at the
    first inconsistency, an unreached vertex or a repeated image.

    A vertex carries its image and a label shift, and following an arc
    transports both (the reversed arc pins the shift at the far end).  Where
    an arc reaches a known vertex both its image and its shift are compared.
    """
    G = cmap.group
    N, d = G.order, cmap.d
    omega_idx, iota0 = cmap.omega_idx, cmap.iota0
    arange = np.arange(d)
    img = np.full(N, -1, dtype=np.int64)
    sh = np.full(N, -1, dtype=np.int64)
    img[0], sh[0] = img0, shift0
    queue = [0]
    while queue:
        v = queue.pop()
        rotated = (arange + sh[v]) % d
        ws = G.mul_vec(np.int64(v), omega_idx)
        wis = G.mul_vec(np.int64(img[v]), omega_idx[rotated])
        deltas = (iota0[rotated] - iota0) % d
        known = img[ws] >= 0
        if np.any(img[ws[known]] != wis[known]) or np.any(sh[ws[known]] != deltas[known]):
            return None
        fresh = ws[~known]
        img[fresh] = wis[~known]
        sh[fresh] = deltas[~known]
        queue.extend(fresh.tolist())
    if np.any(img < 0) or np.bincount(img, minlength=N).max() != 1:
        return None
    return img, sh


def sequential_coset_arm(
    G: Metacyclic, members: np.ndarray, hperm: np.ndarray
) -> "list[list[int]]":
    """The orbit of ``omega_d`` under the ``phi`` of each seed pair
    ``(omega_d, omega_1)`` off the index-2 subgroup ``members``, in that
    order, one pair at a time; a pair whose orbit does not return gives none.

    ``phi`` is ``hperm`` on the subgroup and ``phi(h omega_d) = hperm(h)
    omega_1`` on the coset.
    """
    coset = np.setdiff1d(G.all_idx(), members)
    out = []
    for wd in coset:
        wd_inv = int(G.inv_vec(np.array([wd], dtype=np.int64))[0])
        shifted = hperm[G.mul_vec(coset, np.int64(wd_inv))]
        for w1 in coset:
            phi = np.empty(G.order, dtype=np.int64)
            phi[members] = hperm[members]
            phi[coset] = G.mul_vec(shifted, np.int64(w1))
            orbit = orbit_walk(phi, int(wd))
            if orbit is not None:
                out.append(orbit)
    return out


def scan_isomorphisms(
    aut: AutGroup, sources: "list[CayleyMap]", targets: "list[CayleyMap]"
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """For each source map, every row of ``aut`` that carries it onto a target.

    Returns one ``(rows, target)`` pair of arrays per source: row
    ``rows[h]`` of ``aut`` maps the source's generator cycle onto a rotation
    of the cycle of ``targets[target[h]]``; rows come in ascending order.
    All of ``aut`` is screened: the images of ``(omega_1, omega_2)`` are
    looked up in the sorted keys ``omega_p * N + omega_(p+1)`` of every
    target and position (equal keys expand to their whole range), and each
    hit is verified on all ``d`` generators.
    """
    N = aut.group.order
    ds = np.array([t.d for t in targets], dtype=np.int64)
    cycles = np.full((len(targets), int(ds.max())), -1, dtype=np.int64)
    for j, t in enumerate(targets):
        cycles[j, : t.d] = t.omega_idx
    keys = np.concatenate([t.omega_idx * N + np.roll(t.omega_idx, -1) for t in targets])
    owner = np.repeat(np.arange(len(targets)), ds)
    pos = np.concatenate([np.arange(t.d) for t in targets])
    order = np.argsort(keys, kind="stable")
    keys, owner, pos = keys[order], owner[order], pos[order]
    is_head = np.zeros(N, dtype=bool)
    is_head[keys // N] = True
    out = []
    for src in sources:
        w, d = src.omega_idx, src.d
        first = aut.images(int(w[0]))
        rows = np.flatnonzero(is_head[first])
        probe = first[rows] * N + aut.images(int(w[1 % d]), rows)
        lo = np.searchsorted(keys, probe, "left")
        count = np.searchsorted(keys, probe, "right") - lo
        at = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        rows, j, p = np.repeat(rows, count), owner[at], pos[at]
        ok = ds[j] == d
        for s in range(2, d):
            ok[ok] = aut.images(int(w[s]), rows[ok]) == cycles[j[ok], (p[ok] + s) % d]
        out.append((rows[ok], j[ok]))
    return out


def solve_linear(A: int, B: int, e: int) -> "list[int]":
    """All ``x`` in ``[0, 2**e)`` with ``A*x = B (mod 2**e)``; empty if none.

    The solution count is ``gcd(A, 2**e)`` when ``gcd(A, 2**e) | B``.
    """
    mod = 1 << e
    A %= mod
    B %= mod
    g = math.gcd(A, mod)
    if B % g:
        return []
    step = mod // g
    if step == 1:
        x0 = 0
    else:
        x0 = ((B // g) * pow(A // g, -1, step)) % step
    return [x0 + k * step for k in range(g)]
