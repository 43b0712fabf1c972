"""Cayley maps, skew-morphisms, t-balance, quotient reduction and genus.

A Cayley map ``CM(G, Omega, rho)`` is the embedding of the Cayley graph
``Cay(G, Omega)`` into the oriented surface obtained by using the cyclic
order ``rho`` of ``Omega`` as the rotation at every vertex.  Here ``Omega``
is stored as the ordered tuple ``(omega_1, ..., omega_d)`` and ``rho`` is
the shift by one position.

Regularity is witnessed by a skew-morphism: a bijection ``phi`` of ``G``
fixing the identity, restricting to ``rho`` on ``Omega``, and satisfying

    phi(eta * mu) = phi(eta) * phi^pi(eta)(mu)      for all eta, mu

for a power function ``pi: G -> {1, ..., d}``.  t-balance means
``rho(w^-1) = (rho^t(w))^-1`` for all generators, with ``t^2 = 1 (mod d)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import autos
from .groups import (
    GroupElement,
    GroupError,
    Metacyclic,
    PowerSubgroup,
    QuotientPresentation,
    Subgroup,
    format_element,
    parse_element,
    parse_group,
    quotient,
)
from .twoadic import deg2


class MapError(ValueError):
    """Invalid Cayley map data."""


class VerificationError(AssertionError):
    """A machine check that must hold for verified objects failed."""


class CayleyMap:
    """``CM(group, omega, rho)`` with ``omega = (omega_1, .., omega_d)`` and ``rho`` the shift."""

    def __init__(self, group: Metacyclic, omega: Iterable[GroupElement], check: bool = True):
        self.group = group
        self.omega = tuple(omega)
        self.d = len(self.omega)
        if self.d == 0:
            raise MapError("generating sequence is empty")
        self.omega_idx = np.array([group.encode(w) for w in self.omega], dtype=np.int64)
        self._pos_of_idx = np.full(group.order, -1, dtype=np.int64)
        self._pos_of_idx[self.omega_idx] = np.arange(self.d)
        inv_idx = group.inv_vec(self.omega_idx)
        self.iota0 = self._pos_of_idx[inv_idx]  # 0-based position of each inverse
        if check:
            self._validate(inv_idx)

    def _validate(self, inv_idx: np.ndarray) -> None:
        if len(set(self.omega_idx.tolist())) != self.d:
            raise MapError("generators are not distinct")
        if any(w.is_identity() for w in self.omega):
            raise MapError("identity cannot be a generator")
        if np.any(self.iota0 < 0):
            missing = self.omega[int(np.flatnonzero(self.iota0 < 0)[0])]
            raise MapError(f"not closed under inverses: {missing}^-1 is missing")
        if self.group.closure_idx(self.omega_idx).size != self.group.order:
            raise MapError("generators do not generate the group")

    # one-based accessors matching the usual indexing omega_1 .. omega_d
    def omega_at(self, i: int) -> GroupElement:
        return self.omega[(i - 1) % self.d]

    def pos(self, w: GroupElement) -> int:
        p = int(self._pos_of_idx[self.group.encode(w)])
        if p < 0:
            raise MapError(f"{w} is not a generator of this map")
        return p + 1

    def rho(self, w: GroupElement) -> GroupElement:
        return self.omega[self.pos(w) % self.d]

    def rotate(self, shift: int) -> "CayleyMap":
        """Same map with the indexing rotated: new ``omega_i = old omega_(i+shift)``."""
        s = shift % self.d
        return CayleyMap(self.group, self.omega[s:] + self.omega[:s], check=False)

    def __repr__(self) -> str:
        return f"CayleyMap({self.group}, d={self.d})"


# -- skew-morphisms -----------------------------------------------------------


@dataclass(frozen=True)
class SkewFailure:
    eta: GroupElement
    mu: GroupElement
    detail: str

    def __bool__(self) -> bool:
        return False


class SkewMorphism:
    """A verified skew-morphism: permutation ``phi`` plus power function ``pi``."""

    #: the dart certificate of ``check_skew`` proves the law on all pairs
    pair_mode = "exhaustive"

    def __init__(self, cmap: CayleyMap, phi: np.ndarray, pi: np.ndarray):
        self.cmap = cmap
        self.group = cmap.group
        self.phi = phi
        self.pi = pi
        self._powers: "dict[int, np.ndarray]" = {1: phi}

    def apply(self, g: GroupElement) -> GroupElement:
        return self.group.decode(int(self.phi[self.group.encode(g)]))

    def pi_of(self, g: GroupElement) -> int:
        return int(self.pi[self.group.encode(g)])

    def power(self, k: int) -> np.ndarray:
        """``phi^k`` as an index array, by repeated squaring of permutations."""
        k = int(k)
        if k in self._powers:
            return self._powers[k]
        if k == 0:
            out = self.group.all_idx()
        elif k % 2 == 0:
            h = self.power(k // 2)
            out = h[h]
        else:
            out = self.phi[self.power(k - 1)]
        self._powers[k] = out
        return out

    @property
    def order(self) -> int:
        k = 1
        ident = self.group.all_idx()
        while not np.array_equal(self.power(k), ident):
            k += 1
        return k

    def kernel_mask(self) -> np.ndarray:
        return self.pi == 1

    def to_json_dict(self) -> dict:
        G = self.group
        return {
            "phi": {
                format_element(G.decode(i)): format_element(G.decode(int(self.phi[i])))
                for i in range(G.order)
            },
            "pi": {format_element(G.decode(i)): int(self.pi[i]) for i in range(G.order)},
        }


def check_skew(cmap: CayleyMap, phi: "np.ndarray | dict") -> "SkewMorphism | SkewFailure":
    """Verify a candidate bijection and derive its power function.

    For each ``eta`` the probe ``mu0 = omega_1`` pins the only exponent
    ``k`` in ``1..d`` that can work (``phi^k(mu0)`` walks the generator
    cycle).  The candidate is then certified on every dart ``(eta, i)``,
    the arc from ``eta`` along ``omega_i``:

        phi(eta omega_i) = phi(eta) omega_(i+pi(eta))

    Applied to a dart and to its reverse ``(eta omega_i, iota(i))``, this
    gives ``omega_(iota(i) + pi(eta omega_i)) = omega_(i+pi(eta))^-1``, so
    with distinct generators

        iota(i) + pi(eta omega_i) = iota(i + pi(eta))      (mod d)

    Hence ``(eta, i) -> (phi(eta), i + pi(eta))`` commutes with rotation
    and with dart reversal and is a map automorphism.  As ``Omega``
    generates ``G`` the map is regular, and ``phi`` satisfies the skew law
    for all ``|G|^2`` pairs (Jajcay and Siran, Skew-morphisms of regular
    Cayley maps, Discrete Math. 2002).  A failure names a dart
    ``(eta, omega_i)`` at which the law fails.
    """
    G = cmap.group
    N = G.order
    d = cmap.d
    phi = _as_perm_array(G, phi)
    ident = G.encode(G.identity())
    if int(phi[ident]) != ident:
        raise MapError("candidate does not fix the identity")
    if np.bincount(phi, minlength=N).max() != 1:
        raise MapError("candidate is not a bijection")
    expected = cmap.omega_idx[(np.arange(d) + 1) % d]
    if not np.array_equal(phi[cmap.omega_idx], expected):
        raise MapError("candidate does not restrict to rho on the generators")

    pi = power_function_probe(cmap, phi)
    bad = np.flatnonzero(pi == 0)
    if bad.size:
        eta = G.decode(int(bad[0]))
        return SkewFailure(eta, cmap.omega[0], "phi(eta * mu0) is not phi(eta) * (generator)")

    block = max(1, (1 << 16) // d)  # rows per block; small blocks stay in cache
    for k in np.unique(pi):
        cols = (np.arange(d) + k) % d  # i + pi(eta) on the rows with pi(eta) = k
        rows = np.flatnonzero(pi == k)
        for start in range(0, rows.size, block):
            etas = rows[start : start + block]
            heads = G.mul_vec_outer(etas, cmap.omega_idx)
            lhs = phi[heads]
            rhs = G.mul_vec_outer(phi[etas], cmap.omega_idx[cols])
            if not np.array_equal(lhs, rhs):
                at = np.argwhere(lhs != rhs)[0]
                return SkewFailure(
                    G.decode(int(etas[at[0]])),
                    cmap.omega[int(at[1])],
                    "phi(eta * omega_i) is not phi(eta) * omega_(i+pi(eta))",
                )
    return SkewMorphism(cmap, phi, pi)


def power_function_probe(cmap: CayleyMap, phi: np.ndarray) -> np.ndarray:
    """``pi`` read off the probe ``mu0 = omega_1``, or 0 where the probe fails.

    With ``phi`` restricting to ``rho``, ``phi^k(omega_1) = omega_(1+k)``,
    so ``phi(eta omega_1) = phi(eta) omega_(1+k)`` pins the only exponent
    ``k`` in ``1..d`` that the skew law allows at ``eta``.
    """
    G = cmap.group
    probe = G.mul_vec(G.inv_vec(phi), phi[G.mul_vec(G.all_idx(), cmap.omega_idx[0])])
    pos = cmap._pos_of_idx[probe]
    return np.where(pos >= 1, pos, np.where(pos == 0, cmap.d, 0))


def _as_perm_array(G: Metacyclic, phi: "np.ndarray | dict") -> np.ndarray:
    if isinstance(phi, np.ndarray):
        return phi.astype(np.int64)
    out = np.full(G.order, -1, dtype=np.int64)
    for g, h in phi.items():
        out[G.encode(g)] = G.encode(h)
    if np.any(out < 0):
        raise MapError("phi table does not cover the group")
    return out


# -- t-balance ----------------------------------------------------------------


@dataclass(frozen=True)
class BalanceData:
    """Balance exponent ``t``, offset ``ell = iota(d)`` and type of the map.

    ``iota`` is the involution with ``omega_i^-1 = omega_iota(i)``; for a
    t-balanced map ``iota(i) = ell + t i (mod d)``.  Type II means
    ``gcd(t-1, d)`` divides ``ell`` (equivalently some generator is an
    involution); type I otherwise.
    """

    t: int
    ell: int
    map_type: str
    all_t: "tuple[int, ...]"
    d: int


def balance_data(cmap: CayleyMap) -> "Optional[BalanceData]":
    d = cmap.d
    iota0 = cmap.iota0
    arange = np.arange(d)
    shifted = (iota0 + 1) % d
    valid = [
        t
        for t in range(1, d + 1)
        if (t * t) % d == 1 % d and np.array_equal(shifted, iota0[(arange + t) % d])
    ]
    if not valid:
        return None
    if len(valid) > 1:
        raise VerificationError(f"multiple balance exponents {valid}: contradicts uniqueness")
    t = valid[0]
    ell = int(iota0[d - 1]) + 1
    if (t + 1) * ell % d:
        raise VerificationError("involution law (t+1) ell = 0 (mod d) fails")
    g = math.gcd(t - 1, d)
    has_involution = bool(np.any(iota0 == arange))
    map_type = "II" if ell % g == 0 else "I"
    if (map_type == "II") != has_involution:
        raise VerificationError("type classification disagrees with involution presence")
    return BalanceData(t, ell, map_type, tuple(valid), d)


def normalize_indexing(cmap: CayleyMap, bal: BalanceData) -> "tuple[CayleyMap, BalanceData, int]":
    """Rotate the indexing so ``ell`` becomes ``g/2`` (type I) or ``g`` (type II)."""
    g = math.gcd(bal.t - 1, bal.d)
    if bal.map_type == "I":
        if g % 2:
            raise VerificationError("type I map with odd gcd(t-1, d)")
        target = g // 2
    else:
        target = g
    for s in range(bal.d):
        rotated = cmap.rotate(s)
        b2 = balance_data(rotated)
        if b2 is not None and b2.t == bal.t and b2.ell == target:
            return rotated, b2, s
    raise VerificationError(f"no rotation reaches the normalized offset {target}")


# -- regularity by arc propagation ---------------------------------------------


def _propagate(cmap: CayleyMap, img0: int, shift0: int) -> "Optional[np.ndarray]":
    """Extend the arc assignment ``(1, omega_1) -> (img0, omega_(1+shift0))``.

    Propagates the unique candidate map automorphism breadth-first: a vertex
    carries its image and a label shift, and following an arc transports both
    (the reversed arc pins the shift at the far end).  Returns the vertex
    image array, or None at the first inconsistency.
    """
    G = cmap.group
    N, d = G.order, cmap.d
    omega_idx = cmap.omega_idx
    iota0 = cmap.iota0
    arange = np.arange(d)
    img = np.full(N, -1, dtype=np.int64)
    sh = np.full(N, -1, dtype=np.int64)
    e = G.encode(G.identity())
    img[e] = img0
    sh[e] = shift0
    queue = [e]
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
    if np.any(img < 0):
        return None  # unreachable for a generating set
    if np.bincount(img, minlength=N).max() != 1:
        return None
    return img


def is_regular(cmap: CayleyMap) -> "Optional[SkewMorphism]":
    """The skew-morphism extending ``rho``, if the map is regular."""
    img = _propagate(cmap, cmap.group.encode(cmap.group.identity()), 1)
    if img is None:
        return None
    res = check_skew(cmap, img)
    return res if isinstance(res, SkewMorphism) else None


def map_automorphism_count(cmap: CayleyMap) -> int:
    """Number of map automorphisms, counted arc image by arc image.

    This is the exhaustive stabilizer-style oracle: the map is regular if
    and only if the count equals the number of arcs ``|G| * d``.
    """
    count = 0
    for v in range(cmap.group.order):
        for s in range(cmap.d):
            if _propagate(cmap, v, s) is not None:
                count += 1
    return count


# -- isomorphism ---------------------------------------------------------------


def are_isomorphic(m1: CayleyMap, m2: CayleyMap) -> "Optional[np.ndarray]":
    """A group automorphism carrying one map to the other, or None.

    Both maps must live on the same group descriptor.  The certificate sends
    ``Omega_1`` onto ``Omega_2`` and intertwines the two rotations, i.e. its
    restriction maps the first generator cycle onto a rotation of the second.
    It is the first such automorphism in the order of ``autos.aut_group``.
    """
    if m1.group.order != m2.group.order:
        raise MapError("maps on groups of different order cannot be compared")
    if m1.group != m2.group:
        raise MapError("isomorphism search requires a common group descriptor")
    if m1.d != m2.d:
        return None
    b1, b2 = balance_data(m1), balance_data(m2)
    if b1 is not None and b2 is not None:
        if b1.t != b2.t or b1.map_type != b2.map_type:
            return None
    try:
        aut = autos.aut_group(m1.group)
    except autos.AutomorphismError:
        from . import brute

        perms = brute.automorphism_perms(m1.group)
        return next((p for p in perms if _intertwines(m1, m2, p)), None)
    rows, _ = isomorphisms(aut, [m1], [m2])[0]
    return autos.as_perm(aut[int(rows[0])]) if rows.size else None


def isomorphisms(
    aut: autos.AutGroup, sources: "list[CayleyMap]", targets: "list[CayleyMap]"
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """For each source map, every automorphism that carries it onto a target.

    Returns one ``(rows, target)`` pair of arrays per source: row
    ``rows[h]`` of ``aut`` maps the source's generator cycle onto a rotation
    of the cycle of ``targets[target[h]]``; rows come in ascending order.
    All of ``Aut(G)`` is screened: the images of ``(omega_1, omega_2)`` are
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


def _intertwines(m1: CayleyMap, m2: CayleyMap, perm: np.ndarray) -> bool:
    p0 = int(m2._pos_of_idx[int(perm[m1.omega_idx[0]])])
    d = m1.d
    return p0 >= 0 and np.array_equal(perm[m1.omega_idx], m2.omega_idx[(np.arange(d) + p0) % d])


# -- quotient reduction ---------------------------------------------------------


@dataclass
class QuotientMapResult:
    cmap: CayleyMap
    skew: SkewMorphism
    balance: BalanceData
    presentation: QuotientPresentation


def quotient_map(cmap: CayleyMap, skew: SkewMorphism, xi: PowerSubgroup) -> QuotientMapResult:
    """Induced map on ``G / xi``; requires ``xi <= ker pi``, normal, phi-invariant."""
    G = cmap.group
    members = xi.member_idx()
    if not np.all(skew.pi[members] == 1):
        raise MapError("xi is not contained in the power-function kernel")
    if not xi.is_normal():
        raise MapError("xi is not normal")
    if set(skew.phi[members].tolist()) != set(members.tolist()):
        raise MapError("xi is not invariant under the skew-morphism")

    pres = quotient(G, xi)
    Q = pres.group
    proj = pres.project_vec(G.all_idx())
    proj_phi = proj[skew.phi]
    qphi = np.full(Q.order, -1, dtype=np.int64)
    qphi[proj] = proj_phi
    if not np.array_equal(qphi[proj], proj_phi):
        raise VerificationError("induced map on the quotient is not well-defined")

    proj_om = proj[cmap.omega_idx]
    d = cmap.d
    dq = next(
        p for p in range(1, d + 1) if d % p == 0 and np.array_equal(proj_om, np.roll(proj_om, -p))
    )
    q_omega_idx = proj_om[:dq]
    if len(set(q_omega_idx.tolist())) != dq:
        raise VerificationError("projected generator cycle has repeats inside one period")
    q_omega = [Q.decode(int(i)) for i in q_omega_idx]
    q_cmap = CayleyMap(Q, q_omega)

    res = check_skew(q_cmap, qphi)
    if not isinstance(res, SkewMorphism):
        raise VerificationError(f"quotient failed the skew check at ({res.eta}, {res.mu})")
    q_bal = balance_data(q_cmap)
    if q_bal is None:
        raise VerificationError("quotient map lost t-balance")
    parent_bal = balance_data(cmap)
    if parent_bal is not None:
        if (parent_bal.t - q_bal.t) % q_cmap.d:
            raise VerificationError("quotient balance exponent is not t mod the new valency")
        if parent_bal.map_type == "II" and q_bal.map_type != "II":
            raise VerificationError("type II did not descend to the quotient")
    return QuotientMapResult(q_cmap, res, q_bal, pres)


# -- generator-difference sequences ---------------------------------------------


@dataclass
class GeneratorOrbit:
    """The sequences ``eta_j = omega_j omega_(j-1)^-1`` and their partial data.

    On a map with kernel ``<a^2, b>`` each ``eta_j = a^(2 u_j) b^(v_j)`` and
    the products ``eta_i ... eta_1 = a^(2 f_i) b^(g_i)`` recover
    ``omega_i = (eta_i ... eta_1) omega_d``.  All stored sequences are
    one-based: entry ``j-1`` is the value at index ``j``.
    """

    eta: "tuple[GroupElement, ...]"
    u: "tuple[int, ...]"
    v: "tuple[int, ...]"
    f: "tuple[int, ...]"
    g: "tuple[int, ...]"


def generator_orbit(cmap: CayleyMap, skew: SkewMorphism, bal: BalanceData) -> GeneratorOrbit:
    G = cmap.group
    d = cmap.d
    n_half, m = G.n // 2, G.m
    etas = []
    for j in range(1, d + 1):
        w_j = cmap.omega_at(j)
        w_prev = cmap.omega_at(j - 1)
        eta = G.mul(w_j, G.inv(w_prev))
        # the inverse identity: omega_(j-1)^-1 = omega_(ell + t(j-1))
        alt = G.mul(w_j, cmap.omega_at(bal.ell + bal.t * (j - 1)))
        if eta != alt:
            raise VerificationError(f"inverse bookkeeping fails at j={j}")
        if skew.pi_of(eta) != 1:
            raise VerificationError(f"eta_{j} is outside the power-function kernel")
        if eta.x % 2:
            raise VerificationError(f"eta_{j} has odd a-exponent; kernel is not <a^2, b>")
        etas.append(eta)
    for j in range(d):
        if skew.apply(etas[j]) != etas[(j + 1) % d]:
            raise VerificationError(f"phi(eta_{j + 1}) != eta_{j + 2}")

    u = tuple(e.x // 2 for e in etas)
    v = tuple(e.y for e in etas)
    f, g = [], []
    prod = G.identity()
    w_d_inv = G.inv(cmap.omega_at(0))
    for j in range(1, d + 1):
        prod = G.mul(etas[j - 1], prod)
        if prod != G.mul(cmap.omega_at(j), w_d_inv):
            raise VerificationError(f"prefix product mismatch at i={j}")
        f.append(prod.x // 2)
        g.append(prod.y)
    # omega_d^-2 = eta_ell ... eta_1
    lhs = G.pow(w_d_inv, 2)
    rhs = G.el(2 * f[bal.ell - 1], g[bal.ell - 1])
    if lhs != rhs:
        raise VerificationError("omega_d^-2 != eta_ell ... eta_1")
    # closed forms for g_i and f_i
    for i in range(1, d + 1):
        if g[i - 1] != sum(v[:i]) % m:
            raise VerificationError(f"g_{i} disagrees with the v-sum")
        acc = 0
        for j in range(1, i + 1):
            acc += pow(G.r, (g[i - 1] - g[j - 1]) % m, n_half) * u[j - 1]
        if (acc - f[i - 1]) % n_half:
            raise VerificationError(f"f_{i} disagrees with the twisted u-sum")
    return GeneratorOrbit(tuple(etas), u, v, tuple(f), tuple(g))


def verify_inverse_conditions(
    cmap: CayleyMap, orbit: GeneratorOrbit, bal: BalanceData, u_tilde: int
) -> None:
    """The coordinate form of ``omega_(ell+ti) = omega_i^-1`` for every ``i``.

    Requires the base generator ``omega_d = a^u_tilde b``.  Checks, for all i,

    * ``g_(ell+ti) + g_i + 2 = 0 (mod m)``
    * ``f_(ell+ti) + r^-(g_i+1) f_i + (r^(g_(ell+ti)) + r^-1)/2 * u_tilde = 0 (mod n/2)``
    """
    G = cmap.group
    n, n_half, m = G.n, G.n // 2, G.m
    d = cmap.d
    w_d = cmap.omega_at(0)
    if w_d.y != 1 or w_d.x != u_tilde % n:
        raise VerificationError(f"base generator {w_d} is not a^{u_tilde} b")
    r_inv = pow(G.r, -1, n)
    for i in range(1, d + 1):
        idx = ((bal.ell + bal.t * i - 1) % d) + 1
        if (orbit.g[idx - 1] + orbit.g[i - 1] + 2) % m:
            raise VerificationError(f"offset-sum condition fails at i={i}")
        half = (pow(G.r, orbit.g[idx - 1], n) + r_inv) % n
        if half % 2:
            raise VerificationError("odd numerator in the halved coefficient")
        term = (
            orbit.f[idx - 1]
            + pow(r_inv, (orbit.g[i - 1] + 1) % m if m > 1 else 0, n_half) * orbit.f[i - 1]
            + (half // 2) * u_tilde
        )
        if term % n_half:
            raise VerificationError(f"twisted-sum condition fails at i={i}")


# -- abelian quotient profile ----------------------------------------------------


@dataclass(frozen=True)
class AbelianRbcmProfile:
    """Structure constants of a rank-2 abelian quotient map.

    ``theta_j = mu_j - mu_(j-1)`` are consecutive generator differences;
    the kernel decomposes as ``Z_(2^k') x Z_(2^k)`` with ``theta_1`` of full
    order and ``(theta_1, theta_1 + theta_2)`` an adapted basis.
    """

    k_prime: int
    k: int
    theta1: GroupElement
    theta2: GroupElement
    valency: int
    t: int
    map_type: str


def abelian_profile_check(qres: QuotientMapResult) -> AbelianRbcmProfile:
    Q = qres.cmap.group
    if not Q.is_abelian:
        raise VerificationError("profile check needs an abelian quotient")
    if Q.n < 2 or Q.m < 2:
        raise VerificationError("quotient group does not have rank 2")
    kernel = np.flatnonzero(qres.skew.kernel_mask())
    if kernel.size * 2 != Q.order:
        raise VerificationError("power-function kernel does not have index 2")
    orders = np.array([Q.element_order(Q.decode(int(i))) for i in kernel])
    if int(np.count_nonzero(orders <= 2)) != 4:
        raise VerificationError("kernel does not have rank 2")
    k_prime = int(orders.max()).bit_length() - 1
    k = kernel.size.bit_length() - 1 - k_prime
    if k_prime < k:
        raise VerificationError("kernel exponent smaller than its complement")

    theta1 = Q.mul(qres.cmap.omega_at(1), Q.inv(qres.cmap.omega_at(0)))
    theta2 = Q.mul(qres.cmap.omega_at(2), Q.inv(qres.cmap.omega_at(1)))
    s12 = Q.mul(theta1, theta2)
    d12 = Q.mul(theta1, Q.inv(theta2))
    if Q.element_order(theta1) != 1 << k_prime:
        raise VerificationError("theta_1 does not have full kernel order")
    if Q.element_order(s12) != 1 << k:
        raise VerificationError("theta_1 + theta_2 does not have order 2^k")
    if Q.element_order(d12) != 1 << max(k_prime - 1, k):
        raise VerificationError("theta_1 - theta_2 has the wrong order")
    span = Q.closure_idx([Q.encode(theta1), Q.encode(s12)])
    if span.size != kernel.size or set(span.tolist()) != set(kernel.tolist()):
        raise VerificationError("(theta_1, theta_1 + theta_2) is not a kernel basis")

    if qres.balance.map_type != "I":
        raise VerificationError("abelian quotient map must have type I")
    if qres.cmap.d != 1 << (k + 1):
        raise VerificationError(f"valency {qres.cmap.d} != 2^(k+1) = {1 << (k + 1)}")
    if (qres.balance.t + 1) % qres.cmap.d:
        raise VerificationError("valency does not divide t + 1")
    phi = qres.skew.phi
    if not np.array_equal(phi[phi[kernel]], kernel):
        raise VerificationError("restricted skew-morphism is not an involution")
    return AbelianRbcmProfile(
        k_prime, k, theta1, theta2, qres.cmap.d, qres.balance.t, qres.balance.map_type
    )


# -- genus ---------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingData:
    vertices: int
    edges: int
    faces: int
    genus: int


def genus(cmap: CayleyMap) -> EmbeddingData:
    """Face count in closed form and the genus from V - E + F = 2 - 2g.

    Convention: the successor of arc ``(v, omega_i)`` in its face is the
    rotation successor of the reversed arc, ``(v omega_i, omega_sigma(i))``
    with ``sigma(i) = iota(i) + 1``.  The labels of a face walk a cycle
    ``C`` of ``sigma`` while the vertex is multiplied by
    ``prod_(j in C) omega_j``, so ``C`` carries ``|G| / ord(prod)`` faces
    (Richter, Siran, Jajcay, Tucker and Watkins, Cayley maps, JCTB 2005).
    The mirror convention ``sigma(i) = iota(i) - 1`` must give the same
    genus, and this is asserted.
    """
    faces = _closed_form_faces(cmap, +1)
    faces_mirror = _closed_form_faces(cmap, -1)
    if faces != faces_mirror:
        raise VerificationError("face count depends on the orientation")
    V = cmap.group.order
    E = V * cmap.d // 2
    chi = V - E + faces
    if chi % 2:
        raise VerificationError("odd Euler characteristic on an oriented surface")
    g = (2 - chi) // 2
    if g < 0:
        raise VerificationError("negative genus")
    return EmbeddingData(V, E, faces, g)


def _closed_form_faces(cmap: CayleyMap, direction: int) -> int:
    G = cmap.group
    faces = 0
    for cycle in perm_cycles((cmap.iota0 + direction) % cmap.d):
        prod = G.identity()
        for j in cycle:
            prod = G.mul(prod, cmap.omega[j])
        faces += G.order // G.element_order(prod)
    return faces


def orbit_walk(perm: np.ndarray, seed: int) -> "Optional[list[int]]":
    """``perm(seed), perm^2(seed), ..., seed``, or None if the walk does not return to ``seed``."""
    out = []
    cur = int(perm[seed])
    while cur != seed:
        out.append(cur)
        if len(out) >= perm.size:
            return None
        cur = int(perm[cur])
    out.append(seed)
    return out


def perm_cycles(perm: np.ndarray) -> "list[list[int]]":
    """The cycles of a permutation array, each from its least point."""
    seen = bytearray(perm.size)
    cycles = []
    for s in range(perm.size):
        if not seen[s]:
            walk = orbit_walk(perm, s)
            cycle = walk[-1:] + walk[:-1]
            for v in cycle:
                seen[v] = 1
            cycles.append(cycle)
    return cycles


# -- JSON serialization -----------------------------------------------------------


def map_to_json_dict(cmap: CayleyMap, skew: "Optional[SkewMorphism]" = None) -> dict:
    doc = {
        "group": str(cmap.group),
        "omega": [[w.x, w.y] for w in cmap.omega],
    }
    if skew is not None:
        doc["skew"] = skew.to_json_dict()
    return doc


def map_from_json_dict(doc: dict) -> "tuple[CayleyMap, Optional[np.ndarray], Optional[np.ndarray]]":
    """Parse a map document; returns (map, phi array or None, pi array or None)."""
    try:
        group = parse_group(doc["group"])
        omega = [group.el(int(x), int(y)) for x, y in doc["omega"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MapError(f"malformed map document: {exc}") from exc
    cmap = CayleyMap(group, omega)
    phi_arr = pi_arr = None
    if "skew" in doc:
        try:
            phi_table = doc["skew"]["phi"]
            pi_table = doc["skew"]["pi"]
        except (KeyError, TypeError) as exc:
            raise MapError(f"malformed skew table: {exc}") from exc
        phi_arr = np.full(group.order, -1, dtype=np.int64)
        pi_arr = np.full(group.order, -1, dtype=np.int64)
        for key, val in phi_table.items():
            phi_arr[group.encode(parse_element(group, key))] = group.encode(
                parse_element(group, val)
            )
        for key, val in pi_table.items():
            pi_arr[group.encode(parse_element(group, key))] = int(val)
        if np.any(phi_arr < 0) or np.any(pi_arr < 0):
            raise MapError("skew tables do not cover the group")
    return cmap, phi_arr, pi_arr


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
