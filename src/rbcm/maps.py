"""Cayley maps, skew-morphisms, t-balance, quotient reduction and genus.

A Cayley map ``CM(G, Omega, rho)`` is the embedding of the Cayley graph
``Cay(G, Omega)`` into the oriented surface obtained by using the cyclic
order ``rho`` of ``Omega`` as the rotation at every vertex.  Here ``Omega``
is stored as the encoded array ``(omega_1, ..., omega_d)`` and ``rho`` is
the shift by one position.  Elements are written ``a^x b^y`` only in map
documents and in the witnesses of a ``SkewFailure``.

Regularity is witnessed by a skew-morphism: a bijection ``phi`` of ``G``
fixing the identity, restricting to ``rho`` on ``Omega``, and satisfying

    phi(eta * mu) = phi(eta) * phi^pi(eta)(mu)      for all eta, mu

for a power function ``pi: G -> {1, ..., d}``.  t-balance means
``rho(w^-1) = (rho^t(w))^-1`` for all generators, with ``t^2 = 1 (mod d)``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

from . import autos
from .groups import (
    GroupElement,
    IndexTwoPresentation,
    Metacyclic,
    PowerSubgroup,
    QuotientPresentation,
    format_element,
    parse_element,
    parse_group,
    quotient,
)


class MapError(ValueError):
    """Invalid Cayley map data."""


class VerificationError(AssertionError):
    """A machine check that must hold for verified objects failed."""


class CayleyMap:
    """``CM(group, Omega, rho)`` with ``rho`` the shift along the cycle ``Omega``.

    ``omega_idx`` holds ``(omega_1, .., omega_d)`` as the codes ``x*m + y``;
    the map keeps no other copy of its generators.  The constructor
    validates it: integral codes in ``[0, |G|)``, distinct, no identity,
    closed under inverses, and generating the group (``MapError``
    otherwise).  Generation is certified in closed form
    (``Metacyclic.generates``: parity vectors spanning ``G/Phi(G)``) on
    2-groups, and by ``closure_idx`` on other groups.
    """

    def __init__(self, group: Metacyclic, omega_idx: "list[int] | np.ndarray"):
        self.group = group
        codes = np.asarray(omega_idx)
        if codes.size == 0:
            raise MapError("generating sequence is empty")
        if codes.ndim != 1 or not np.issubdtype(codes.dtype, np.integer):
            raise MapError("generators must be a sequence of integer codes")
        if codes.min() < 0 or codes.max() >= group.order:
            raise MapError(f"generator codes must lie in [0, {group.order})")
        self.omega_idx = codes.astype(np.int64)
        self.d = codes.size
        self._pos_of_idx = np.full(group.order, -1, dtype=np.int64)
        self._pos_of_idx[self.omega_idx] = np.arange(self.d)
        inv_idx = group.inv_vec(self.omega_idx)
        self.iota0 = self._pos_of_idx[inv_idx]  # 0-based position of each inverse
        if len(set(self.omega_idx.tolist())) != self.d:
            raise MapError("generators are not distinct")
        if np.any(self.omega_idx == 0):
            raise MapError("identity cannot be a generator")
        if np.any(self.iota0 < 0):
            missing = group.decode(self.omega_idx[np.flatnonzero(self.iota0 < 0)[0]])
            raise MapError(f"not closed under inverses: {missing}^-1 is missing")
        if not group.generates(self.omega_idx):
            raise MapError("generators do not generate the group")

    def rotate(self, shift: int) -> "CayleyMap":
        """Same map with the indexing rotated: new ``omega_i = old omega_(i+shift)``."""
        return CayleyMap(self.group, np.roll(self.omega_idx, -shift))

    def __repr__(self) -> str:
        return f"CayleyMap({self.group}, d={self.d})"


# -- skew-morphisms -----------------------------------------------------------


@dataclass(frozen=True)
class SkewFailure:
    """Why a candidate is not a skew-morphism of the map, with a witness pair."""

    eta: GroupElement
    mu: GroupElement
    detail: str

    def __bool__(self) -> bool:
        return False


class SkewMorphism:
    """A verified skew-morphism: permutation ``phi`` plus power function ``pi``."""

    #: every certificate proves the law on all pairs: the rule-form reduction
    #: to ``<a^2, b>`` of ``check_skew_by_rule`` (the one ``realize`` runs),
    #: the darts of ``check_skew`` and the arc propagation of ``is_regular``
    pair_mode = "exhaustive"

    def __init__(self, cmap: CayleyMap, phi: np.ndarray, pi: np.ndarray):
        self.cmap = cmap
        self.group = cmap.group
        self.phi = phi
        self.pi = pi

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


def check_skew(cmap: CayleyMap, phi: np.ndarray) -> "SkewMorphism | SkewFailure":
    """Verify a candidate ``phi`` (an encoded index array) and derive its power function.

    A candidate that does not fix the identity or does not restrict to
    ``rho`` on ``Omega`` fails with the element at fault and its image; one
    that is not a bijection fails with two elements of the same image.
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
    d = cmap.d
    phi = phi.astype(np.int64)
    failure = _table_failure(cmap, phi)
    if failure is not None:
        return failure

    pi = power_function_probe(cmap, phi)
    bad = np.flatnonzero(pi == 0)
    if bad.size:
        return _probe_failure(cmap, int(bad[0]), "phi(eta * mu0) is not phi(eta) * (generator)")

    block = max(1, (1 << 16) // d)  # rows per block; small blocks stay in cache
    for k in np.flatnonzero(np.bincount(pi)):  # the values pi takes
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
                    G.decode(cmap.omega_idx[at[1]]),
                    "phi(eta * omega_i) is not phi(eta) * omega_(i+pi(eta))",
                )
    return SkewMorphism(cmap, phi, pi)


def _table_failure(cmap: CayleyMap, phi: np.ndarray) -> "Optional[SkewFailure]":
    """The first table defect, or None: ``phi`` moves the identity (witness:
    the identity and its image), is not a bijection (two elements of one
    image) or is not ``rho`` on ``Omega`` (the generator and its image)."""
    G = cmap.group
    d = cmap.d
    ident = G.encode(G.identity())
    if int(phi[ident]) != ident:
        return SkewFailure(G.identity(), G.decode(int(phi[ident])), "phi does not fix the identity")
    if np.bincount(phi, minlength=G.order).max() != 1:
        eta, mu = np.flatnonzero(phi == np.argmax(np.bincount(phi)))[:2]
        return SkewFailure(G.decode(int(eta)), G.decode(int(mu)), "phi is not a bijection")
    expected = cmap.omega_idx[(np.arange(d) + 1) % d]
    off = np.flatnonzero(phi[cmap.omega_idx] != expected)
    if off.size:
        w = int(cmap.omega_idx[off[0]])
        detail = "phi does not restrict to rho on Omega"
        return SkewFailure(G.decode(w), G.decode(int(phi[w])), detail)
    return None


def _probe_failure(cmap: CayleyMap, eta: int, detail: str) -> SkewFailure:
    """A failure witnessed by ``eta`` and the probe ``mu0 = omega_1``."""
    return SkewFailure(cmap.group.decode(eta), cmap.group.decode(int(cmap.omega_idx[0])), detail)


@dataclass(frozen=True)
class CosetRule:
    """A candidate skew-morphism of ``G = L(n, m; r)``, ``n`` even, in rule form.

    On ``K = <a^2, b>`` it is ``theta``, an automorphism of the standalone
    ``pres.group`` carried into ``G`` by the inclusion; on the other coset
    it sends ``h omega_d`` to ``theta(h) omega_1``.  Each value is evaluated
    from the rule by ``autos.image`` in ``O(log n)`` integer steps, so the
    rule holds no ``|G|``-sized table.  The constructor checks (R1),
    ``autos.validate`` of ``theta`` (``AutomorphismError``), and that
    ``omega_d`` and ``omega_1`` lie off ``K`` (``MapError``).  So ``phi``
    fixes the identity and is a bijection: ``theta`` permutes ``K``, and
    ``h omega_d -> theta(h) omega_1`` carries the other coset onto itself.
    """

    pres: IndexTwoPresentation
    theta: autos.AutoParams
    omega_d: int
    omega_1: int

    def __post_init__(self) -> None:
        report = autos.validate(self.theta)
        if not report:
            raise autos.AutomorphismError(
                f"{self.theta} is not an automorphism: {'; '.join(report.violations)}"
            )
        m = self.pres.parent.m
        if self.omega_d // m % 2 == 0 or self.omega_1 // m % 2 == 0:
            raise MapError("omega_d and omega_1 must lie off <a^2, b>")

    def __call__(self, g: int) -> int:
        """``phi(g)`` for the code ``g``."""
        G = self.pres.parent
        if g // G.m % 2 == 0:
            return self._theta(g)
        return int(G.mul_vec(self._theta(int(G.mul_vec(g, self._omega_d_inv))), self.omega_1))

    def _theta(self, h: int) -> int:
        m = self.pres.parent.m
        return int(self.pres.include_vec(autos.image(self.theta, h // m // 2 * m + h % m)))

    @cached_property
    def _omega_d_inv(self) -> int:
        return int(self.pres.parent.inv_vec(self.omega_d))

    @cached_property
    def cycle(self) -> "list[int]":
        """``(omega_1, ..., omega_d)``, the orbit of ``omega_d`` walked by the rule.

        ``phi`` is a bijection, so the walk returns to ``omega_d``.
        """
        out = [self.omega_1]
        while out[-1] != self.omega_d:
            out.append(self(out[-1]))
        return out


def check_skew_by_rule(cmap: CayleyMap, rule: CosetRule) -> "int | SkewFailure":
    """Verify a rule-form ``phi`` on all ``|G|^2`` pairs in ``O(d)`` rule evaluations.

    ``cmap`` must be the map of ``rule.cycle`` (``MapError`` otherwise), so
    ``Omega`` is the orbit of ``omega_d`` and ``phi`` restricts to ``rho``
    on it.  Returns ``t = pi(omega_d)``, with ``pi`` 1 on ``K = <a^2, b>``
    and ``t`` off it, or the failure.  What ``check_skew``'s table checks
    and the ``omega_1`` probe establish on a table holds here by
    construction (``CosetRule``): ``phi`` fixes the identity and is a
    bijection, (R1) ``theta`` is an automorphism of ``K``, and the coset
    rule ``phi(h omega_d) = theta(h) omega_1`` gives ``pi = 1`` on ``K``.
    With ``omega_d = omega_0``:

    * ``t = pi(omega_d)``: ``omega_d omega_1`` lies in ``K``, so the law at
      ``(omega_d, omega_1)`` reads ``theta(omega_d omega_1) = omega_1
      omega_(t+1)``, which pins ``t`` as a position on the cycle.  The
      position exists: with ``omega_1^-1 = omega_p``, the rule at
      ``omega_p`` and (R1) give ``theta(omega_d omega_1) = omega_1
      omega_(p+1)^-1``, and ``Omega`` is closed under inverses;
    * it checks (R2) ``theta(omega_d s omega_d^-1) = omega_1 theta^t(s)
      omega_1^-1`` for ``s`` in ``{a^2, b}``, by ``t`` steps of ``theta``.

    These prove the law on all pairs with that ``pi``.  By (R1) every
    ``omega_i = phi^i(omega_d)`` lies off ``K``, and ``pi = 1`` on ``K``
    is (R1) with the coset rule; so ``phi^k(h omega_d) = theta^k(h)
    omega_k``.  For ``eta = g omega_d`` and ``mu`` in ``K`` the law is
    ``theta(omega_d mu omega_d^-1) = omega_1 theta^t(mu) omega_1^-1``: two
    homomorphisms on ``K`` that (R2) equates on its generators.  The law at
    ``(omega_d, omega_1)``, rewritten by (R2), gives (R3) ``theta(omega_d^2)
    = omega_1 omega_t``, and with it the law for ``mu = h omega_d``:
    ``theta(g) theta(omega_d h omega_d^-1) theta(omega_d^2) = theta(g)
    omega_1 theta^t(h) omega_t``.  (Jajcay and Siran, Skew-morphisms of
    regular Cayley maps, Discrete Math. 2002; Conder, Jajcay and Tucker,
    Regular t-balanced Cayley maps, JCTB 2007.)  A failure has the witness
    of the table certificate, ``(omega_d, s)`` where (R2) fails.
    """
    G = cmap.group
    if cmap.omega_idx.tolist() != rule.cycle:
        raise MapError("the map's cycle is not the orbit of omega_d under the rule")
    w1, wd = rule.omega_1, rule.omega_d
    probe = G.mul_vec(G.inv_vec(w1), rule(int(G.mul_vec(wd, w1))))
    t = int(cmap._pos_of_idx[probe]) or cmap.d
    for s in (G.code(2, 0), G.code(0, 1)):
        powered = s
        for _ in range(t):
            powered = rule(powered)
        lhs = rule(int(G.mul_vec(G.mul_vec(wd, s), rule._omega_d_inv)))
        if lhs != int(G.mul_vec(G.mul_vec(w1, powered), G.inv_vec(w1))):
            detail = "phi(omega_d s omega_d^-1) is not omega_1 phi^t(s) omega_1^-1"
            return SkewFailure(G.decode(wd), G.decode(s), detail)
    return t


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
    d: int


def balance_data(cmap: CayleyMap) -> "Optional[BalanceData]":
    """The map's balance data, or None if it is not t-balanced.

    Balance is ``iota(i + t) = iota(i) + 1`` for all ``i``.  As ``iota`` is
    an involution, ``i = 0`` gives ``t = iota(iota(0) + 1)``: the only
    candidate, checked on the whole cycle.
    """
    d = cmap.d
    iota0 = cmap.iota0
    arange = np.arange(d)
    t = int(iota0[(iota0[0] + 1) % d]) or d
    if (t * t) % d != 1 % d or not np.array_equal((iota0 + 1) % d, iota0[(arange + t) % d]):
        return None
    ell = int(iota0[d - 1]) + 1
    if (t + 1) * ell % d:
        raise VerificationError("involution law (t+1) ell = 0 (mod d) fails")
    g = math.gcd(t - 1, d)
    has_involution = bool(np.any(iota0 == arange))
    map_type = "II" if ell % g == 0 else "I"
    if (map_type == "II") != has_involution:
        raise VerificationError("type classification disagrees with involution presence")
    return BalanceData(t, ell, map_type, d)


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

#: darts in one step of ``_propagate``, and vertices in one block of its
#: rows: the bound on a step's temporaries.  At ``2^16`` the exhaustive
#: enumeration of ``L(16,2,7)`` peaked 10 MB higher than at ``2^12``.
STEP_DARTS = 1 << 12


def _propagate(
    G: Metacyclic, omega: np.ndarray, iota0: np.ndarray, img0: np.ndarray, shift0: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Extend the arc assignment ``(1, omega_1) -> (img0, omega_(1+shift0))`` of every row.

    Row ``k`` is a generator cycle ``omega[k]`` of valency ``d`` (distinct
    codes, closed under inverses, ``iota0[k]`` the 0-based position of each
    inverse) with a starting arc image ``(img0[k], shift0[k])``.  Each row
    propagates its unique candidate map automorphism: a vertex carries its
    image and a label shift, and the dart ``(v, i)`` from ``v`` along
    ``omega_i`` sends ``v omega_i`` to ``img(v) omega_(i+sh(v))`` with the
    shift ``iota(i+sh(v)) - iota(i)`` (the reversed dart pins it).

    The rows advance level-synchronously: a step expands the breadth-first
    frontier of every live row, at most ``STEP_DARTS`` darts at a time.  A
    dart whose head is already known is compared with the head's image;
    the arrivals at a fresh head are compared among themselves, and the
    first one assigns its image and shift.  A row drops out at its first
    inconsistency, and at the end unless it reached every vertex
    (unreachable for a generating set) with a bijection.

    So every dart of every vertex is compared with the one image its head
    ends with: the checks of a walk that expands one vertex at a time, in
    any order.  Either passes exactly when ``img(v omega_i) = img(v)
    omega_(i+sh(v))`` holds on every dart.  Then, by the reversal argument
    in ``check_skew``'s docstring (distinct generators), every dart into a
    vertex gives it the same shift, so the order of expansion changes
    neither image nor shift: a passing row is the map automorphism fixed by
    the image of one arc, the same as the sequential walk's.

    Returns ``(ok, img, sh)``: the verdict of each row, and the ``(rows,
    |G|)`` vertex images and label shifts, meaningful where ``ok``.
    """
    R, d = omega.shape
    N = G.order
    img = np.full((R, N), -1, dtype=np.int64)
    sh = np.full((R, N), -1, dtype=np.int64)
    img[:, 0] = img0  # the identity is code 0
    sh[:, 0] = shift0
    flat_img, flat_sh = img.reshape(-1), sh.reshape(-1)
    ok = np.ones(R, dtype=bool)
    frontier = np.arange(R, dtype=np.int64) * N  # flat index row * N + vertex
    arange = np.arange(d)
    width = max(1, STEP_DARTS // d)
    while frontier.size:
        arrivals = []
        for start in range(0, frontier.size, width):
            f = frontier[start : start + width]
            f = f[ok[f // N]]
            if not f.size:
                continue
            rows = f // N
            base = rows * N
            om, io = omega[rows], iota0[rows]
            rotated = (arange + flat_sh[f][:, None]) % d
            heads = (G.mul_vec((f - base)[:, None], om) + base[:, None]).ravel()
            images = G.mul_vec(flat_img[f][:, None], np.take_along_axis(om, rotated, 1)).ravel()
            shifts = ((np.take_along_axis(io, rotated, 1) - io) % d).ravel()
            known = flat_img[heads]
            seen = known >= 0
            ok[heads[seen & (known != images)] // N] = False
            heads, images, shifts = heads[~seen], images[~seen], shifts[~seen]
            order = np.argsort(heads, kind="stable")  # arrivals at one head, first one first
            heads, images, shifts = heads[order], images[order], shifts[order]
            lead = np.ones(heads.size, dtype=bool)
            lead[1:] = heads[1:] != heads[:-1]
            first = np.flatnonzero(lead)
            ok[heads[images != images[first][np.cumsum(lead) - 1]] // N] = False
            flat_img[heads[first]] = images[first]
            flat_sh[heads[first]] = shifts[first]
            arrivals.append(heads[first])
        frontier = np.concatenate(arrivals) if arrivals else frontier[:0]
    ok &= np.all(img >= 0, axis=1)
    ok[ok] = np.all(np.diff(np.sort(img[ok], axis=1), axis=1) > 0, axis=1)
    return ok, img, sh


def _propagated_skew(cmap: CayleyMap, img: np.ndarray, sh: np.ndarray) -> SkewMorphism:
    """A passing propagation as a skew-morphism: the label shifts are ``pi`` mod ``d``."""
    return SkewMorphism(cmap, img, np.where(sh == 0, cmap.d, sh))


def is_regular(cmap: CayleyMap) -> "Optional[SkewMorphism]":
    """The skew-morphism extending ``rho``, if the map is regular.

    A successful propagation is itself the certificate: it is a map
    automorphism sending the arc ``(1, omega_1)`` to ``(1, omega_2)``, so its
    vertex images fix the identity, restrict to ``rho`` and satisfy
    ``phi(eta omega_i) = phi(eta) omega_(i+pi(eta))`` on every dart, which
    is the dart certificate of ``check_skew``.  So the label shift of each
    vertex is its ``pi`` modulo ``d``.
    """
    one = np.ones(1, dtype=np.int64)
    ok, img, sh = _propagate(cmap.group, cmap.omega_idx[None], cmap.iota0[None], one - 1, one)
    return _propagated_skew(cmap, img[0], sh[0]) if ok[0] else None


def regular_orderings(G: Metacyclic, orderings: "Iterable[list[int]]") -> "Iterator[SkewMorphism]":
    """The skew-morphisms of the regular maps among ``orderings``, in their order.

    All orderings must have one length, and each must pass ``CayleyMap``'s
    checks.  They propagate together, ``STEP_DARTS // |G|`` rows at a time,
    and a ``CayleyMap`` is built only for a row that passes.
    """
    rows = max(1, STEP_DARTS // G.order)
    orderings = iter(orderings)
    while block := list(itertools.islice(orderings, rows)):
        cycles = np.array(block, dtype=np.int64)
        R, d = cycles.shape
        at = np.arange(R)[:, None]
        pos = np.zeros((R, G.order), dtype=np.int64)
        pos[at, cycles] = np.arange(d)
        one = np.ones(R, dtype=np.int64)
        ok, img, sh = _propagate(G, cycles, pos[at, G.inv_vec(cycles)], one - 1, one)
        for k in np.flatnonzero(ok):
            yield _propagated_skew(CayleyMap(G, cycles[k]), img[k].copy(), sh[k])


def map_automorphism_count(cmap: CayleyMap) -> int:
    """Number of map automorphisms, counted arc image by arc image.

    This is the exhaustive stabilizer-style oracle: the map is regular if
    and only if the count equals the number of arcs ``|G| * d``.  Every one
    of the ``|G| * d`` arc images is propagated, ``STEP_DARTS // |G|`` at a
    time.
    """
    G, d = cmap.group, cmap.d
    arcs = np.arange(G.order * d, dtype=np.int64)
    rows = max(1, STEP_DARTS // G.order)
    count = 0
    for start in range(0, arcs.size, rows):
        arc = arcs[start : start + rows]
        shape = (arc.size, d)
        ok, _, _ = _propagate(
            G, np.broadcast_to(cmap.omega_idx, shape), np.broadcast_to(cmap.iota0, shape),
            arc // d, arc % d,
        )
        count += int(np.count_nonzero(ok))
    return count


# -- isomorphism ---------------------------------------------------------------


def are_isomorphic(m1: CayleyMap, m2: CayleyMap) -> "Optional[np.ndarray]":
    """A group automorphism carrying one map to the other, or None.

    Both maps must live on the same group descriptor.  The certificate sends
    ``Omega_1`` onto ``Omega_2`` and intertwines the two rotations, i.e. its
    restriction maps the first generator cycle onto a rotation of the second.
    It is the lexicographically least ``sigma(x1,y1;x2,y2)`` that does so,
    the first in the order of ``autos.aut_group``.  Groups outside the
    parametrized family are searched over ``brute.automorphism_perms``.
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
        hits, _ = isomorphisms([m1], [m2])[0]
    except autos.AutomorphismError:
        from . import brute

        perms = brute.automorphism_perms(m1.group)
        return next((p for p in perms if _intertwines(m1, m2, p)), None)
    return autos.as_perm(hits[0]) if len(hits) else None


def isomorphisms(
    sources: "list[CayleyMap]", targets: "list[CayleyMap]"
) -> "list[tuple[autos.AutGroup, np.ndarray]]":
    """For each source map, every automorphism that carries it onto a target.

    Returns one ``(auts, target)`` pair per source: ``auts[h]`` maps the
    source's generator cycle onto a rotation of the cycle of
    ``targets[target[h]]``, in lexicographic ``(x1, y1, x2, y2)`` order
    (then by target).  Each hit is solved, not searched: an automorphism is
    fixed by the images of two generators whose parities span ``G/Phi(G)``
    (every generating cycle holds two, by the Burnside basis theorem), so
    each target of the same valency and each rotation ``p`` gives at most
    one candidate (``autos.solve``).  Every candidate that passes the
    family's constraints is verified on all ``d`` generators.  This is
    ``O(k^2 d)`` candidates for ``k`` maps of valency ``d``;
    ``AutomorphismError`` outside the parametrized family.
    """
    out = []
    for src in sources:
        G, w, d = src.group, src.omega_idx, src.d
        same = np.array([j for j, t in enumerate(targets) if t.d == d], dtype=np.int64)
        cycles = np.array([targets[j].omega_idx for j in same.tolist()], dtype=np.int64).reshape(-1, d)
        s1, s2 = _spanning_positions(G, w)
        rot = np.arange(d)
        auts, k = autos.solve(
            G, int(w[s1]), int(w[s2]),
            cycles[:, (rot + s1) % d].ravel(), cycles[:, (rot + s2) % d].ravel(),
        )
        j, p = k // d, k % d
        ok = np.ones(k.size, dtype=bool)
        for s in range(d):
            rows = np.flatnonzero(ok)
            ok[rows] = auts.images(int(w[s]), rows) == cycles[j[rows], (p[rows] + s) % d]
        cols = [c[ok] for c in (auts.x1, auts.y1, auts.x2, auts.y2)]
        order = np.lexsort([j[ok]] + cols[::-1])
        out.append((autos.AutGroup(G, *(c[order] for c in cols)), same[j[ok][order]]))
    return out


def _spanning_positions(G: Metacyclic, omega: np.ndarray) -> "tuple[int, int]":
    """Two positions of a generating cycle whose parities ``(x mod 2, y mod 2)``
    span ``G/Phi(G)``; on a cyclic group (``m = 1``) one position, twice."""
    parity = (omega // G.m % 2) * 2 + omega % G.m % 2
    s1 = int(np.argmax(parity != 0))
    s2 = s1 if G.m == 1 else int(np.argmax((parity != 0) & (parity != parity[s1])))
    return s1, s2


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
    q_cmap = CayleyMap(Q, q_omega_idx)

    res = check_skew(q_cmap, qphi)
    if not isinstance(res, SkewMorphism):
        raise VerificationError(
            f"quotient failed the skew check at ({res.eta}, {res.mu}): {res.detail}"
        )
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
    """The sequences ``eta_j = omega_j omega_(j-1)^-1`` and their prefix products.

    On a map with kernel ``<a^2, b>`` each ``eta_j = a^(2 u_j) b^(v_j)`` and
    the products ``prod_i = eta_i ... eta_1 = a^(2 f_i) b^(g_i)`` recover
    ``omega_i = prod_i omega_d``.  Both arrays are encoded and one-based:
    entry ``j-1`` is the value at index ``j``.
    """

    eta: np.ndarray
    prod: np.ndarray


def _first_failure(*checks: "tuple[np.ndarray, str]") -> None:
    """Raise at the least index where a check's boolean array is true, with the
    message (``{}`` for the one-based index) of the first check true there."""
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if np.any(failing):
        i = int(np.argmax(failing))
        what = next(what for bad, what in checks if bad[i])
        raise VerificationError(what.format(i + 1))


def generator_orbit(cmap: CayleyMap, skew: SkewMorphism, bal: BalanceData) -> GeneratorOrbit:
    G = cmap.group
    d = cmap.d
    n_half, m = G.n // 2, G.m
    w = cmap.omega_idx  # w[j-1] = omega_j, w[-1] = omega_d = omega_0
    eta = G.mul_vec(w, G.inv_vec(np.roll(w, 1)))
    # the inverse identity: omega_(j-1)^-1 = omega_(ell + t(j-1))
    alt = G.mul_vec(w, w[(bal.ell + bal.t * np.arange(d) - 1) % d])
    for test, what in (
        (eta != alt, "inverse bookkeeping fails"),
        (skew.pi[eta] != 1, "eta_j is outside the power-function kernel"),
        ((eta // m) % 2 == 1, "eta_j has odd a-exponent; kernel is not <a^2, b>"),
        (skew.phi[eta] != np.roll(eta, -1), "phi(eta_j) != eta_(j+1)"),
    ):
        if np.any(test):
            raise VerificationError(f"{what} at j={int(np.flatnonzero(test)[0]) + 1}")

    prod = G.mul_vec(w, G.inv_vec(w[-1]))  # omega_j omega_d^-1 = eta_j ... eta_1, telescoping
    # closed forms: g_i = v_1 + ... + v_i, and the twisted sum
    # f_i = r^(g_i) (r^(-g_1) u_1 + ... + r^(-g_i) u_i)  (mod n/2)
    u, v = eta // m // 2, eta % m
    f, g = prod // m // 2, prod % m
    rpow = G._rpow_table
    twisted = rpow[g] * (np.cumsum(rpow[-g % m] * u % n_half) % n_half)
    _first_failure(
        ((np.cumsum(v) - g) % m != 0, "g_{} disagrees with the v-sum"),
        ((twisted - f) % n_half != 0, "f_{} disagrees with the twisted u-sum"),
    )
    return GeneratorOrbit(eta, prod)


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
    w_d = int(cmap.omega_idx[-1])
    if w_d != G.code(u_tilde, 1):
        raise VerificationError(f"base generator {G.decode(w_d)} is not a^{u_tilde} b")
    f, g = orbit.prod // m // 2, orbit.prod % m
    at = (bal.ell + bal.t * np.arange(1, d + 1) - 1) % d  # ell + t i, zero-based
    rpow = G._rpow_table
    half = (rpow[g[at]] + pow(G.r, -1, n)) % n
    term = f[at] + rpow[-(g + 1) % m] % n_half * f + half // 2 * u_tilde
    _first_failure(
        ((g[at] + g + 2) % m != 0, "offset-sum condition fails at i={}"),
        (half % 2 == 1, "odd numerator in the halved coefficient"),
        (term % n_half != 0, "twisted-sum condition fails at i={}"),
    )


# -- abelian quotient profile ----------------------------------------------------


@dataclass(frozen=True)
class AbelianRbcmProfile:
    """Structure constants of a rank-2 abelian quotient map.

    ``theta_j = mu_j - mu_(j-1)`` are consecutive generator differences;
    the kernel decomposes as ``Z_(2^k') x Z_(2^k)`` with ``theta_1`` of full
    order and ``(theta_1, theta_1 + theta_2)`` an adapted basis.  ``theta1``
    and ``theta2`` are encoded.
    """

    k_prime: int
    k: int
    theta1: int
    theta2: int
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
    orders = _abelian_orders(Q, kernel)
    if int(np.count_nonzero(orders <= 2)) != 4:
        raise VerificationError("kernel does not have rank 2")
    k_prime = int(orders.max()).bit_length() - 1
    k = kernel.size.bit_length() - 1 - k_prime
    if k_prime < k:
        raise VerificationError("kernel exponent smaller than its complement")

    w = qres.cmap.omega_idx
    theta1, theta2 = (int(v) for v in Q.mul_vec(w[[0, 1 % w.size]], Q.inv_vec(w[[-1, 0]])))
    s12 = int(Q.mul_vec(theta1, theta2))
    d12 = Q.mul_vec(theta1, Q.inv_vec(theta2))
    o1, o_sum, o_diff = _abelian_orders(Q, np.array([theta1, s12, d12])).tolist()
    if o1 != 1 << k_prime:
        raise VerificationError("theta_1 does not have full kernel order")
    if o_sum != 1 << k:
        raise VerificationError("theta_1 + theta_2 does not have order 2^k")
    if o_diff != 1 << max(k_prime - 1, k):
        raise VerificationError("theta_1 - theta_2 has the wrong order")
    span = Q.closure_idx([theta1, s12])
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


def _abelian_orders(Q: Metacyclic, codes: np.ndarray) -> np.ndarray:
    """Orders ``lcm(n / gcd(x, n), m / gcd(y, m))`` in the abelian ``Q = Z_n x Z_m``."""
    x, y = np.divmod(codes, Q.m)
    return np.lcm(Q.n // np.gcd(x, Q.n), Q.m // np.gcd(y, Q.m))


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
        prod = 0  # the identity
        for j in cycle:
            prod = G.mul_vec(prod, cmap.omega_idx[j])
        faces += G.order // G.element_order(G.decode(prod))
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


def perm_order(perm: np.ndarray) -> int:
    """The order of a permutation array: the lcm of its cycle lengths."""
    return math.lcm(*(len(cycle) for cycle in perm_cycles(perm)))


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
        "omega": [[w.x, w.y] for w in map(cmap.group.decode, cmap.omega_idx)],
    }
    if skew is not None:
        doc["skew"] = skew.to_json_dict()
    return doc


def map_from_json_dict(doc: dict) -> "tuple[CayleyMap, Optional[np.ndarray], Optional[np.ndarray]]":
    """Parse a map document; returns (map, phi array or None, pi array or None)."""
    try:
        group = parse_group(doc["group"])
        omega_idx = [group.code(int(x), int(y)) for x, y in doc["omega"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MapError(f"malformed map document: {exc}") from exc
    cmap = CayleyMap(group, omega_idx)
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
