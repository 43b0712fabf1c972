"""Classification of regular t-balanced Cayley maps on ``D(a,b,c)``.

``D(a,b,c) = L(2^a, 2^b; 1+2^c)`` with ``max(2, a-b) <= c <= a-3`` and
``b != c``.  Maps exist only in the ``c > b`` branch; there they fall into
exactly ``2^(a-c-1)`` isomorphism classes, one per residue
``z = -1 + 2^(c-2) + 2^(c-1) z1`` with ``0 <= z1 < 2^(a-c-1)``.

Every class is realized explicitly: the skew-morphism restricts to the
index-2 subgroup ``<a^2, b>`` as ``sigma(z,1;0,w)`` with ``w = 1 - 2^(c-2)``,
the base generator is ``a^u~ b``, and the first generator difference is
``a^(2 u1) b^(v1)``.  The residues ``(u~, u1, v1)`` are pinned by three
congruences (written for ``l' = (l-1)/2``, ``s = z [z]_r``,
``u' = (z+1+2^(c-1)(u1+2v1+1)) u1`` and ``v' = u1 + (w+1) v1``):

  (C1)  l' v' + v1 + 2 = 0                                   (mod 2^b)
  (C2)  u1 + l' u' - l'(l'-1)(z+1)^2 + (1+2^(c-1)(v1-1)) u~ = 0   (mod 2^(a-1))
  (C3)  (s-1)(u'+1) - 2^(c-1) v' = 0                          (mod 2^(a-1))
  (C4)  deg2(t+1) >= a - c + 2

together with ``u~ = l (2 - (z^2-1)/2^(c-1)) - 4 (mod 2^(a-c))`` and
``0 < u~ < 2^(a-c)``.  The data ``(t, d, l)`` is not assumed: it is read
off the realized map and fed back until the residues are a fixed point.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autos, maps
from .groups import DeltaParams, GroupElement, GroupError, Metacyclic, PowerSubgroup, geom_table
from .maps import (
    AbelianRbcmProfile,
    BalanceData,
    CayleyMap,
    SkewMorphism,
    VerificationError,
)
from .twoadic import deg2, geom_sum_mod


class InternalInconsistency(AssertionError):
    """A derived identity failed: this falsifies the implementation, not the input."""


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the structural pre-checks for ``D(a,b,c)``."""

    a: int
    b: int
    c: int
    existence: bool
    reason: str
    constraints: "dict[str, object]"


def check_necessary(a: int, b: int, c: int) -> NecessaryReport:
    """Validate the descriptor and decide the existence branch (``c > b``)."""
    params = DeltaParams(a, b, c)  # raises GroupError quoting the violated inequality
    constraints = {
        "type": "I",
        "kernel": "<a^2, b>",
        "min_deg2_t_plus_1": max(b + 1, a - c + 2),
        "ell_normalized": "gcd(t-1, d) / 2",
        "class_count": (1 << (a - c - 1)) if c > b else 0,
    }
    if c > b:
        return NecessaryReport(a, b, c, True, "existence branch: c > b", constraints)
    return NecessaryReport(
        a, b, c, False, "no maps exist: c > b is required for existence", constraints
    )


@dataclass(frozen=True)
class ClassificationSolution:
    """One isomorphism class, as the residues that realize it."""

    a: int
    b: int
    c: int
    z1: int
    z: int
    w: int
    u_tilde: int
    u1: int
    v1: int
    s: int
    ell_prime: int
    t_prime: int
    t: int
    d: int
    ell: int

    def to_json_dict(self, verified: "Optional[bool]" = None, genus: "Optional[int]" = None) -> dict:
        doc = {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "z1": self.z1,
            "z": self.z,
            "w": self.w,
            "u_tilde": self.u_tilde,
            "u1": self.u1,
            "v1": self.v1,
            "t": self.t,
            "d": self.d,
            "ell": self.ell,
        }
        if verified is not None:
            doc["verified"] = verified
        if genus is not None:
            doc["genus"] = genus
        return doc


@dataclass
class RealizedRbcm:
    """A fully verified map together with its classification residues."""

    solution: ClassificationSolution
    cmap: CayleyMap
    skew: SkewMorphism
    balance: BalanceData
    orbit: "Optional[maps.GeneratorOrbit]"
    embedding: "Optional[maps.EmbeddingData]"
    checks: "dict[str, bool]"

    @property
    def verified(self) -> bool:
        return all(self.checks.values())


def _residues_for(a: int, b: int, c: int, z: int, w: int, ell: int) -> "tuple[int, int, int]":
    """``(u~, u1, v1)`` solving (C1)-(C3) for the given offset ``ell``.

    ``u~`` comes from its closed-form congruence; ``u1`` and ``v1`` are then
    the joint fixed point of (C2) and (C1).  The self-references carry a
    factor of at least ``2^2``, so the 2-adic iteration contracts.
    """
    mod_x = 1 << (a - 1)
    mod_y = 1 << b
    mod_u = 1 << (a - c)
    if ell % 2 == 0:
        raise InternalInconsistency(f"offset ell={ell} must be odd")
    lp = (ell - 1) // 2
    zz = z * z - 1
    if zz % (1 << (c - 1)):
        raise InternalInconsistency(f"z^2 = 1 (mod 2^(c-1)) fails for z={z}")
    delta = zz >> (c - 1)
    u_tilde = (ell * (2 - delta) - 4) % mod_u
    if u_tilde % 2 == 0:
        raise InternalInconsistency("u~ came out even")

    divisor = (1 + lp * (w + 1)) % mod_y
    if divisor % 2 == 0:
        raise InternalInconsistency("v1 denominator 1 + l'(w+1) is even")
    div_inv = pow(divisor, -1, mod_y) if mod_y > 1 else 0

    u1, v1 = 1, 0
    for _ in range(2 * a + 4):
        v1_new = (-(2 + lp * u1) * div_inv) % mod_y
        u_prime = ((z + 1 + (1 << (c - 1)) * (u1 + 2 * v1_new + 1)) * u1) % mod_x
        u1_new = (
            -lp * u_prime
            + lp * (lp - 1) * (z + 1) ** 2
            - (1 + (1 << (c - 1)) * (v1_new - 1)) * u_tilde
        ) % mod_x
        if u1_new == u1 and v1_new == v1:
            break
        u1, v1 = u1_new, v1_new
    else:
        raise InternalInconsistency("residue fixed point did not converge")
    return u_tilde, u1, v1


def _verify_conditions(
    a: int, b: int, c: int, z: int, w: int, ell: int, t: int, u_tilde: int, u1: int, v1: int
) -> None:
    """Re-check (C1)-(C4) on the produced residues; failure is an engine bug."""
    mod_x = 1 << (a - 1)
    mod_y = 1 << b
    lp = (ell - 1) // 2
    r = 1 + (1 << c)
    s = z * geom_sum_mod(r, z, mod_x) % mod_x
    u_prime = ((z + 1 + (1 << (c - 1)) * (u1 + 2 * v1 + 1)) * u1) % mod_x
    v_prime = (u1 + (w + 1) * v1) % mod_y
    if (lp * v_prime + v1 + 2) % mod_y:
        raise InternalInconsistency("condition C1 fails after substitution")
    if (
        u1
        + lp * u_prime
        - lp * (lp - 1) * (z + 1) ** 2
        + (1 + (1 << (c - 1)) * (v1 - 1)) * u_tilde
    ) % mod_x:
        raise InternalInconsistency("condition C2 fails after substitution")
    if ((s - 1) * (u_prime + 1) - (1 << (c - 1)) * v_prime) % mod_x:
        raise InternalInconsistency("condition C3 fails after substitution")
    if deg2(t + 1) < a - c + 2:
        raise InternalInconsistency("condition C4 (valuation of t+1) fails")
    if deg2(t + 1) < b + 1:
        raise InternalInconsistency("valuation bound deg2(t+1) >= b+1 fails")


def _build_phi(
    G: Metacyclic, a: int, b: int, z: int, w: int, u_tilde: int, u1: int, v1: int
) -> "tuple[np.ndarray, GroupElement, GroupElement]":
    """The candidate skew-morphism as a permutation array.

    On ``<a^2, b>`` it is the automorphism ``a^2 -> a^(2z) b, b -> b^w``;
    on the other coset it sends ``h * omega_d`` to ``phi(h) * omega_1`` with
    ``omega_d = a^u~ b`` and ``omega_1 = a^(2 u1) b^(v1) * omega_d``.
    """
    n, m = G.n, G.m
    mod_x = n // 2
    idx = G.all_idx()
    x, y = idx // m, idx % m
    even = x % 2 == 0
    phi = np.empty(G.order, dtype=np.int64)
    X = x[even] // 2
    phi_x = 2 * (z * geom_table(G)[1, X] % mod_x)
    phi_y = (X + w * y[even]) % m
    phi[even] = phi_x * m + phi_y

    omega_d = G.el(u_tilde, 1)
    eta1 = G.el(2 * u1 % n, v1)
    omega_1 = G.mul(eta1, omega_d)
    odd_idx = idx[~even]
    h = G.mul_vec(odd_idx, np.int64(G.encode(G.inv(omega_d))))
    phi[~even] = G.mul_vec(phi[h], np.int64(G.encode(omega_1)))
    return phi, omega_d, omega_1


def realize(
    a: int, b: int, c: int, z1: "Optional[int]" = None, *, z: "Optional[int]" = None, full: bool = True
) -> RealizedRbcm:
    """Build and verify the map for one residue class.

    ``z`` can be passed directly (it must be ``-1 + 2^(c-2) (mod 2^(c-1))``)
    to realize classes outside the canonical ``z1`` range, e.g. when testing
    that ``z`` and ``z + 2^(a-2)`` give isomorphic maps.

    Both levels run the residues, the fixed point for ``(t, d, ell)``,
    the congruence checks and the dart certificate of ``maps.check_skew``,
    which proves the skew law on all ``|G|^2`` pairs in ``O(|G| d)``.
    ``full=False`` skips the orbit identities, the kernel generation and
    restriction checks, and genus.
    """
    report = check_necessary(a, b, c)
    if not report.existence:
        raise GroupError(report.reason)
    mod_x = 1 << (a - 1)
    if z is None:
        if z1 is None or not 0 <= z1 < (1 << (a - c - 1)):
            raise GroupError(f"z1 must be in [0, 2^(a-c-1)), got {z1}")
        z = (-1 + (1 << (c - 2)) + (1 << (c - 1)) * z1) % mod_x
    else:
        z %= mod_x
        if (z + 1 - (1 << (c - 2))) % (1 << (c - 1)):
            raise GroupError(f"z={z} is not -1 + 2^(c-2) (mod 2^(c-1))")
        z1 = ((z + 1 - (1 << (c - 2))) >> (c - 1)) % (1 << (a - c))
    w = (1 - (1 << (c - 2))) % (1 << b)
    G = DeltaParams(a, b, c).group()

    ell = 1
    seen = set()
    for _ in range(8):
        u_tilde, u1, v1 = _residues_for(a, b, c, z, w, ell)
        phi, omega_d, omega_1 = _build_phi(G, a, b, z, w, u_tilde, u1, v1)
        orbit_idx = maps.orbit_walk(phi, G.encode(omega_d))
        if orbit_idx is None:
            raise InternalInconsistency("orbit failed to close")
        omega = [G.decode(i) for i in orbit_idx]
        cmap = CayleyMap(G, omega)
        bal = maps.balance_data(cmap)
        if bal is None:
            raise InternalInconsistency("constructed map is not t-balanced")
        if bal.ell == ell:
            break
        if (ell, bal.ell) in seen:
            raise InternalInconsistency("(t, d, ell) fixed point cycled")
        seen.add((ell, bal.ell))
        ell = bal.ell
    else:
        raise InternalInconsistency("(t, d, ell) fixed point did not stabilize")

    t, d = bal.t, cmap.d
    _verify_conditions(a, b, c, z, w, ell, t, u_tilde, u1, v1)
    s = z * geom_sum_mod(G.r, z, mod_x) % mod_x
    solution = ClassificationSolution(
        a, b, c, z1, z, w, u_tilde, u1 % mod_x, v1 % (1 << b),
        s, (ell - 1) // 2, (t + 1) // 2, t, d, ell,
    )

    checks: "dict[str, bool]" = {}
    res = maps.check_skew(cmap, phi)
    if not isinstance(res, SkewMorphism):
        raise VerificationError(f"skew law fails at ({res.eta}, {res.mu})")
    skew = res
    checks["skew_law_all_pairs"] = True
    checks["balanced"] = True
    checks["type_I_normalized"] = (
        bal.map_type == "I" and ell == (np.gcd(t - 1, d) // 2 if t > 1 else d // 2)
    )
    # kernel of pi must be exactly <a^2, b>
    x_parity = (G.all_idx() // G.m) % 2 == 0
    checks["kernel_is_a2_b"] = bool(np.array_equal(skew.kernel_mask(), x_parity))
    checks["pi_on_generators_is_t"] = bool(np.all(skew.pi[cmap.omega_idx] == t))
    checks["pi_two_valued"] = set(skew.pi.tolist()) == {1, t}
    checks["plus_part_is_normal_form"] = _plus_part_matches(G, skew, z, w)
    checks["deg2_t_plus_1"] = deg2(t + 1) >= max(b + 1, a - c + 2)

    orbit = None
    emb = None
    if full:
        orbit = maps.generator_orbit(cmap, skew, bal)
        maps.verify_inverse_conditions(cmap, orbit, bal, u_tilde)
        checks["inverse_conditions"] = True
        checks["kernel_generated_by_etas"] = bool(
            G.closure_idx([G.encode(e) for e in orbit.eta]).size * 2 == G.order
        )
        checks["kernel_is_even_products"] = _even_products_match(G, cmap, skew)
        checks["phi_restriction_is_automorphism"] = _restriction_is_automorphism(G, skew)
        emb = maps.genus(cmap)
    return RealizedRbcm(solution, cmap, skew, bal, orbit, emb, checks)


def _plus_part_matches(G: Metacyclic, skew: SkewMorphism, z: int, w: int) -> bool:
    a2 = G.el(2, 0)
    img_a2 = skew.apply(a2)
    img_b = skew.apply(G.beta())
    return img_a2 == G.el(2 * z % G.n, 1) and img_b == G.el(0, w % G.m)


def _even_products_match(G: Metacyclic, cmap: CayleyMap, skew: SkewMorphism) -> bool:
    """ker pi equals the subgroup generated by products of two generators."""
    w1 = cmap.omega_idx[0]
    wd = cmap.omega_idx[-1]
    gens = np.concatenate(
        [
            G.mul_vec(cmap.omega_idx, np.int64(w1)),
            G.mul_vec(np.int64(G.inv_vec(np.array([w1]))[0]), cmap.omega_idx),
            G.mul_vec(cmap.omega_idx, np.int64(wd)),
        ]
    )
    span = G.closure_idx(gens)
    kernel = np.flatnonzero(skew.kernel_mask())
    return span.size == kernel.size and np.array_equal(span, kernel)


def _restriction_is_automorphism(G: Metacyclic, skew: SkewMorphism) -> bool:
    """phi permutes its kernel ``K`` and ``phi(k e) = phi(k) phi(e)`` for all
    ``k`` in ``K`` and ``e`` in ``{a^2, b}``.

    Where ``K = <a^2, b>`` (the ``kernel_is_a2_b`` check), induction on word
    length in ``a^2, b`` extends this to ``phi(k k') = phi(k) phi(k')`` for
    all ``k, k'`` in ``K``.
    """
    kernel = np.flatnonzero(skew.kernel_mask())
    phi = skew.phi
    if not np.array_equal(np.sort(phi[kernel]), kernel):
        return False
    gens = np.array([G.encode(G.el(2, 0)), G.encode(G.beta())], dtype=np.int64)
    lhs = phi[G.mul_vec_outer(kernel, gens)]
    rhs = G.mul_vec_outer(phi[kernel], phi[gens])
    return bool(np.array_equal(lhs, rhs))


def solve(a: int, b: int, c: int) -> "list[ClassificationSolution]":
    """All isomorphism classes on ``D(a,b,c)``, in increasing ``z1`` order."""
    report = check_necessary(a, b, c)
    if not report.existence:
        return []
    out = []
    for z1 in range(1 << (a - c - 1)):
        out.append(realize(a, b, c, z1, full=False).solution)
    return out


# -- pairwise distinctness -------------------------------------------------------


@dataclass(frozen=True)
class DistinctnessCertificate:
    pair_count: int
    shift_route: "tuple[tuple[int, int, bool], ...]"  # (z1_i, z1_j, distinct)
    search_route: "tuple[tuple[int, int, bool], ...]"


def distinct(realized: "list[RealizedRbcm]") -> DistinctnessCertificate:
    """Prove pairwise non-isomorphism two independent ways.

    Route one is the closed-form shift rule: the residues ``z`` of two
    realized classes give isomorphic maps exactly when they agree modulo
    ``2^(a-2)``.  Route two screens all of ``Aut(G)`` in one pass per map
    (``maps.isomorphisms``) and verifies every hit on all ``d`` generators.
    The two verdicts must agree for every pair, and the search must find
    the relation reflexive and symmetric.
    """
    if len(realized) < 2:
        return DistinctnessCertificate(0, (), ())
    a = realized[0].solution.a
    cmaps = [r.cmap for r in realized]
    hits = maps.isomorphisms(autos.aut_group(cmaps[0].group), cmaps, cmaps)
    iso = {(i, int(j)) for i, (_, targets) in enumerate(hits) for j in targets}
    if any((i, i) not in iso for i in range(len(cmaps))) or any((j, i) not in iso for i, j in iso):
        raise InternalInconsistency("isomorphism search is not reflexive and symmetric")
    shift_route = []
    search_route = []
    for i in range(len(realized)):
        for j in range(i + 1, len(realized)):
            si, sj = realized[i].solution, realized[j].solution
            calc_distinct = bool((sj.z - si.z) % (1 << (a - 2)))
            search_distinct = (i, j) not in iso
            if calc_distinct != search_distinct:
                raise InternalInconsistency(
                    f"distinctness routes disagree for z1={si.z1}, z1'={sj.z1}"
                )
            shift_route.append((si.z1, sj.z1, calc_distinct))
            search_route.append((si.z1, sj.z1, search_distinct))
    return DistinctnessCertificate(len(shift_route), tuple(shift_route), tuple(search_route))


# -- quotient cross-check ---------------------------------------------------------


def quotient_cross_check(realized: RealizedRbcm) -> AbelianRbcmProfile:
    """Quotient by ``<a^(2^c)>`` and verify the rank-2 abelian profile."""
    sol = realized.solution
    xi = PowerSubgroup(realized.cmap.group, sol.c)
    qres = maps.quotient_map(realized.cmap, realized.skew, xi)
    profile = maps.abelian_profile_check(qres)
    if (sol.t + 1) % profile.valency:
        raise VerificationError("quotient valency does not divide t + 1")
    return profile


# -- top-level pipeline ------------------------------------------------------------


@dataclass
class ClassifyOutcome:
    report: NecessaryReport
    solutions: "list[ClassificationSolution]"
    realized: "list[RealizedRbcm]"
    profiles: "list[AbelianRbcmProfile]"
    distinctness: "Optional[DistinctnessCertificate]"

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.realized)


def _realize_task(args: "tuple[int, int, int, int]") -> RealizedRbcm:
    a, b, c, z1 = args
    return realize(a, b, c, z1)


def default_workers() -> int:
    """``RBCM_WORKERS`` if set, else the core count; ValueError if it is not an integer."""
    env = os.environ.get("RBCM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"RBCM_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def classify(
    a: int, b: int, c: int, verify_level: str = "full", workers: "Optional[int]" = None
) -> ClassifyOutcome:
    """Solve, optionally fully verify, and certify distinctness.

    ``verify_level`` is ``"fast"`` (residues, fixed point, congruence
    checks and the dart certificate, which proves the skew law on all
    pairs) or ``"full"`` (adds the orbit identities, the kernel generation
    and restriction checks, genus, the quotient profile and pairwise
    non-isomorphism).
    Results are ordered by ``z1`` regardless of the worker count.
    """
    if verify_level not in ("fast", "full"):
        raise GroupError(f"unknown verify level {verify_level!r}")
    report = check_necessary(a, b, c)
    if not report.existence:
        return ClassifyOutcome(report, [], [], [], None)
    count = 1 << (a - c - 1)
    if verify_level == "fast":
        solutions = solve(a, b, c)
        return ClassifyOutcome(report, solutions, [], [], None)
    tasks = [(a, b, c, z1) for z1 in range(count)]
    nworkers = workers if workers is not None else default_workers()
    nworkers = max(1, min(nworkers, len(tasks)))
    if nworkers == 1:
        realized = [_realize_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            realized = list(pool.map(_realize_task, tasks))
    realized.sort(key=lambda r: r.solution.z1)
    profiles = [quotient_cross_check(r) for r in realized]
    cert = distinct(realized)
    return ClassifyOutcome(report, [r.solution for r in realized], realized, profiles, cert)
