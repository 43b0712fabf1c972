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
``0 < u~ < 2^(a-c)``.  Every class is realized at ``l = 1`` in one pass.
There ``l' = 0``, so (C1) reads ``v1 = -2`` and (C2) reads
``u1 = -(1 + 2^(c-1)(v1-1)) u~``: the residues are in closed form, and
together they say ``omega_1 = omega_d^-1``, which is ``iota(d) = 1``.  The
offset read back off the built map is therefore ``l = 1`` again; ``realize``
checks that, and (C1)-(C4) are re-checked with the ``(t, l)`` it reads.

The skew-morphism stays in that rule form, ``theta`` on ``<a^2, b>`` and
``h omega_d -> theta(h) omega_1`` off it.  ``realize`` walks the generator
cycle and proves the skew law from the rule (``maps.check_skew_by_rule``)
in ``O(d)`` evaluations of ``phi``; a ``|G|``-sized table is built only
where one is read: the full level's orbit identities and quotient profile.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import autos, maps
from .groups import DeltaParams, GroupError, Metacyclic, PowerSubgroup, plus_presentation
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


#: residue products mod ``n = 2^a`` are int64, which needs ``n^2 < 2^63``;
#: then ``b < c <= a-3`` keeps the codes ``x*m + y`` in int64 too
MAX_A = 31


def _check_a_in_range(a: int) -> None:
    """``GroupError`` past ``MAX_A``, before anything ``|G|``-sized is allocated."""
    if a > MAX_A:
        raise GroupError(f"a={a} is out of range: int64 residue products mod 2^a need a <= {MAX_A}")


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
    t: int
    d: int
    ell: int

    def to_json_dict(self, verified: "Optional[bool]" = None, genus: "Optional[int]" = None) -> dict:
        doc = asdict(self)
        if verified is not None:
            doc["verified"] = verified
        if genus is not None:
            doc["genus"] = genus
        return doc


@dataclass
class RealizedRbcm:
    """A fully verified map together with its classification residues.

    ``rule`` is the certified skew-morphism in rule form; ``skew`` holds it
    as ``|G|``-sized ``phi`` and ``pi`` tables, built on first access.
    """

    solution: ClassificationSolution
    cmap: CayleyMap
    rule: maps.CosetRule
    balance: BalanceData
    orbit: "Optional[maps.GeneratorOrbit]"
    embedding: "Optional[maps.EmbeddingData]"
    checks: "dict[str, bool]"

    @property
    def verified(self) -> bool:
        return all(self.checks.values())

    @cached_property
    def skew(self) -> SkewMorphism:
        """``phi`` from ``_build_phi``, and ``pi``: 1 on ``<a^2, b>``, ``t`` off it."""
        G, omega = self.cmap.group, self.cmap.omega_idx
        phi = _build_phi(self.rule)
        if not np.array_equal(phi[omega], np.roll(omega, -1)):
            raise InternalInconsistency("the phi table disagrees with the rule on Omega")
        pi = np.where(G.all_idx() // G.m % 2 == 0, 1, self.solution.t)
        return SkewMorphism(self.cmap, phi, pi)


def _residues_for(a: int, b: int, c: int, z: int) -> "tuple[int, int, int]":
    """``(u~, u1, v1)`` solving (C1)-(C3) at the offset ``l = 1``, in closed form."""
    zz = z * z - 1
    if zz % (1 << (c - 1)):
        raise InternalInconsistency(f"z^2 = 1 (mod 2^(c-1)) fails for z={z}")
    u_tilde = (-2 - (zz >> (c - 1))) % (1 << (a - c))
    if u_tilde % 2 == 0:
        raise InternalInconsistency("u~ came out even")
    v1 = -2 % (1 << b)
    u1 = -(1 + (1 << (c - 1)) * (v1 - 1)) * u_tilde % (1 << (a - 1))
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


def _coset_rule(G: Metacyclic, z: int, w: int, u_tilde: int, u1: int, v1: int) -> maps.CosetRule:
    """The candidate skew-morphism of the residues, in rule form.

    On ``K = <a^2, b>`` it is ``theta = sigma(z,1;0,w)``: ``a^2 -> a^(2z) b``,
    ``b -> b^w``, validated and evaluated by ``autos`` on the standalone
    ``L(n/2, m; r)``.  On the other coset it sends ``h * omega_d`` to
    ``theta(h) * omega_1`` with ``omega_d = a^u~ b`` and
    ``omega_1 = a^(2 u1) b^(v1) * omega_d``.
    """
    pres = plus_presentation(G)
    omega_d = G.code(u_tilde, 1)
    omega_1 = int(G.mul_vec(G.code(2 * u1, v1), omega_d))
    try:
        return maps.CosetRule(pres, autos.normal_form_params(pres.group, z, w), omega_d, omega_1)
    except autos.AutomorphismError as exc:
        raise InternalInconsistency(f"theta is not an automorphism: {exc}") from exc


def _build_phi(rule: maps.CosetRule) -> np.ndarray:
    """The rule's ``phi`` as a ``|G|``-sized table, for the callers that read
    one: the orbit identities, the quotient profile, a map document."""
    pres, G = rule.pres, rule.pres.parent
    kernel = pres.include_vec(pres.group.all_idx())
    phi = np.empty(G.order, dtype=np.int64)
    phi[kernel] = pres.include_vec(autos.as_perm(rule.theta))
    phi[G.mul_vec(kernel, np.int64(rule.omega_d))] = G.mul_vec(phi[kernel], np.int64(rule.omega_1))
    return phi


def realize(
    a: int, b: int, c: int, z1: "Optional[int]" = None, *, z: "Optional[int]" = None, full: bool = True
) -> RealizedRbcm:
    """Build and verify the map for one residue class.

    ``z`` can be passed directly (it must be ``-1 + 2^(c-2) (mod 2^(c-1))``)
    to realize classes outside the canonical ``z1`` range, e.g. when testing
    that ``z`` and ``z + 2^(a-2)`` give isomorphic maps.

    Both levels run the closed-form residues, the map's cycle walked by
    the rule form of ``phi`` (``_coset_rule``; its offset must read back as
    ``ell = 1``), the congruence checks and the rule certificate
    ``maps.check_skew_by_rule``, which proves the skew law on all
    ``|G|^2`` pairs from the restriction to ``<a^2, b>`` in ``O(d)`` rule
    evaluations.  No ``|G|``-sized ``phi`` or ``pi`` table is built: ``skew``
    materializes one on first access, which the full level makes for the
    orbit identities and the quotient profile.  Every generation proof is
    the closed-form parity span of ``Metacyclic.generates`` (Burnside basis
    theorem); no closure is computed.  ``checks`` names each check that
    ran: a failed one raises ``VerificationError`` naming its key
    (``InternalInconsistency`` for an engine identity), so every value is
    ``True``.  Each key is proved by:

    * ``skew_law_all_pairs``: the rule certificate;
    * ``phi_restriction_is_automorphism``: (R1), ``autos.validate`` of
      ``theta = sigma(z,1;0,w)`` when the rule is built;
    * ``pi_on_generators_is_t``: the certificate's ``t = pi(omega_d)``, read
      by the law at ``(omega_d, omega_1)``, is the balance ``t``; ``pi`` is
      ``pi(omega_d)`` off ``<a^2, b>``, where (R1) keeps every ``omega_i``;
    * ``kernel_is_a2_b``: ``pi = 1`` on ``<a^2, b>`` by (R1) and the coset
      rule, ``t != 1`` by (C4);
    * ``pi_two_valued``: the certificate's ``pi``, 1 on ``<a^2, b>`` and ``t`` off it;
    * ``balanced``: ``maps.balance_data``, read back with ``ell = 1``;
    * ``deg2_t_plus_1``: (C4) and ``deg2(t+1) >= b+1`` in ``_verify_conditions``;
    * ``type_I_normalized``: type I with ``ell = gcd(t-1, d) / 2``;
    * ``plus_part_is_normal_form``: ``phi(a^2) = a^(2z) b`` and ``phi(b) = b^w``,
      evaluated by the rule;
    * ``inverse_conditions`` (full only): ``maps.verify_inverse_conditions``;
    * ``kernel_generated_by_etas`` (full only): ``_generates_a2_b`` on the ``eta_i``;
    * ``kernel_is_even_products`` (full only): ``_generates_a2_b`` on ``_even_products``.

    The last two prove generation of ``ker pi``, as ``pi = 1`` on ``<a^2, b>``.
    ``full=False`` also skips the orbit identities and genus.
    """
    report = check_necessary(a, b, c)
    if not report.existence:
        raise GroupError(report.reason)
    _check_a_in_range(a)
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

    u_tilde, u1, v1 = _residues_for(a, b, c, z)
    rule = _coset_rule(G, z, w, u_tilde, u1, v1)
    cmap = CayleyMap(G, rule.cycle)
    bal = maps.balance_data(cmap)
    if bal is None or bal.ell != 1:
        raise InternalInconsistency(f"constructed map is not t-balanced with ell = 1: {bal}")

    t, d, ell = bal.t, cmap.d, bal.ell
    _verify_conditions(a, b, c, z, w, ell, t, u_tilde, u1, v1)
    solution = ClassificationSolution(a, b, c, z1, z, w, u_tilde, u1, v1, t, d, ell)

    res = maps.check_skew_by_rule(cmap, rule)
    if isinstance(res, maps.SkewFailure):
        raise VerificationError(f"skew law fails at ({res.eta}, {res.mu}): {res.detail}")
    ran = [
        "skew_law_all_pairs", "phi_restriction_is_automorphism", "kernel_is_a2_b",
        "pi_two_valued", "balanced", "deg2_t_plus_1",  # proved above: see the docstring
        _require(res == t, "pi_on_generators_is_t"),
        _require(bal.map_type == "I" and ell == np.gcd(t - 1, d) // 2, "type_I_normalized"),
        _require(_plus_part_matches(G, rule, z, w), "plus_part_is_normal_form"),
    ]
    realized = RealizedRbcm(solution, cmap, rule, bal, None, None, {})
    if full:
        orbit = realized.orbit = maps.generator_orbit(cmap, realized.skew, bal)
        maps.verify_inverse_conditions(cmap, orbit, bal, u_tilde)
        ran += [
            "inverse_conditions",
            _require(_generates_a2_b(G, orbit.eta), "kernel_generated_by_etas"),
            _require(_generates_a2_b(G, _even_products(G, cmap)), "kernel_is_even_products"),
        ]
        realized.embedding = maps.genus(cmap)
    realized.checks = dict.fromkeys(ran, True)
    return realized


def _require(ok: bool, key: str) -> str:
    """``key`` if its check holds; otherwise a ``VerificationError`` naming it."""
    if not ok:
        raise VerificationError(f"check {key} fails")
    return key


def _plus_part_matches(G: Metacyclic, rule: maps.CosetRule, z: int, w: int) -> bool:
    """``phi(a^2) = a^(2z) b`` and ``phi(b) = b^w``."""
    return rule(G.code(2, 0)) == G.code(2 * z, 1) and rule(G.code(0, 1)) == G.code(0, w)


def _generates_a2_b(G: Metacyclic, gens: "list[int] | np.ndarray") -> bool:
    """The encoded ``gens`` lie in ``<a^2, b>`` and generate it.

    ``<a^2, b>`` is the 2-group ``L(n/2, m; r)``, so generation is the
    closed-form parity span of ``Metacyclic.generates`` after retraction.
    """
    gens = np.asarray(gens, dtype=np.int64)
    if np.any((gens // G.m) % 2):
        return False
    pres = plus_presentation(G)
    return pres.group.generates(pres.retract_vec(gens))


def _even_products(G: Metacyclic, cmap: CayleyMap) -> np.ndarray:
    """The products ``omega_i omega_1``, ``omega_1^-1 omega_i`` and ``omega_i omega_d``."""
    w = cmap.omega_idx
    return np.concatenate([G.mul_vec(w, w[0]), G.mul_vec(G.inv_vec(w[0]), w), G.mul_vec(w, w[-1])])


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
    ``2^(a-2)``.  Route two solves for every automorphism that carries one
    map onto another (``maps.isomorphisms``: at most one candidate per
    target and rotation, in parameter space, with no ``Aut(G)`` scan) and
    verifies every hit on all ``d`` generators.  The two verdicts must
    agree for every pair, and the search must find the relation reflexive
    and symmetric.
    """
    if len(realized) < 2:
        return DistinctnessCertificate(0, (), ())
    a = realized[0].solution.a
    cmaps = [r.cmap for r in realized]
    hits = maps.isomorphisms(cmaps, cmaps)
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
    """Quotient by ``<a^(2^c)>`` and verify the rank-2 abelian profile.

    The profile checks that the valency divides the quotient's ``t + 1``,
    and ``quotient_map`` that the quotient's ``t`` is ``t`` modulo the valency.
    """
    xi = PowerSubgroup(realized.cmap.group, realized.solution.c)
    return maps.abelian_profile_check(maps.quotient_map(realized.cmap, realized.skew, xi))


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


def classify(a: int, b: int, c: int, verify_level: str = "full") -> ClassifyOutcome:
    """Solve, optionally fully verify, and certify distinctness.

    ``verify_level`` is ``"fast"`` (residues, one cycle walked by the rule
    form of ``phi`` per class, congruence checks and the rule certificate,
    which proves the skew law on all pairs in ``O(d)`` rule evaluations,
    with no ``|G|``-sized table) or ``"full"`` (adds the orbit identities, the
    kernel generation checks, genus, the quotient profile and pairwise
    non-isomorphism).  Generation is certified in closed form at both
    levels (see ``realize``); only the quotient profile computes a closure.
    Classes are realized one at a time, in ``z1`` order.  The fast level
    keeps only each class's solution, so that no map, and no ``|G|``-sized
    position table of one, outlives its class.
    """
    if verify_level not in ("fast", "full"):
        raise GroupError(f"unknown verify level {verify_level!r}")
    report = check_necessary(a, b, c)
    if not report.existence:
        return ClassifyOutcome(report, [], [], [], None)
    _check_a_in_range(a)
    z1s = range(1 << (a - c - 1))
    if verify_level == "fast":
        solutions = [realize(a, b, c, z1, full=False).solution for z1 in z1s]
        return ClassifyOutcome(report, solutions, [], [], None)
    realized = [realize(a, b, c, z1) for z1 in z1s]
    profiles = [quotient_cross_check(r) for r in realized]
    cert = distinct(realized)
    return ClassifyOutcome(report, [r.solution for r in realized], realized, profiles, cert)
