"""Parametrized automorphisms ``sigma(x1,y1;x2,y2)`` of metacyclic 2-groups.

For ``L(2^at, 2^bt; r)`` with ``ct = deg2(r-1) >= 2`` every automorphism is

    sigma(x1,y1;x2,y2):  a^u b^v  ->  a^(x1 [u]_{r^y1} + r^(y1 u) x2 [v]_{r^y2}) b^(y1 u + y2 v)

i.e. ``a -> a^x1 b^y1`` and ``b -> a^x2 b^y2``, subject to

* ``x1 y2 - x2 y1`` odd,
* ``deg2(y1) >= bt - ct``, ``deg2(x2) >= at - bt``,
* ``y2 = 1 (mod 2^(at-ct))`` except in the corner case
  ``bt = at - ct = deg2(y1) + ct`` where ``y2 = 1 + 2^(at-ct-1)``.

Parameters are stored generator-wise: the first pair is the image of ``a``,
the second the image of ``b``.  ``aut_group`` holds the whole family as four
int64 arrays (``AutGroup``).  One vectorised image formula, on the cached
geometric-sum table of ``groups.geom_table``, serves both ``as_perm`` (one
automorphism on every element) and ``AutGroup.images`` (one element under
every automorphism); ``apply`` is the scalar reference.  Composition,
inversion, restriction to the index-2 subgroup ``<a^2, b>`` and conjugation
into the normal form ``sigma(z,1;0,w)`` all live here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .groups import GroupElement, IndexTwoPresentation, Metacyclic, geom_table, plus_presentation
from .twoadic import INFINITY, deg2, geom_sum_mod


class AutomorphismError(ValueError):
    """Parameters outside the supported family, or a broken precondition."""


def _log2_exact(n: int) -> int:
    e = n.bit_length() - 1
    if n != 1 << e:
        raise AutomorphismError(f"{n} is not a power of two")
    return e


def tilde_exponents(group: Metacyclic) -> "tuple[int, int, int]":
    """``(at, bt, ct)`` for ``L(2^at, 2^bt; r)`` with ``ct = min(deg2(r-1), at)``.

    ``r = 1`` (abelian) caps ``ct`` at ``at``, which keeps all the degree
    conditions meaningful.  Groups with ``r = 3 (mod 4)`` fall outside the
    parametrized family and are rejected.
    """
    at = _log2_exact(group.n)
    bt = _log2_exact(group.m)
    ct_raw = deg2(group.r - 1) if group.n > 1 else INFINITY
    ct = at if ct_raw > at else int(ct_raw)
    if group.n >= 4 and ct < 2:
        raise AutomorphismError(
            f"parametrized automorphisms need deg2(r-1) >= 2, got r={group.r} in {group}"
        )
    return at, bt, ct


@dataclass(frozen=True)
class AutoParams:
    """``sigma(x1,y1;x2,y2)`` on a metacyclic 2-group: ``a -> a^x1 b^y1``, ``b -> a^x2 b^y2``."""

    x1: int
    y1: int
    x2: int
    y2: int
    group: Metacyclic

    def __post_init__(self) -> None:
        n, m = self.group.n, self.group.m
        for name in ("x1", "x2"):
            object.__setattr__(self, name, getattr(self, name) % n)
        for name in ("y1", "y2"):
            object.__setattr__(self, name, getattr(self, name) % m)

    def __str__(self) -> str:
        return f"sigma({self.x1},{self.y1};{self.x2},{self.y2})"

    def image_a(self) -> GroupElement:
        return self.group.el(self.x1, self.y1)

    def image_b(self) -> GroupElement:
        return self.group.el(self.x2, self.y2)


def identity_params(group: Metacyclic) -> AutoParams:
    return AutoParams(1 % group.n, 0, 0, 1 % group.m, group)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: "tuple[str, ...]"

    def __bool__(self) -> bool:
        return self.ok


def validate(params: AutoParams, group: "Optional[Metacyclic]" = None) -> ValidationReport:
    """Check the four parameter constraints; report every violated one."""
    G = group if group is not None else params.group
    if G != params.group:
        raise AutomorphismError("parameters belong to a different group")
    at, bt, ct = tilde_exponents(G)
    x1, y1, x2, y2 = params.x1, params.y1, params.x2, params.y2
    violations = []
    if G.order == 1:
        return ValidationReport(True, ())
    if bt == 0:
        # m = 1: the group is cyclic <a>; only x1 matters.
        if x1 % 2 == 0:
            violations.append(f"x1 must be odd, got {x1}")
        return ValidationReport(not violations, tuple(violations))
    if (x1 * y2 - x2 * y1) % 2 == 0:
        violations.append(f"determinant x1*y2 - x2*y1 = {x1 * y2 - x2 * y1} is even")
    if deg2(y1) < bt - ct:
        violations.append(f"deg2(y1)={deg2(y1)} < bt-ct={bt - ct}")
    if deg2(x2) < at - bt:
        violations.append(f"deg2(x2)={deg2(x2)} < at-bt={at - bt}")
    mu = min(at - ct, bt)
    if mu > 0:
        corner = bt == at - ct and deg2(y1) + ct == at - ct
        target = (1 + (1 << (at - ct - 1))) if corner else 1
        if (y2 - target) % (1 << mu):
            violations.append(
                f"y2 = {y2} != {target % (1 << mu)} (mod 2^{mu})"
                + (" [corner case]" if corner else "")
            )
    return ValidationReport(not violations, tuple(violations))


def apply(params: AutoParams, g: GroupElement) -> GroupElement:
    """Image of ``a^u b^v`` under the closed formula."""
    G = params.group
    G._check_member(g)
    u, v = g.x, g.y
    n, m = G.n, G.m
    ry1 = G.rpow(params.y1)
    ry2 = G.rpow(params.y2)
    x = params.x1 * geom_sum_mod(ry1, u, n) + pow(G.r, (params.y1 * u) % m if m > 1 else 0, n) * params.x2 * geom_sum_mod(ry2, v, n)
    return G.el(x, params.y1 * u + params.y2 * v)


def as_perm(params: AutoParams) -> np.ndarray:
    """The automorphism as a permutation of encoded elements (vectorized)."""
    report = validate(params)
    if not report:
        raise AutomorphismError(f"{params} is not an automorphism: {'; '.join(report.violations)}")
    G = params.group
    idx = G.all_idx()
    return _images(G, params.x1, params.y1, params.x2, params.y2, idx // G.m, idx % G.m)


def _images(G: Metacyclic, x1, y1, x2, y2, u, v) -> np.ndarray:
    """Encoded image of ``a^u b^v`` under ``sigma(x1,y1;x2,y2)``, broadcasting over arrays.

    It leaves out ``apply``'s factor ``r^(y1 u)`` on ``x2``, which is 1 on
    every valid tuple: ``deg2(r^k - 1) = deg2(k) + ct`` and the constraints
    give ``deg2(y1) + deg2(x2) + ct >= at``.
    """
    n, m = G.n, G.m
    table = geom_table(G)
    x = (x1 * table[y1, u] + x2 * table[y2, v % n]) % n
    return x * m + (y1 * u + y2 * v) % m


def compose(outer: AutoParams, inner: AutoParams) -> AutoParams:
    """Parameters of ``outer o inner`` via the composition formula.

    The composite sends ``a`` to ``a^h1 b^(y1' x1 + y2' y1)`` and ``b`` to
    ``a^h2 b^(y1' x2 + y2' y2)`` with
    ``h_j = x1' [x_j]_{r^y1'} + r^(y1' x_j) x2' [y_j]_{r^y2'}``.
    """
    if outer.group != inner.group:
        raise AutomorphismError("cannot compose automorphisms of different groups")
    G = outer.group
    n, m = G.n, G.m
    ry1 = G.rpow(outer.y1)
    ry2 = G.rpow(outer.y2)

    def h(xj: int, yj: int) -> int:
        ruy = pow(G.r, (outer.y1 * xj) % m if m > 1 else 0, n)
        return outer.x1 * geom_sum_mod(ry1, xj, n) + ruy * outer.x2 * geom_sum_mod(ry2, yj, n)

    return AutoParams(
        h(inner.x1, inner.y1),
        outer.y1 * inner.x1 + outer.y2 * inner.y1,
        h(inner.x2, inner.y2),
        outer.y1 * inner.x2 + outer.y2 * inner.y2,
        G,
    )


def simplified_compose_c_ge_b(outer: AutoParams, inner: AutoParams) -> AutoParams:
    """Reduced composition formulas, valid when ``ct >= bt``.

    ``h1 = x1'(x1 + r' y1' x1 (x1 - 1)) + x2' y1`` and ``h2 = x1' x2 + x2' y2``
    with ``r' = (r - 1) / 2``: the coefficient comes from
    ``[x]_{r^y1'} = x + 2^(ct-1) y1' x (x-1) (mod 2^at)``.
    """
    if outer.group != inner.group:
        raise AutomorphismError("cannot compose automorphisms of different groups")
    G = outer.group
    at, bt, ct = tilde_exponents(G)
    if ct < bt:
        raise AutomorphismError(f"reduced composition needs ct >= bt, got ct={ct}, bt={bt}")
    r_half = (G.r - 1) // 2 if G.r != 1 else 0
    x1, y1, x2, y2 = inner.x1, inner.y1, inner.x2, inner.y2
    h1 = outer.x1 * (x1 + r_half * outer.y1 * x1 * (x1 - 1)) + outer.x2 * y1
    h2 = outer.x1 * x2 + outer.x2 * y2
    return AutoParams(
        h1,
        outer.y1 * x1 + outer.y2 * y1,
        h2,
        outer.y1 * x2 + outer.y2 * y2,
        G,
    )


def _solve_2x2(a11: int, a12: int, a21: int, a22: int, b1: int, b2: int, mod: int) -> "tuple[int, int]":
    """Solve an odd-determinant 2x2 linear system modulo ``mod`` (a power of two)."""
    det = a11 * a22 - a12 * a21
    if det % 2 == 0:
        raise AutomorphismError("2x2 system has even determinant")
    det_inv = pow(det % mod, -1, mod) if mod > 1 else 0
    u = (a22 * b1 - a12 * b2) * det_inv % mod
    v = (a11 * b2 - a21 * b1) * det_inv % mod
    return u, v


def inverse(params: AutoParams) -> AutoParams:
    """Inverse parameters, from ``compose(inverse, params) = identity``.

    The y-slots of the composite are linear in the outer y-parameters and the
    x-slots become linear in the outer x-parameters once those are known, so
    two 2x2 solves suffice.
    """
    G = params.group
    n, m = G.n, G.m
    if m == 1:
        return AutoParams(pow(params.x1, -1, n) if n > 1 else 0, 0, 0, 0, G)
    # y-slots: y1' x1 + y2' y1 = 0, y1' x2 + y2' y2 = 1  (mod m)
    y1p, y2p = _solve_2x2(params.x1, params.y1, params.x2, params.y2, 0, 1, m)
    # x-slots: with (y1', y2') fixed the geometric sums are constants.
    ry1 = G.rpow(y1p)
    ry2 = G.rpow(y2p)
    c11 = geom_sum_mod(ry1, params.x1, n)
    c12 = pow(G.r, (y1p * params.x1) % m, n) * geom_sum_mod(ry2, params.y1, n)
    c21 = geom_sum_mod(ry1, params.x2, n)
    c22 = pow(G.r, (y1p * params.x2) % m, n) * geom_sum_mod(ry2, params.y2, n)
    x1p, x2p = _solve_2x2(c11, c12, c21, c22, 1, 0, n)
    inv = AutoParams(x1p, y1p, x2p, y2p, G)
    check = compose(inv, params)
    if check != identity_params(G):
        raise AutomorphismError(f"inversion failed for {params}: got {check}")
    return inv


@dataclass(frozen=True, eq=False)
class AutGroup(Sequence):
    """All of ``Aut(G)`` as four int64 arrays, one row per ``sigma(x1,y1;x2,y2)``.

    Rows run in lexicographic ``(x1, y1, x2, y2)`` order; indexing a row
    gives its ``AutoParams``.
    """

    group: Metacyclic
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray

    def __len__(self) -> int:
        return int(self.x1.size)

    def __getitem__(self, k: int) -> AutoParams:
        x1, y1, x2, y2 = (int(c[k]) for c in (self.x1, self.y1, self.x2, self.y2))
        return AutoParams(x1, y1, x2, y2, self.group)

    def __iter__(self) -> Iterator[AutoParams]:
        for row in zip(self.x1.tolist(), self.y1.tolist(), self.x2.tolist(), self.y2.tolist()):
            yield AutoParams(*row, self.group)

    def images(self, g_idx: int, rows: "Optional[np.ndarray]" = None) -> np.ndarray:
        """Encoded image of the element ``g_idx`` under every automorphism, or under ``rows``."""
        cols = (self.x1, self.y1, self.x2, self.y2)
        x1, y1, x2, y2 = cols if rows is None else (c[rows] for c in cols)
        u, v = divmod(int(g_idx), self.group.m)
        return _images(self.group, x1, y1, x2, y2, u, v)


@lru_cache(maxsize=None)
def aut_group(group: Metacyclic) -> AutGroup:
    """Every validated parameter tuple, built from the progressions the constraints allow.

    ``x1`` runs over the odd residues, ``y1`` and ``x2`` over the multiples of
    ``2^(bt-ct)`` and ``2^(at-bt)``, and ``y2`` over its target modulo
    ``2^mu``, ``mu = min(at-ct, bt)`` (the target depends on ``y1`` in the
    corner case); one vectorised filter then keeps the odd determinants.
    """
    at, bt, ct = tilde_exponents(group)
    n, m = group.n, group.m
    x1 = np.arange(1, n, 2, dtype=np.int64)
    if bt == 0:
        zero = np.zeros_like(x1)
        return AutGroup(group, x1, zero, zero, zero)
    y1 = np.arange(0, m, 1 << max(bt - ct, 0), dtype=np.int64)
    x2 = np.arange(0, n, 1 << max(at - bt, 0), dtype=np.int64)
    mu = max(min(at - ct, bt), 0)
    shift = 1 << (at - ct - 1) if bt == at - ct else 0  # the corner case: deg2(y1) = at - 2 ct
    offset = np.array([1 + shift * (deg2(y) + ct == at - ct) for y in y1.tolist()]) % (1 << mu)
    y2 = offset[:, None] + (np.arange(m >> mu, dtype=np.int64) << mu)[None, :]
    # axes (x1, y1, x2, y2 offset); y2 varies with y1 through the corner case
    grid = (x1[:, None, None, None], y1[None, :, None, None], x2[None, None, :, None],
            y2[None, :, None, :])
    keep = (grid[0] * grid[3] - grid[2] * grid[1]) % 2 == 1
    return AutGroup(group, *(np.broadcast_to(a, keep.shape)[keep] for a in grid))


# -- restriction to <a^2, b> and lifting --------------------------------------


@dataclass(frozen=True)
class PlusRestriction:
    """The restriction of an automorphism to ``<a^2, b>`` in its own coordinates."""

    parent_params: AutoParams
    presentation: IndexTwoPresentation
    params: AutoParams  # on the standalone L(n/2, m; r)


def restrict_to_plus(params: AutoParams) -> PlusRestriction:
    """Restrict to ``<a^2, b>``: ``a^2 -> (a^2)^(x1(1+r^y1)/2) b^(2 y1)``, ``b -> (a^2)^(x2/2) b^y2``.

    Requires ``x2`` even, i.e. the automorphism preserves ``<a^2, b>``; an odd
    ``x2`` moves ``b`` off the subgroup and is reported as an error.
    """
    G = params.group
    if params.x2 % 2:
        raise AutomorphismError(
            f"{params} does not preserve <a^2, b>: x2 = {params.x2} is odd"
        )
    pres = plus_presentation(G, "a2_b")
    sub = pres.group
    x1p = params.x1 * (1 + G.rpow(params.y1)) // 2
    restricted = AutoParams(x1p, 2 * params.y1, params.x2 // 2, params.y2, sub)
    # Pointwise agreement through the coordinate maps, on the generators.
    for h in (sub.alpha(), sub.beta()):
        via_parent = apply(params, pres.include(h))
        via_sub = pres.include(apply(restricted, h))
        if via_parent != via_sub:
            raise AutomorphismError(
                f"restriction mismatch at {h}: parent gives {via_parent}, subgroup {via_sub}"
            )
    return PlusRestriction(params, pres, restricted)


def lifts_to_whole(plus_params: AutoParams, parent: Metacyclic) -> bool:
    """Whether an automorphism of ``<a^2, b>`` extends to the whole group.

    On ``D(a,b,c)`` the criterion is: the ``y1`` slot is even and
    ``deg2(y2 - 1) >= a - c``.
    """
    pres = plus_presentation(parent, "a2_b")
    if plus_params.group != pres.group:
        raise AutomorphismError(
            f"parameters live on {plus_params.group}, expected {pres.group}"
        )
    a, _, c = tilde_exponents(parent)
    return plus_params.y1 % 2 == 0 and deg2(plus_params.y2 - 1) >= a - c


def find_lift(plus_params: AutoParams, parent: Metacyclic) -> AutoParams:
    """An explicit preimage under restriction (exists iff ``lifts_to_whole``)."""
    if not lifts_to_whole(plus_params, parent):
        raise AutomorphismError(f"{plus_params} does not lift to {parent}")
    G = parent
    q1 = plus_params.y1 // 2
    scale = (1 + G.rpow(q1)) // 2  # odd, since r = 1 (mod 4)
    n_half = G.n // 2
    p1 = plus_params.x1 * pow(scale, -1, n_half) % n_half
    candidates = (p1, p1 + n_half)
    for p1_lift in candidates:
        tau = AutoParams(p1_lift, q1, 2 * plus_params.x2, plus_params.y2, G)
        if not validate(tau):
            continue
        if restrict_to_plus(tau).params == plus_params:
            return tau
    raise AutomorphismError(f"no lift found for {plus_params}")


# -- conjugation calculus on the normal form ----------------------------------


def normal_form_params(sub: Metacyclic, z: int, w: int) -> AutoParams:
    """``sigma(z,1;0,w)``: ``a^2 -> (a^2)^z b``, ``b -> b^w`` on the plus subgroup."""
    return AutoParams(z, 1, 0, w, sub)


@dataclass(frozen=True)
class ConjugationResult:
    ok: bool
    z_prime: "Optional[int]"
    w_prime: "Optional[int]"
    failed: "tuple[str, ...]"

    def __bool__(self) -> bool:
        return self.ok


def conjugate_normal_form(
    tau_plus: AutoParams, z: int, w: int, parent: Metacyclic
) -> ConjugationResult:
    """Conjugate ``sigma(z,1;0,w)`` by a restriction ``tau_plus = sigma(p1,q1;p2,q2)``.

    Returns ``sigma(z',1;0,w')`` data when the conjugate stays in normal form,
    which happens exactly when ``deg2(p2) >= a-2`` and
    ``p1 - q2 = (z - w) q1 (mod 2^b)``; then ``z' = z + p2`` and ``w' = w``.
    Otherwise reports which of the four defining congruences fail.
    """
    pres = plus_presentation(parent, "a2_b")
    sub = pres.group
    if tau_plus.group != sub:
        raise AutomorphismError(f"tau+ must live on {sub}")
    if not lifts_to_whole(tau_plus, parent):
        raise AutomorphismError(f"{tau_plus} is not the restriction of any Aut+ element")
    if (z + 1) % 4:
        raise AutomorphismError(f"normal form needs z = -1 (mod 4), got z={z}")
    a, b, _ = tilde_exponents(parent)
    mod_x = 1 << (a - 1)
    mod_y = 1 << b
    p1, q1, p2, q2 = tau_plus.x1, tau_plus.y1, tau_plus.x2, tau_plus.y2

    sigma = normal_form_params(sub, z, w)
    conj = compose(compose(tau_plus, sigma), inverse(tau_plus))
    in_form = conj.x2 % mod_x == 0 and conj.y1 % mod_y == 1 % mod_y
    z_new, w_new = conj.x1, conj.y2

    # The four defining congruences for tau+ . sigma(z,1;0,w) = sigma(z',1;0,w') . tau+.
    r = sub.r
    lhs1 = (p1 * geom_sum_mod(sub.rpow(q1), z, mod_x) + sub.rpow(q1 * z) * p2) % mod_x
    failed = []
    if (lhs1 - z_new * geom_sum_mod(r, p1, mod_x)) % mod_x:
        failed.append("conj-1")
    if (p2 * w - z_new * p2) % mod_x:
        failed.append("conj-2")
    if (q1 * z + q2 - p1 - w_new * q1) % mod_y:
        failed.append("conj-3")
    if (q2 * w - p2 - w_new * q2) % mod_y:
        failed.append("conj-4")

    if not in_form:
        # Identify the obstruction against the closed-form criterion.
        reasons = []
        if deg2(p2) < a - 2:
            reasons.append(f"deg2(p2)={deg2(p2)} < a-2={a - 2}")
        if (p1 - q2 - (z - w) * q1) % mod_y:
            reasons.append("p1 - q2 != (z - w) q1 (mod 2^b)")
        return ConjugationResult(False, None, None, tuple(failed) or tuple(reasons))

    if failed:
        raise AutomorphismError(
            f"conjugate is in normal form but congruences {failed} fail: inconsistency"
        )
    # Closed-form consistency: z' = z + p2 with deg2(p2) >= a-2, w' = w.
    if deg2(p2) < a - 2 or (z_new - z - p2) % mod_x or (w_new - w) % mod_y:
        raise AutomorphismError(
            "conjugation result disagrees with the closed form: "
            f"z={z}, p2={p2}, z'={z_new}, w={w}, w'={w_new}"
        )
    return ConjugationResult(True, z_new % mod_x, w_new % mod_y, ())
