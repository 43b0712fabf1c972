"""Independent oracles: exhaustive map and automorphism enumeration.

Nothing here reuses the structured classification machinery as a source of
truth: automorphisms come from generator-image scans, regularity from arc
propagation counts, and map enumeration either from the definitional scan
over generating sequences (the naive tier) or from the coset-extension scan
organized over index-2 subgroups.  Outputs re-verify from definitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import autos, maps
from .groups import (
    DeltaParams,
    GroupElement,
    GroupError,
    Metacyclic,
    index2_subgroups,
    plus_presentation,
)
from .maps import BalanceData, CayleyMap, SkewMorphism, orbit_walk, perm_cycles, perm_order


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits enforced before and during searches.

    ``max_order=None`` leaves each search its own ceiling on the group order.
    """

    max_order: "Optional[int]" = None
    time_limit_s: "Optional[float]" = None


class BudgetExceeded(RuntimeError):
    """A search hit its budget; ``partial`` holds the maps found so far, up to isomorphism."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []


def _check_order(G: Metacyclic, budget: SearchBudget, ceiling: int) -> None:
    """Refuse ``G`` above the budget's order limit, or above ``ceiling`` if it sets none."""
    limit = ceiling if budget.max_order is None else budget.max_order
    if G.order > limit:
        raise BudgetExceeded(f"order {G.order} exceeds the budget {limit}")


@dataclass
class FoundMap:
    cmap: CayleyMap
    skew: SkewMorphism
    balance: BalanceData

    def to_json_dict(self) -> dict:
        doc = maps.map_to_json_dict(self.cmap, self.skew)
        doc["t"] = self.balance.t
        doc["ell"] = self.balance.ell
        doc["type"] = self.balance.map_type
        doc["valency"] = self.cmap.d
        return doc


# -- automorphism enumeration by generator images ------------------------------

MAX_AUT_CANDIDATES = 5_000_000  # (image of a, image of b) pairs scanned at most


def enumerate_automorphisms(
    G: Metacyclic, budget: SearchBudget = SearchBudget()
) -> "list[tuple[GroupElement, GroupElement]]":
    """All (image of a, image of b) pairs preserving the relations and generating.

    A candidate pair induces the map ``a^x b^y -> A^x B^y``; the relations
    make it a homomorphism and bijectivity makes it an automorphism.
    """
    _check_order(G, budget, 1 << 12)
    orders = {g: G.element_order(g) for g in G.elements()}
    a_cands = [g for g, o in orders.items() if o == G.element_order(G.alpha())]
    b_cands = [g for g, o in orders.items() if o == G.element_order(G.beta())]
    if len(a_cands) * len(b_cands) > MAX_AUT_CANDIDATES:
        raise BudgetExceeded(
            f"{len(a_cands)}x{len(b_cands)} candidate pairs exceed the budget"
        )
    out = []
    for A in a_cands:
        A_r = G.pow(A, G.r)
        for B in b_cands:
            if G.mul(G.mul(B, A), G.inv(B)) != A_r:
                continue
            perm = _pair_perm(G, A, B)
            if np.bincount(perm, minlength=G.order).max() == 1:
                out.append((A, B))
    return out


def _pair_perm(G: Metacyclic, A: GroupElement, B: GroupElement) -> np.ndarray:
    """The endomorphism ``a^x b^y -> A^x B^y`` as an index array."""
    a_pows = np.empty(G.n, dtype=np.int64)
    cur = G.identity()
    for x in range(G.n):
        a_pows[x] = G.encode(cur)
        cur = G.mul(cur, A)
    b_pows = np.empty(G.m, dtype=np.int64)
    cur = G.identity()
    for y in range(G.m):
        b_pows[y] = G.encode(cur)
        cur = G.mul(cur, B)
    idx = G.all_idx()
    return G.mul_vec(a_pows[idx // G.m], b_pows[idx % G.m])


_PERM_CACHE: "dict[Metacyclic, list[np.ndarray]]" = {}


def automorphism_perms(G: Metacyclic, budget: SearchBudget = SearchBudget()) -> "list[np.ndarray]":
    if G not in _PERM_CACHE:
        _PERM_CACHE[G] = [
            _pair_perm(G, A, B) for A, B in enumerate_automorphisms(G, budget)
        ]
    return _PERM_CACHE[G]


# -- generic subgroup automorphisms --------------------------------------------


def _generating_sequence(G: Metacyclic, members: np.ndarray) -> "list[int]":
    member_set = set(members.tolist())
    for g in members:
        if g and _span(G, [int(g)], member_set):
            return [int(g)]
    for g in members:
        if not g:
            continue
        for h in members:
            if h and _span(G, [int(g), int(h)], member_set):
                return [int(g), int(h)]
    raise GroupError("subgroup needs more than two generators")


def _span(G: Metacyclic, gens: "list[int]", member_set: set) -> bool:
    closed = G.closure_idx(gens)
    return closed.size == len(member_set) and set(closed.tolist()) == member_set


def subgroup_automorphism_perms(G: Metacyclic, members: np.ndarray) -> "list[np.ndarray]":
    """Automorphisms of a subgroup (as permutations of parent-encoded members).

    Candidates are order-matching generator images, extended breadth-first
    over the subgroup's Cayley graph; consistency of the extension makes the
    map a homomorphism, and bijectivity an automorphism.
    """
    gens = _generating_sequence(G, members)
    member_list = [int(v) for v in members.tolist()]
    orders = {v: G.element_order(G.decode(v)) for v in member_list}
    out = []
    cand_lists = [[v for v in member_list if orders[v] == orders[g]] for g in gens]

    def bfs(images: "list[int]") -> "Optional[np.ndarray]":
        fmap = np.full(G.order, -1, dtype=np.int64)
        fmap[0] = 0
        queue = [0]
        while queue:
            v = queue.pop()
            for g, img in zip(gens, images):
                w = int(G.mul_vec(np.int64(v), np.int64(g)))
                wi = int(G.mul_vec(np.int64(fmap[v]), np.int64(img)))
                if fmap[w] < 0:
                    fmap[w] = wi
                    queue.append(w)
                elif fmap[w] != wi:
                    return None
        vals = fmap[members]
        if np.any(vals < 0) or len(set(vals.tolist())) != members.size:
            return None
        return fmap

    def rec(i: int, images: "list[int]") -> Iterator[np.ndarray]:
        if i == len(gens):
            fmap = bfs(images)
            if fmap is not None:
                yield fmap
            return
        for cand in cand_lists[i]:
            yield from rec(i + 1, images + [cand])

    for fmap in rec(0, []):
        out.append(fmap)
    return out


# -- canonical forms and deduplication ------------------------------------------


def _canonical_form(cmap: CayleyMap, aut_perms: "list[np.ndarray] | np.ndarray") -> tuple:
    """Lexicographically least rotated image of the generator cycle over Aut(G).

    ``aut_perms`` is a list of permutations or their stacked array: one
    gather gives every image, each row is rotated to its least code, and
    ``lexsort`` (first column primary) picks the least row.
    """
    images = np.asarray(aut_perms)[:, cmap.omega_idx]
    d = images.shape[1]
    starts = images.argmin(axis=1)[:, None]
    rolled = np.take_along_axis(images, (starts + np.arange(d)) % d, axis=1)
    return tuple(rolled[np.lexsort(rolled.T[::-1])[0]].tolist())


def _dedupe(found: "list[FoundMap]", aut_perms: "list[np.ndarray]") -> "list[FoundMap]":
    stacked = np.asarray(aut_perms)
    seen = {}
    for fm in found:
        key = _canonical_form(fm.cmap, stacked)
        if key not in seen:
            seen[key] = fm
    return [seen[k] for k in sorted(seen)]


def _reverify(G: Metacyclic, cycles: np.ndarray) -> "list[FoundMap]":
    """The maps among encoded candidate cycles of one length, in their
    order, re-checked from definitions alone.

    Inverse closure is tested first, in ``O(d)`` per row, then
    ``CayleyMap``'s other checks (distinct codes, no identity, generation).
    The rows that pass propagate together (``maps.regular_orderings``), and
    balance is read off each regular one.
    """
    R, d = cycles.shape
    at = np.arange(R)[:, None]
    pos = np.full((R, G.order), -1, dtype=np.int64)
    pos[at, cycles] = np.arange(d)
    ok = np.all(pos[at, G.inv_vec(cycles)] >= 0, axis=1)
    # distinct codes (a repeated code keeps only its last position), no identity
    ok &= np.all(pos[at, cycles] == np.arange(d), axis=1) & np.all(cycles != 0, axis=1)
    rows = [k for k in np.flatnonzero(ok) if G.generates(cycles[k])]
    found = []
    for skew in maps.regular_orderings(G, cycles[rows]):
        bal = maps.balance_data(skew.cmap)
        if bal is not None:
            found.append(FoundMap(skew.cmap, skew, bal))
    return found


def _reverify_once(
    G: Metacyclic, cycles: "list[list[int]]", seen: "set[tuple]"
) -> "list[FoundMap]":
    """The maps among ``cycles``, each rotation class re-verified once.

    A cycle is skipped if a rotation of it was sent before: ``seen`` holds
    each sent cycle rotated to start at its least code.  The rest go to
    ``_reverify`` in one stacked call per length, so the maps come out
    grouped by valency, in their order within each valency.
    """
    by_length: "dict[int, list[list[int]]]" = {}
    for cycle in cycles:
        start = cycle.index(min(cycle))
        key = tuple(cycle[start:] + cycle[:start])
        if key not in seen:
            seen.add(key)
            by_length.setdefault(len(cycle), []).append(cycle)
    return [fm for same in by_length.values() for fm in _reverify(G, np.array(same))]


# -- structured enumeration over index-2 subgroups -------------------------------


def enumerate_rbcm(
    G: Metacyclic, budget: SearchBudget = SearchBudget(), exhaustive: bool = False
) -> "list[FoundMap]":
    """All regular t-balanced maps on ``G`` up to isomorphism.

    The balanced arm scans automorphism orbits (the rotation of a balanced
    map extends to an automorphism).  The ``t > 1`` arm scans triples of an
    index-2 subgroup ``H`` (the kernel-to-be), an automorphism of ``H``, and
    seeds ``omega_d, omega_1`` off ``H``; the skew-morphism is forced to be
    ``phi(h * omega_d) = phi(h) * omega_1`` on the coset; the orbits of all
    seed pairs of one automorphism are walked at once (``_coset_orbits``).
    With ``exhaustive=True`` every output is also re-certified by the
    arc-image counting oracle.

    Both arms send each candidate cycle to ``_reverify`` once up to
    rotation.  A rotation of the cycle re-indexes the same map: same
    ``Omega``, same ``rho``.  Inverse closure, generation, regularity and
    t-balance are properties of the map, so ``_reverify``'s verdict is the
    same on every rotation.  The canonical form is the least rotation over
    ``Aut(G)``, so every rotation has the same key, and ``_dedupe`` keeps
    the first map found per key: the one the skip keeps.  The output is
    therefore unchanged.  ``_reverify_once`` checks the cycles of one
    length in one stacked call and keeps their order; a canonical key is a
    cycle, so ``_dedupe`` only ever compares maps of one valency, and the
    output is the one a cycle-by-cycle loop gives.
    """
    _check_order(G, budget, 64)
    start = time.monotonic()
    aut_perms = automorphism_perms(G, SearchBudget(max_order=max(64, G.order)))
    found: "list[FoundMap]" = []
    seen: "set[tuple]" = set()
    _balanced_arm(G, aut_perms, start, budget, found, seen)

    # t > 1 arm: kernel subgroup + automorphism + coset seeds
    for H in index2_subgroups(G):
        members = H.member_idx()
        for hperm in subgroup_automorphism_perms(G, members):
            _check_time(start, budget, found, aut_perms)
            found.extend(_reverify_once(G, _coset_orbits(G, members, hperm), seen))

    result = _dedupe(found, aut_perms)
    if exhaustive:
        for fm in result:
            count = maps.map_automorphism_count(fm.cmap)
            if count != G.order * fm.cmap.d:
                raise AssertionError(
                    f"arc-image count {count} contradicts regularity of {fm.cmap}"
                )
    return result


def _balanced_arm(
    G: Metacyclic, aut_perms: "list[np.ndarray]", start: float, budget: SearchBudget,
    found: "list[FoundMap]", seen: "set[tuple]",
) -> None:
    """Append the maps whose rotation extends to an automorphism: the
    inverse-closed generating cycles of ``aut_perms``, each rotation class
    once (``seen``)."""
    for perm in aut_perms:
        found.extend(_reverify_once(G, [c for c in perm_cycles(perm) if 0 not in c], seen))
        _check_time(start, budget, found, aut_perms)


def _complement(G: Metacyclic, members: np.ndarray) -> np.ndarray:
    """The encoded elements of ``G`` outside ``members``, ascending."""
    outside = np.ones(G.order, dtype=bool)
    outside[members] = False
    return np.flatnonzero(outside)


def _coset_orbits(G: Metacyclic, members: np.ndarray, hperm: np.ndarray) -> "list[list[int]]":
    """The cycle ``(omega_1, .., omega_d)`` of every seed pair ``(omega_d,
    omega_1)`` off the index-2 subgroup ``H`` (``members``), in that order.

    The pair fixes ``phi``: ``hperm`` on ``H`` and ``phi(h omega_d) =
    hperm(h) omega_1`` on the coset.  One gather builds every pair's
    ``phi``, and the orbits of ``omega_d`` advance in lockstep for up to
    ``|G|`` steps; the first return to ``omega_d`` fixes ``d``, and a pair
    whose orbit does not return gives no cycle.
    """
    coset = _complement(G, members)
    C, N = coset.size, G.order
    phi = np.empty((C * C, N), dtype=np.int64)  # row i C + j: (omega_d, omega_1) = coset[i, j]
    phi[:, members] = hperm[members]
    shifted = hperm[G.mul_vec(coset[None, :], G.inv_vec(coset)[:, None])]
    phi[:, coset] = G.mul_vec(shifted[:, None, :], coset[None, :, None]).reshape(C * C, C)
    seeds = np.repeat(coset, C)
    rows = np.arange(C * C)
    walk = np.empty((C * C, N), dtype=np.int64)
    d = np.zeros(C * C, dtype=np.int64)
    cur = seeds
    for step in range(N):
        cur = walk[:, step] = phi[rows, cur]
        d[(cur == seeds) & (d == 0)] = step + 1
        if d.all():
            break
    walks = walk[:, : step + 1].tolist()
    return [walks[k][: d[k]] for k in np.flatnonzero(d)]


def _check_time(start: float, budget: SearchBudget, partial, aut_perms) -> None:
    """Raise ``BudgetExceeded`` past the time limit, with ``partial`` deduplicated."""
    if budget.time_limit_s is not None and time.monotonic() - start > budget.time_limit_s:
        raise BudgetExceeded("time limit exceeded", _dedupe(partial, aut_perms))


# -- naive definitional enumeration ----------------------------------------------


def naive_enumerate_rbcm(
    G: Metacyclic, budget: SearchBudget = SearchBudget()
) -> "list[FoundMap]":
    """Scan all balanced-compatible generating sequences; regularity by propagation.

    Generating sets are inverse-closed subsets; for each size ``d`` the
    orderings are generated directly from the involution structure
    ``iota(i) = ell + t i`` (the only orderings that can satisfy the balance
    identity), with the least generator pinned at the first position so each
    cyclic ordering appears once.  The checks on the set (no identity,
    inverse-closed, generating) run once per set; all its orderings then
    propagate together (``maps.regular_orderings``).  Survivors are
    certified with the arc-image counting oracle.
    """
    _check_order(G, budget, 32)
    start = time.monotonic()
    codes = G.all_idx()[1:]  # every element but the identity, encoded
    inverses = G.inv_vec(codes)
    involutions = codes[inverses == codes].tolist()
    pairs = [(g, gi) for g, gi in zip(codes.tolist(), inverses.tolist()) if g < gi]

    aut_perms = automorphism_perms(G, SearchBudget(max_order=max(64, G.order)))
    found: "list[FoundMap]" = []
    for inv_mask in range(1 << len(involutions)):
        chosen_inv = [g for i, g in enumerate(involutions) if inv_mask >> i & 1]
        for pair_mask in range(1 << len(pairs)):
            chosen_pairs = [p for i, p in enumerate(pairs) if pair_mask >> i & 1]
            omega_set = chosen_inv + [g for p in chosen_pairs for g in p]
            if not omega_set or not G.generates(omega_set):
                continue
            _check_time(start, budget, found, aut_perms)
            orderings = _balanced_orderings(
                chosen_inv, chosen_pairs, len(omega_set), min(omega_set)
            )
            for skew in maps.regular_orderings(G, orderings):
                bal = maps.balance_data(skew.cmap)
                if bal is not None:
                    found.append(FoundMap(skew.cmap, skew, bal))

    result = _dedupe(found, aut_perms)
    for fm in result:
        count = maps.map_automorphism_count(fm.cmap)
        if count != G.order * fm.cmap.d:
            raise AssertionError("arc-image count contradicts regularity")
    return result


def _balanced_orderings(
    chosen_inv: "list[int]",
    chosen_pairs: "list[tuple[int, int]]",
    d: int,
    least: int,
) -> Iterator["list[int]"]:
    """All encoded orderings compatible with some ``iota(i) = ell + t i``, least first."""
    for t in range(1, d + 1):
        if (t * t) % d != 1 % d:
            continue
        for ell in range(1, d + 1):
            if ((t + 1) * ell) % d:
                continue
            iota = [((ell + t * (i + 1) - 1) % d) for i in range(d)]  # 0-based images
            if any(iota[iota[i]] != i for i in range(d)):
                continue
            fixed = [i for i in range(d) if iota[i] == i]
            cycles = sorted(
                {(min(i, iota[i]), max(i, iota[i])) for i in range(d) if iota[i] != i}
            )
            if len(fixed) != len(chosen_inv):
                continue
            yield from _assign(fixed, cycles, chosen_inv, chosen_pairs, d, least)


def _assign(fixed, cycles, chosen_inv, chosen_pairs, d, least):
    slots: "list[Optional[int]]" = [None] * d
    inv_used = [False] * len(chosen_inv)
    pair_used = [False] * len(chosen_pairs)

    def orbits_in_order():
        # the orbit containing position 0 goes first so the pinning prunes early
        first = [o for o in ([(f,) for f in fixed] + cycles) if 0 in o]
        rest = [o for o in ([(f,) for f in fixed] + cycles) if 0 not in o]
        return first + rest

    orbit_list = orbits_in_order()

    def rec(k: int):
        if k == len(orbit_list):
            yield list(slots)
            return
        orbit = orbit_list[k]
        if len(orbit) == 1:
            (i,) = orbit
            for idx, g in enumerate(chosen_inv):
                if inv_used[idx]:
                    continue
                if i == 0 and g != least:
                    continue
                inv_used[idx] = True
                slots[i] = g
                yield from rec(k + 1)
                inv_used[idx] = False
                slots[i] = None
        else:
            i, j = orbit
            for idx, (g, gi) in enumerate(chosen_pairs):
                if pair_used[idx]:
                    continue
                for first, second in ((g, gi), (gi, g)):
                    if i == 0 and first != least:
                        continue
                    pair_used[idx] = True
                    slots[i], slots[j] = first, second
                    yield from rec(k + 1)
                    pair_used[idx] = False
                    slots[i] = slots[j] = None
        return

    # if the least element must appear somewhere, and position 0's orbit kind
    # does not match the least element's kind, no ordering survives the pinning
    first_orbit = orbit_list[0]
    if (len(first_orbit) == 1) != (least in chosen_inv):
        return
    yield from rec(0)


# -- guided search on the 2-power family ------------------------------------------


@dataclass
class GuidedResult:
    found: "list[FoundMap]"
    exhausted: bool
    stats: "dict[str, int]" = field(default_factory=dict)


def prune_predicates(a: int, b: int, c: int, phi_plus: autos.AutoParams) -> "dict[str, bool]":
    """The necessary conditions used to prune kernel automorphism candidates."""
    mod_c1 = 1 << (c - 1)
    mod_b = 1 << b
    p = phi_plus
    return {
        "y1_odd": p.y1 % 2 == 1,
        "square_congruence": (p.x1 * p.x1 + p.x2 * p.y1 - 1) % mod_c1 == 0,
        "trace_congruence": (p.x1 + p.y2) % mod_b == 0,
        "involution_congruence": (p.y2 * p.y2 + p.x2 * p.y1 - 1) % mod_b == 0,
    }


def guided_search_delta(
    a: int, b: int, c: int, budget: SearchBudget = SearchBudget()
) -> GuidedResult:
    """Exhaustive search for maps on ``D(a,b,c)``, pruned by necessary conditions.

    The kernel must be ``<a^2, b>`` with the restricted skew-morphism among
    the automorphism candidates passing :func:`prune_predicates`; the other
    structural data is a seed pair ``(omega_d, omega_1)`` off the kernel.
    Orbits of all seed pairs are advanced in lockstep (numpy batch); a pair
    survives only if the seed's inverse shows up inside its orbit.  The
    balanced arm (rotation extending to an automorphism) is scanned as well.
    Every survivor is re-verified from definitions.
    """
    G = DeltaParams(a, b, c).group()
    _check_order(G, budget, 1 << 14)
    start = time.monotonic()
    stats = {"kernel_candidates": 0, "pairs_scanned": 0, "pairs_surviving": 0}
    found: "list[FoundMap]" = []

    aut_perms = [autos.as_perm(p) for p in autos.aut_group(G)]
    seen: "set[tuple]" = set()
    _balanced_arm(G, aut_perms, start, budget, found, seen)

    pres = plus_presentation(G)
    sub = pres.group
    cands = [
        p for p in autos.aut_group(sub) if all(prune_predicates(a, b, c, p).values())
    ]
    stats["kernel_candidates"] = len(cands)

    N, m = G.order, G.m
    kernel = pres.include_vec(sub.all_idx())
    coset = _complement(G, kernel)

    # The coset orbit of a seed omega_d factors through the twisted powers
    # T_1 = c, T_(k+1) = phi+(T_k) * c of c = omega_1 omega_d^-1: the orbit is
    # omega_i = T_i omega_d, it closes at the least d with T_d = 1, and it
    # contains omega_d^-1 exactly at positions ell with T_ell = omega_d^-2.
    # Three sound prunes follow.  (P1) omega_d^-2 must occur among the
    # twisted powers (inverse closure).  (P2) the rotation of a regular map
    # has order equal to the valency, so ord(phi+) must divide d (an
    # automorphism trivial on every vertex is trivial).  (P3) the
    # beta-exponent consequence of t-balance: gamma_(ell+ti) + gamma_i +
    # 2 y(omega_d) = 0 (mod m) for all i, where gamma_k = y(T_k), for some
    # t^2 = 1 (mod d) with (t+1) ell = 0 (mod d).
    sq_inv_sub = pres.retract_vec(G.inv_vec(G.mul_vec(coset, coset)))
    coset_y = coset % m
    L = sub.order
    valid_ts: "dict[int, list[int]]" = {}

    for phi_plus in cands:
        _check_time(start, budget, found, aut_perms)
        sub_perm = autos.as_perm(phi_plus)
        ord_plus = perm_order(sub_perm)
        phi_on_even = np.full(N, -1, dtype=np.int64)
        phi_on_even[kernel] = pres.include_vec(sub_perm)

        rows = sub.all_idx()
        c_vals = sub.all_idx()
        T = c_vals.copy()
        pos = np.zeros((L, L), dtype=np.int32)
        gamma = np.zeros((L, L + 1), dtype=np.int16)
        pos[rows, T] = 1
        gamma[rows, 0] = T % sub.m
        closure = np.zeros(L, dtype=np.int64)
        closed = T == 0
        closure[rows[closed]] = 1
        rows, c_vals, T = rows[~closed], c_vals[~closed], T[~closed]
        step = 1
        while rows.size:
            step += 1
            if step > L + 1:
                raise AssertionError("twisted-power orbit longer than the kernel")
            stats["pairs_scanned"] += int(rows.size)
            T = sub.mul_vec(sub_perm[T], c_vals)
            pos[rows, T] = step
            gamma[rows, step - 1] = T % sub.m
            closed = T == 0
            if np.any(closed):
                closure[rows[closed]] = step
                rows, c_vals, T = rows[~closed], c_vals[~closed], T[~closed]

        ell_mat = pos[:, sq_inv_sub]  # (c, omega_d) -> position of the inverse, 0 if absent
        pair_ok = (ell_mat > 0) & ((closure % ord_plus == 0) & (closure >= 2))[:, None]
        memo: "dict[tuple[int, int, int], bool]" = {}
        for c_row in np.flatnonzero(pair_ok.any(axis=1)):
            d = int(closure[c_row])
            # reconstruct the twisted-power sequence of this row, in parent coordinates
            vals = np.flatnonzero(pos[c_row] > 0)
            seq = np.empty(d, dtype=np.int64)
            seq[pos[c_row, vals] - 1] = vals
            seq_parent = pres.include_vec(seq)
            wd_cols = np.flatnonzero(pair_ok[c_row])
            # each map is seen once per orbit element; keep only the seed that
            # is minimal in its own orbit (omega_i = T_i * omega_d)
            orbit_elems = G.mul_vec_outer(seq_parent, coset[wd_cols])
            wd_cols = wd_cols[orbit_elems.min(axis=0) >= coset[wd_cols]]
            for wd_col in wd_cols:
                ell = int(ell_mat[c_row, wd_col])
                yd = int(coset_y[wd_col])
                key = (int(c_row), ell, yd)
                if key not in memo:
                    if d not in valid_ts:
                        valid_ts[d] = [t for t in range(1, d + 1) if (t * t) % d == 1 % d]
                    gam = gamma[c_row, :d].astype(np.int64)
                    memo[key] = any(
                        _beta_balance_ok(gam, d, t, ell, yd, m) for t in valid_ts[d]
                    )
                if not memo[key]:
                    continue
                # (P4) full inverse-position structure: omega_i^-1 must land in
                # the orbit at positions affine in i with a square exponent
                wd = int(coset[wd_col])
                wd_inv = int(G.inv_vec(np.array([wd], dtype=np.int64))[0])
                v = G.mul_vec(
                    np.int64(wd_inv), G.mul_vec(G.inv_vec(seq_parent), np.int64(wd_inv))
                )
                j = pos[c_row, pres.retract_vec(v)].astype(np.int64)
                if np.any(j == 0):
                    continue
                t0 = int((j[1] - j[0]) % d) if d > 1 else 1
                if (t0 * t0) % d != 1 % d:
                    continue
                if np.any((j - j[0] - t0 * np.arange(d)) % d):
                    continue
                stats["pairs_surviving"] += 1
                w1 = int(G.mul_vec(pres.include_vec(c_row), np.int64(wd)))
                phi = phi_on_even.copy()
                phi[coset] = G.mul_vec(
                    phi_on_even[G.mul_vec(coset, np.int64(wd_inv))], np.int64(w1)
                )
                orbit = orbit_walk(phi, wd)
                if orbit is None or len(orbit) != d:
                    continue
                # (P5) the derived power function must take the two values
                # {1, t}; anything else cannot be a t-balanced map with this
                # kernel, and skipping it avoids a full verification pass
                try:
                    cmap = CayleyMap(G, orbit)
                except maps.MapError:
                    continue
                pi = maps.power_function_probe(cmap, phi)
                if not set(pi.tolist()) <= {1, t0 % d or d}:
                    continue
                found.extend(_reverify_once(G, [orbit], seen))

    result = _dedupe(found, aut_perms)
    return GuidedResult(result, True, stats)


def _beta_balance_ok(gam: np.ndarray, d: int, t: int, ell: int, yd: int, m: int) -> bool:
    """Necessary balance condition on beta-exponents for offset ell and exponent t."""
    if ((t + 1) * ell) % d:
        return False
    i = np.arange(1, d + 1)
    j = (ell + t * i - 1) % d
    return bool(np.all((gam[j] + gam[i - 1] + 2 * yd) % m == 0))
