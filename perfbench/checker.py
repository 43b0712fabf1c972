"""Output checker for the benchmark, independent of ``rbcm``.

It has its own arithmetic for ``a^x b^y`` in ``L(n, m; r)`` (numpy only; no
module of ``rbcm`` is imported) and checks the documents the benchmark's
operations emit:

* classify documents: from each emitted ``(z, w, u_tilde, u1, v1)`` the
  skew-morphism ``phi`` is rebuilt and checked to be a regular t-balanced
  Cayley map with the reported ``t``, ``d``, ``ell`` (and genus, at full
  verification), and the class count must be ``2^(a-c-1)`` with pairwise
  distinct ``z`` mod ``2^(a-2)``;
* enumeration documents: every map found satisfies the skew law over all
  pairs and is t-balanced, the maps of one enumeration are pairwise
  non-isomorphic, and the naive and structured enumerations agree up to
  isomorphism.

Every check raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An emitted object is not what the program claims it is."""


def _require(cond, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def deg2(u: int) -> int:
    """2-adic valuation of a non-zero integer."""
    return (u & -u).bit_length() - 1


class Group:
    """``L(n, m; r) = <a, b | a^n = b^m = 1, b a b^-1 = a^r>``.

    Elements are codes ``x * m + y`` of ``a^x b^y``.  The product follows
    from ``b^y a^x = a^(x r^y) b^y``.
    """

    def __init__(self, n: int, m: int, r: int):
        _require(n >= 1 and m >= 1 and pow(r, m, n) == 1 % n, f"L({n},{m},{r}) is not a group")
        self.n, self.m, self.r = n, m, r % n
        self.order = n * m
        self.rpow = np.array([pow(r, y, n) for y in range(m)], dtype=np.int64)

    @classmethod
    def parse(cls, text: str) -> "Group":
        found = re.fullmatch(r"L\((\d+),(\d+),(\d+)\)", text.replace(" ", ""))
        _require(found, f"cannot parse group {text!r}")
        return cls(*(int(v) for v in found.groups()))

    def code(self, x, y):
        return (np.asarray(x) % self.n) * self.m + np.asarray(y) % self.m

    def parse_element(self, text: str) -> int:
        found = re.fullmatch(r"a\^(-?\d+) b\^(-?\d+)", text.strip())
        _require(found, f"cannot parse element {text!r}")
        return int(self.code(int(found.group(1)), int(found.group(2))))

    def mul(self, g, h):
        x1, y1 = np.divmod(np.asarray(g, dtype=np.int64), self.m)
        x2, y2 = np.divmod(np.asarray(h, dtype=np.int64), self.m)
        return (x1 + x2 * self.rpow[y1]) % self.n * self.m + (y1 + y2) % self.m

    def inv(self, g):
        x, y = np.divmod(np.asarray(g, dtype=np.int64), self.m)
        yi = (-y) % self.m
        return (-x * self.rpow[yi]) % self.n * self.m + yi

    def powers(self, g: int, count: int) -> np.ndarray:
        """``g^0, g^1, ..., g^(count-1)`` by repeated multiplication."""
        out = np.zeros(count, dtype=np.int64)
        for i in range(1, count):
            out[i] = self.mul(out[i - 1], g)
        return out

    def closure_size(self, gens: np.ndarray) -> int:
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            fresh = np.zeros(self.order, dtype=bool)
            fresh[self.mul(frontier[:, None], gens[None, :]).ravel()] = True
            fresh &= ~member
            member |= fresh
            frontier = np.flatnonzero(fresh)
        return int(member.sum())

    def self_check(self, rng: np.random.Generator) -> None:
        """The presentation's relations and associativity on a sample."""
        a, b = int(self.code(1, 0)), int(self.code(0, 1))
        _require(self.powers(a, self.n + 1)[-1] == 0, "a^n != 1")
        _require(self.powers(b, self.m + 1)[-1] == 0, "b^m != 1")
        bab = self.mul(self.mul(b, a), self.inv(b))
        _require(bab == self.powers(a, self.r + 1)[-1], "b a b^-1 != a^r")
        g, h, k = rng.integers(0, self.order, size=(3, 512))
        _require(
            np.array_equal(self.mul(self.mul(g, h), k), self.mul(g, self.mul(h, k))),
            "multiplication is not associative",
        )
        _require(np.all(self.mul(g, self.inv(g)) == 0), "g g^-1 != 1")


def perm_power(perm: np.ndarray, k: int) -> np.ndarray:
    out = np.arange(perm.size, dtype=np.int64)
    base = perm
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return out


def automorphisms(G: Group) -> "list[np.ndarray]":
    """All automorphisms as permutations of codes, from images ``(A, B)`` of ``(a, b)``.

    ``a^x b^y -> A^x B^y`` is a homomorphism exactly when ``A, B`` satisfy the
    defining relations, and an automorphism when it is also a bijection.
    """
    x, y = np.divmod(np.arange(G.order), G.m)
    out = []
    for A in range(G.order):
        apow = G.powers(A, G.n + 1)
        if apow[-1] != 0:
            continue
        a_r = apow[G.r]
        for B in range(G.order):
            bpow = G.powers(B, G.m + 1)
            if bpow[-1] != 0 or G.mul(G.mul(B, A), G.inv(B)) != a_r:
                continue
            perm = G.mul(apow[x], bpow[y])
            if np.unique(perm).size == G.order:
                out.append(perm)
    _require(any(np.array_equal(p, np.arange(G.order)) for p in out), "identity missing from Aut(G)")
    return out


def canonical_cycle(omega: np.ndarray, auts: "list[np.ndarray]") -> tuple:
    """Least rotation of an automorphic image of the generator cycle."""
    best = None
    for perm in auts:
        img = perm[omega]
        start = int(np.argmin(img))
        key = tuple(np.roll(img, -start).tolist())
        if best is None or key < best:
            best = key
    return best


def check_cycle(
    G: Group,
    omega: np.ndarray,
    phi: np.ndarray,
    t: int,
    ell: int,
    rng: np.random.Generator,
    pairs: "int | None",
) -> np.ndarray:
    """Check that ``phi`` is a skew-morphism of ``CM(G, omega)`` and the map is t-balanced.

    ``pairs=None`` checks the skew law over all ``|G|^2`` pairs, otherwise on
    ``pairs`` seeded random pairs.  Returns the power function ``pi``, which
    must take only the values ``{1, t}``.
    """
    N, d = G.order, omega.size
    _require(np.array_equal(np.sort(phi), np.arange(N)), "phi is not a bijection")
    _require(phi[0] == 0, "phi does not fix the identity")
    _require(d >= 1 and np.unique(omega).size == d, "generators are not distinct")
    _require(np.all(omega != 0), "the identity is a generator")
    _require(
        np.array_equal(phi[omega], np.roll(omega, -1)), "phi does not rotate the generator cycle"
    )
    pos = np.full(N, -1, dtype=np.int64)
    pos[omega] = np.arange(d)
    iota = pos[G.inv(omega)]
    _require(np.all(iota >= 0), "generators are not closed under inverses")
    # a few generators usually suffice, and then the whole set generates too
    _require(
        G.closure_size(omega[:4]) == N or G.closure_size(omega) == N,
        "generators do not generate the group",
    )

    _require(t * t % d == 1 % d, f"t^2 != 1 (mod d) for t={t}, d={d}")
    i = np.arange(1, d + 1)
    _require(
        np.array_equal(iota + 1, (ell + t * i - 1) % d + 1), f"iota(i) != {ell} + {t} i"
    )

    # phi(eta omega_1) = phi(eta) phi^k(omega_1) = phi(eta) omega_(1+k) pins k = pi(eta)
    eta = np.arange(N, dtype=np.int64)
    probe = pos[G.mul(G.inv(phi), phi[G.mul(eta, omega[0])])]
    _require(np.all(probe >= 0), "phi(eta omega_1) is not phi(eta) times a generator")
    pi = np.where(probe == 0, d, probe)
    _require(set(np.unique(pi).tolist()) <= {1, t}, "pi takes values outside {1, t}")

    phi_t = perm_power(phi, t)
    if pairs is None:
        etas, mus = np.repeat(eta, N), np.tile(eta, N)
    else:
        etas, mus = rng.integers(0, N, size=(2, pairs))
    rhs_pow = np.where(pi[etas] == 1, phi[mus], phi_t[mus])
    _require(
        np.array_equal(phi[G.mul(etas, mus)], G.mul(phi[etas], rhs_pow)),
        "skew law phi(eta mu) = phi(eta) phi^pi(eta)(mu) fails",
    )
    return pi


def genus(G: Group, omega: np.ndarray) -> int:
    """Genus of ``CM(G, omega)`` from its face count: ``V - E + F = 2 - 2g``.

    The dart ``(g, i)`` is followed in its face by ``(g omega_i, iota(i) + 1)``.
    Left translations are map automorphisms, so every dart ``(g, i)`` lies on
    a face as long as the face through ``(1, i)``; with ``L_i`` that length,
    ``F = |G| * sum_i 1 / L_i``.  The ``d`` faces through the identity are
    walked side by side.
    """
    d = omega.size
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[omega] = np.arange(d)
    next_label = (pos[G.inv(omega)] + 1) % d
    start = np.arange(d)
    g, label = np.zeros(d, dtype=np.int64), start.copy()
    length = np.zeros(d, dtype=np.int64)
    steps = 0
    while np.any(length == 0):
        _require(steps < G.order * d, "a face does not close")
        g, label = G.mul(g, omega[label]), next_label[label]
        steps += 1
        length[(length == 0) & (g == 0) & (label == start)] = steps
    faces = Fraction(0)
    for L in length.tolist():
        faces += Fraction(G.order, L)
    _require(faces.denominator == 1, "face lengths do not tile the darts")
    chi = G.order - G.order * d // 2 + int(faces)
    _require(chi % 2 == 0, "odd Euler characteristic")
    return (2 - chi) // 2


# -- classify documents ---------------------------------------------------------


def rebuild(a: int, b: int, c: int, sol: dict) -> "tuple[Group, np.ndarray, np.ndarray]":
    """``(G, omega, phi)`` of the map named by ``(z, w, u_tilde, u1, v1)``.

    On ``<a^2, b>``, ``phi(a^(2X) b^y) = A^X B^y`` with ``A = a^(2z) b`` and
    ``B = b^w``; on the other coset ``phi(h omega_d) = phi(h) omega_1`` with
    ``omega_d = a^u_tilde b`` and ``omega_1 = a^(2 u1) b^v1 omega_d``.
    The generator cycle is the ``phi``-orbit of ``omega_d``.
    """
    G = Group(1 << a, 1 << b, 1 + (1 << c))
    N = G.order
    x, y = np.divmod(np.arange(N, dtype=np.int64), G.m)
    A = int(G.code(2 * sol["z"], 1))
    B = int(G.code(0, sol["w"]))
    even = x % 2 == 0
    phi = np.empty(N, dtype=np.int64)
    phi[even] = G.mul(G.powers(A, G.n // 2)[x[even] // 2], G.powers(B, G.m)[y[even]])
    omega_d = int(G.code(sol["u_tilde"], 1))
    omega_1 = int(G.mul(G.code(2 * sol["u1"], sol["v1"]), omega_d))
    odd = np.flatnonzero(~even)
    h = G.mul(odd, G.inv(omega_d))
    _require(np.all(h // G.m % 2 == 0), "omega_d is not in the odd coset")
    phi[odd] = G.mul(phi[h], omega_1)

    orbit = [int(phi[omega_d])]
    while orbit[-1] != omega_d:
        _require(len(orbit) <= N, "the orbit of omega_d does not close")
        orbit.append(int(phi[orbit[-1]]))
    return G, np.array(orbit, dtype=np.int64), phi


def check_solution(
    a: int, b: int, c: int, sol: dict, rng: np.random.Generator, pairs: int, with_genus: bool
) -> None:
    G, omega, phi = rebuild(a, b, c, sol)
    t, d, ell = sol["t"], sol["d"], sol["ell"]
    _require(omega.size == d, f"the orbit of omega_d has length {omega.size}, reported d={d}")
    check_cycle(G, omega, phi, t, ell, rng, pairs)
    _require(deg2(t + 1) >= max(b + 1, a - c + 2), f"deg2(t+1) too small for t={t}")
    if with_genus:
        _require(genus(G, omega) == sol["genus"], f"genus differs from {sol['genus']}")


def check_classify(doc: dict, rng: np.random.Generator, pairs: int) -> None:
    a, b, c = doc["a"], doc["b"], doc["c"]
    Group(1 << a, 1 << b, 1 + (1 << c)).self_check(rng)
    full = doc["verify_level"] == "full"
    sols = doc["solutions"]
    _require(doc["existence"] == (c > b), f"existence reported {doc['existence']}")
    expected = 1 << (a - c - 1) if c > b else 0
    _require(doc["count"] == len(sols) == expected, f"{len(sols)} classes, expected {expected}")
    zs = [s["z"] % (1 << (a - 2)) for s in sols]
    _require(len(set(zs)) == len(zs), "z values repeat mod 2^(a-2)")
    w = (1 - (1 << (c - 2))) % (1 << b) if sols else None
    for sol in sols:
        _require((sol["a"], sol["b"], sol["c"]) == (a, b, c), "solution of another group")
        _require((sol["z"] + 1 - (1 << (c - 2))) % (1 << (c - 1)) == 0, "z is off its residue class")
        _require(sol["w"] == w, f"w={sol['w']}, expected {w}")
        if full:
            _require(sol["verified"] is True, "solution not verified")
        check_solution(a, b, c, sol, rng, pairs, full)
    if full:
        _require(doc["pairwise_distinct"] is True, "pairwise distinctness not certified")


def self_test_classify(doc: dict, rng: np.random.Generator, pairs: int) -> None:
    """A tampered residue and a reordered generator cycle must both be rejected."""
    a, b, c = doc["a"], doc["b"], doc["c"]
    sol = doc["solutions"][0]
    tampered = dict(sol, u1=(sol["u1"] + 1) % (1 << (a - 1)))
    _expect_rejection(lambda: check_solution(a, b, c, tampered, rng, pairs, False), "tampered u1")
    G, omega, phi = rebuild(a, b, c, sol)
    _expect_rejection(
        lambda: check_cycle(G, omega[[1, 0, *range(2, omega.size)]], phi, sol["t"], sol["ell"], rng, pairs),
        "reordered generator cycle",
    )


# -- enumeration documents --------------------------------------------------------


def parse_map(doc: dict) -> "tuple[Group, np.ndarray, np.ndarray, np.ndarray]":
    G = Group.parse(doc["group"])
    omega = np.array([int(G.code(x, y)) for x, y in doc["omega"]], dtype=np.int64)
    phi = np.full(G.order, -1, dtype=np.int64)
    pi = np.full(G.order, -1, dtype=np.int64)
    for key, val in doc["skew"]["phi"].items():
        phi[G.parse_element(key)] = G.parse_element(val)
    for key, val in doc["skew"]["pi"].items():
        pi[G.parse_element(key)] = int(val)
    _require(np.all(phi >= 0) and np.all(pi >= 0), "skew tables do not cover the group")
    return G, omega, phi, pi


def check_found_map(doc: dict, rng: np.random.Generator) -> "tuple[Group, np.ndarray]":
    G, omega, phi, pi = parse_map(doc)
    t, ell, d = doc["t"], doc["ell"], omega.size
    _require(doc["valency"] == d, "valency differs from the cycle length")
    derived = check_cycle(G, omega, phi, t, ell, rng, None)
    _require(np.array_equal(derived, pi), "reported pi differs from the derived one")
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[omega] = np.arange(d)
    has_involution = bool(np.any(pos[G.inv(omega)] == np.arange(d)))
    _require((doc["type"] == "II") == has_involution, f"type {doc['type']} is wrong")
    return G, omega


def check_enumeration(maps: "list[dict]", expected_count: int, rng: np.random.Generator) -> "set[tuple]":
    """Check every map found; returns their canonical forms (all distinct)."""
    _require(len(maps) == expected_count, f"{len(maps)} maps found, expected {expected_count}")
    keys = set()
    auts = None
    for doc in maps:
        G, omega = check_found_map(doc, rng)
        if auts is None:
            auts = automorphisms(G)
            G.self_check(rng)
        keys.add(canonical_cycle(omega, auts))
    _require(len(keys) == len(maps), "two maps found are isomorphic")
    return keys


def self_test_enumeration(doc: dict, rng: np.random.Generator) -> None:
    """A reordered generator cycle and a tampered skew table must both be rejected."""
    reordered = dict(doc, omega=[doc["omega"][1], doc["omega"][0]] + doc["omega"][2:])
    _expect_rejection(lambda: check_found_map(reordered, rng), "reordered generator cycle")
    keys = sorted(doc["skew"]["phi"])
    table = dict(doc["skew"]["phi"])
    table[keys[1]], table[keys[2]] = table[keys[2]], table[keys[1]]
    tampered = dict(doc, skew=dict(doc["skew"], phi=table))
    _expect_rejection(lambda: check_found_map(tampered, rng), "tampered skew table")


def _expect_rejection(check, what: str) -> None:
    try:
        check()
    except CheckFailed:
        return
    raise CheckFailed(f"self-test: the checker accepted a {what}")
