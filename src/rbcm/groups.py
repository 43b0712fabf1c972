"""Split metacyclic groups ``L(n, m; r)`` with exact normal-form arithmetic.

Elements are written ``a^x b^y`` (``0 <= x < n``, ``0 <= y < m``) subject to
``a^n = b^m = 1`` and ``b a b^-1 = a^r``.  The defining identities are

* ``b^y a^x = a^(x * r^y) b^y``
* ``(a^x1 b^y1)(a^x2 b^y2) = a^(x1 + x2 r^y1) b^(y1 + y2)``
* ``(a^x b^y)^u = a^(x [u]_{r^y}) b^(yu)`` with ``[u]_s`` the geometric sum

and every operation reduces straight back to normal form, so equality is
coordinate equality.  Heavy verification loops use the integer encoding
``idx = x * m + y`` and numpy, via the ``*_vec`` methods.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .twoadic import geom_sum_mod

PERM_REPRESENTATION_MAX_ORDER = 1 << 16


class GroupError(ValueError):
    """Invalid descriptor, element, or subgroup request."""


@dataclass(frozen=True)
class Metacyclic:
    """Descriptor of ``L(n, m; r) = <a, b | a^n = b^m = 1, b a b^-1 = a^r>``."""

    n: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise GroupError(f"need n, m >= 1, got n={self.n}, m={self.m}")
        object.__setattr__(self, "r", self.r % self.n)
        if pow(self.r, self.m, self.n) != 1 % self.n:
            raise GroupError(
                f"r^m = 1 (mod n) violated: r={self.r}, m={self.m}, n={self.n}"
            )

    # -- basic structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return self.n * self.m

    @property
    def is_abelian(self) -> bool:
        return self.r == 1 % self.n

    def identity(self) -> "GroupElement":
        return GroupElement(0, 0, self)

    def el(self, x: int, y: int) -> "GroupElement":
        return GroupElement(x % self.n, y % self.m, self)

    def alpha(self) -> "GroupElement":
        return self.el(1, 0)

    def beta(self) -> "GroupElement":
        return self.el(0, 1)

    def elements(self) -> Iterator["GroupElement"]:
        for x in range(self.n):
            for y in range(self.m):
                yield GroupElement(x, y, self)

    def __str__(self) -> str:
        return f"L({self.n},{self.m},{self.r})"

    # -- element arithmetic --------------------------------------------------

    def _check_member(self, g: "GroupElement") -> None:
        if g.group != self:
            raise GroupError(f"element {g} of {g.group} used in {self}")

    def rpow(self, y: int) -> int:
        """``r**y mod n`` for any integer ``y`` (negative via ``r**m = 1``)."""
        return pow(self.r, y % self.m if self.m > 1 else 0, self.n)

    def mul(self, g1: "GroupElement", g2: "GroupElement") -> "GroupElement":
        self._check_member(g1)
        self._check_member(g2)
        x = (g1.x + g2.x * self.rpow(g1.y)) % self.n
        return GroupElement(x, (g1.y + g2.y) % self.m, self)

    def inv(self, g: "GroupElement") -> "GroupElement":
        # Closed form: (a^x b^y)^-1 = a^(-x r^-y) b^-y.
        self._check_member(g)
        x = (-g.x * self.rpow(-g.y)) % self.n
        return GroupElement(x, (-g.y) % self.m, self)

    def pow(self, g: "GroupElement", u: int) -> "GroupElement":
        """``g**u`` via ``(a^x b^y)^u = a^(x [u]_{r^y}) b^(yu)``; negative u via the inverse."""
        self._check_member(g)
        if u < 0:
            return self.pow(self.inv(g), -u)
        s = self.rpow(g.y)
        x = (g.x * geom_sum_mod(s, u, self.n)) % self.n
        return GroupElement(x, (g.y * u) % self.m, self)

    def commutator(self, g1: "GroupElement", g2: "GroupElement") -> "GroupElement":
        """``[g1, g2] = g1 g2 g1^-1 g2^-1``, an ``a``-power by the group law."""
        self._check_member(g1)
        self._check_member(g2)
        x = g1.x * (1 - self.rpow(g2.y)) - g2.x * (1 - self.rpow(g1.y))
        return GroupElement(x % self.n, 0, self)

    def element_order(self, g: "GroupElement") -> int:
        self._check_member(g)
        oy = self.m // math.gcd(g.y, self.m)
        head = self.pow(g, oy)  # lands in <a>
        ox = self.n // math.gcd(head.x, self.n)
        return oy * ox

    def conj(self, g: "GroupElement", h: "GroupElement") -> "GroupElement":
        """``g h g^-1``."""
        return self.mul(self.mul(g, h), self.inv(g))

    # -- integer encoding and vectorized arithmetic --------------------------

    def encode(self, g: "GroupElement") -> int:
        return g.x * self.m + g.y

    def code(self, x: int, y: int) -> int:
        """The code of ``a^x b^y`` for any integers ``x`` and ``y``."""
        return x % self.n * self.m + y % self.m

    def decode(self, idx: int) -> "GroupElement":
        x, y = divmod(int(idx), self.m)
        return GroupElement(x, y, self)

    @cached_property
    def _rpow_table(self) -> np.ndarray:
        return np.array([pow(self.r, y, self.n) for y in range(self.m)], dtype=np.int64)

    @cached_property
    def _pow2_masks(self) -> "Optional[tuple[int, int]]":
        # n, m powers of two let the reductions run as bitwise ands
        if self.n & (self.n - 1) == 0 and self.m & (self.m - 1) == 0:
            return self.n - 1, self.m - 1
        return None

    def _modn(self, arr: np.ndarray) -> np.ndarray:
        masks = self._pow2_masks
        return arr & masks[0] if masks else arr % self.n

    def _modm(self, arr: np.ndarray) -> np.ndarray:
        masks = self._pow2_masks
        return arr & masks[1] if masks else arr % self.m

    def _decode_vec(self, a: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        masks = self._pow2_masks
        if masks:
            return a >> self.m.bit_length() - 1, a & masks[1]
        return a // self.m, a % self.m

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of encoded element arrays (broadcasting allowed)."""
        x1, y1 = self._decode_vec(a)
        x2, y2 = self._decode_vec(b)
        x = self._modn(x1 + x2 * self._rpow_table[y1])
        return x * self.m + self._modm(y1 + y2)

    def mul_vec_outer(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Product table ``rows[i] * cols[j]`` with the decodes hoisted out."""
        x1, y1 = self._decode_vec(rows)
        x2, y2 = self._decode_vec(cols)
        x1, y1 = x1[:, None], y1[:, None]
        x2, y2 = x2[None, :], y2[None, :]
        x = self._modn(x1 + x2 * self._rpow_table[y1])
        return x * self.m + self._modm(y1 + y2)

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        x, y = a // self.m, a % self.m
        yi = self._modm(-y)
        xi = self._modn(-x * self._rpow_table[yi])
        return xi * self.m + yi

    def all_idx(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def closure_idx(self, gens: "list[int] | np.ndarray") -> np.ndarray:
        """Encoded elements of the subgroup generated by ``gens`` (sorted)."""
        gens = np.asarray(sorted(set(int(g) for g in gens)), dtype=np.int64)
        if gens.size == 0:
            return np.array([0], dtype=np.int64)
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        frontier = sorted_unique(np.concatenate([gens, self.inv_vec(gens)]))
        member[frontier] = True
        while frontier.size:
            prod = self.mul_vec(frontier[:, None], gens[None, :]).ravel()
            fresh = sorted_unique(prod[~member[prod]])
            member[fresh] = True
            frontier = fresh
        return np.flatnonzero(member).astype(np.int64)

    def generates(self, gens: "list[int] | np.ndarray") -> bool:
        """Whether the encoded elements ``gens`` generate the group.

        When ``n`` and ``m`` are powers of two the answer is closed-form.
        ``a^x b^y -> (x mod 2, y mod 2)`` is then a homomorphism onto
        ``F_2^k``, where ``k`` counts the factors of order above 1; as the
        group is ``k``-generated, its kernel is the Frattini subgroup.  By
        the Burnside basis theorem (Gorenstein, Finite Groups, Thm 5.1.1)
        ``gens`` generate exactly when their parity vectors span ``F_2^k``,
        that is, when they take at least ``k`` distinct nonzero values.
        Other groups fall back to ``closure_idx``.
        """
        gens = np.asarray(gens, dtype=np.int64)
        if self._pow2_masks is None:
            return self.closure_idx(gens).size == self.order
        x, y = self._decode_vec(gens)
        parities = np.bincount((x & 1) * 2 + (y & 1), minlength=4)
        return np.count_nonzero(parities[1:]) >= (self.n > 1) + (self.m > 1)

    # -- permutation representation (left-regular action) --------------------

    def perm_representation(self) -> "PermRepresentation":
        if self.order > PERM_REPRESENTATION_MAX_ORDER:
            raise GroupError(
                f"group of order {self.order} too large for the permutation oracle"
            )
        return PermRepresentation(self)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a`` in ascending order, by one sort and a mask.

    ``np.unique`` gives the same, but its first call in a process imports
    ``numpy.ma`` (numpy 2.4), which costs more than most calls here.
    """
    s = np.sort(a)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


@lru_cache(maxsize=None)
def geom_table(group: Metacyclic) -> np.ndarray:
    """Read-only ``T[y, u] = [u]_(r^y) mod n`` of shape ``(m, n)``, cached per group.

    Row ``y`` holds the prefix sums of the powers of ``r^y``; the powers are
    filled by doubling, ``(r^y)^(k+j) = (r^y)^j (r^y)^k``.  When ``n`` is a
    power of two, ``[u + n]_s = [u]_s (mod n)`` for every odd ``s``, so
    ``T[y, u % n]`` serves any ``u >= 0``.
    """
    n, m = group.n, group.m
    powers = np.ones((m, n), dtype=np.int64)
    k = 1
    while k < n:
        step = group._rpow_table[(np.arange(m) * k) % m][:, None]  # (r^y)^k
        width = min(k, n - k)
        powers[:, k : k + width] = powers[:, :width] * step % n
        k *= 2
    table = np.zeros((m, n), dtype=np.int64)
    np.cumsum(powers[:, :-1], axis=1, out=table[:, 1:])
    table %= n
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class GroupElement:
    """``a^x b^y`` in normal form (``0 <= x < n``, ``0 <= y < m``)."""

    x: int
    y: int
    group: Metacyclic

    def __post_init__(self) -> None:
        if not (0 <= self.x < self.group.n and 0 <= self.y < self.group.m):
            raise GroupError(f"element ({self.x},{self.y}) not in normal form for {self.group}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.mul(self, other)

    def __pow__(self, u: int) -> "GroupElement":
        return self.group.pow(self, u)

    def inverse(self) -> "GroupElement":
        return self.group.inv(self)

    def order(self) -> int:
        return self.group.element_order(self)

    def is_identity(self) -> bool:
        return self.x == 0 and self.y == 0

    def __repr__(self) -> str:
        return format_element(self)


class PermRepresentation:
    """Left-regular action oracle: each ``g`` acts on encoded elements by ``h -> g h``."""

    def __init__(self, group: Metacyclic):
        self.group = group

    def perm(self, g: GroupElement) -> np.ndarray:
        self.group._check_member(g)
        gi = np.int64(self.group.encode(g))
        return self.group.mul_vec(gi, self.group.all_idx())

    def perm_order(self, g: GroupElement) -> int:
        p = self.perm(g)
        ident = self.group.all_idx()
        k, q = 1, p
        while not np.array_equal(q, ident):
            q = p[q]
            k += 1
        return k

    def mul_oracle(self, g1: GroupElement, g2: GroupElement) -> GroupElement:
        """Product read off from composing the two permutations."""
        p = self.perm(g1)[self.perm(g2)]
        return self.group.decode(int(p[0]))


# -- subgroups ---------------------------------------------------------------


class Subgroup:
    """Intensional subgroup: generators plus an O(1) membership predicate."""

    def __init__(
        self,
        group: Metacyclic,
        generators: "tuple[GroupElement, ...]",
        tag: str,
        order: int,
    ):
        self.group = group
        self.generators = tuple(generators)
        self.tag = tag
        self.order = order
        if group.order % order:
            raise GroupError(f"subgroup order {order} does not divide {group.order}")
        self.index = group.order // order

    def contains(self, g: GroupElement) -> bool:
        self.group._check_member(g)
        return bool(self.contains_vec(np.int64(self.group.encode(g))))

    def __contains__(self, g: GroupElement) -> bool:
        return self.contains(g)

    def elements(self) -> Iterator[GroupElement]:
        for g in self.group.elements():
            if self.contains(g):
                yield g

    def member_idx(self) -> np.ndarray:
        idx = self.group.all_idx()
        mask = self.contains_vec(idx)
        return idx[mask]

    def contains_vec(self, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def is_normal(self) -> bool:
        G = self.group
        conjugators = [G.alpha(), G.beta()]
        conjugators += [G.inv(g) for g in conjugators]
        return all(
            self.contains(G.conj(c, s)) for c in conjugators for s in self.generators
        )

    def __repr__(self) -> str:
        return f"Subgroup({self.tag} of {self.group})"


class ParitySubgroup(Subgroup):
    """Kernel of one of the three parity functionals x, y, x+y (mod 2)."""

    def __init__(self, group: Metacyclic, tag: str):
        gens = {
            "a2_b": (group.el(2, 0), group.beta()),
            "a_b2": (group.alpha(), group.el(0, 2)),
            "a2_ab": (group.el(2, 0), group.el(1, 1)),
        }[tag]
        super().__init__(group, gens, tag, group.order // 2)

    def contains_vec(self, idx: np.ndarray) -> np.ndarray:
        x, y = idx // self.group.m, idx % self.group.m
        if self.tag == "a2_b":
            return x % 2 == 0
        if self.tag == "a_b2":
            return y % 2 == 0
        return (x + y) % 2 == 0


class PowerSubgroup(Subgroup):
    """``<a^(2^k)>`` or ``<a^(2^k), b^(2^j)>``; the shapes quotiented in the pipeline."""

    def __init__(self, group: Metacyclic, k: int, j: "Optional[int]" = None):
        ak = 1 << k
        if group.n % ak:
            raise GroupError(f"2^{k} does not divide n={group.n}")
        gens = [group.el(ak, 0)]
        bj = None
        if j is not None:
            bj = 1 << j
            if group.m % bj:
                raise GroupError(f"2^{j} does not divide m={group.m}")
            gens.append(group.el(0, bj))
        order = (group.n // ak) * (group.m // bj if bj else 1)
        tag = f"a^{ak}" + (f",b^{bj}" if bj else "")
        super().__init__(group, tuple(gens), tag, max(order, 1))
        self._ak = ak
        self._bj = bj

    def contains_vec(self, idx: np.ndarray) -> np.ndarray:
        x, y = idx // self.group.m, idx % self.group.m
        ok = x % self._ak == 0
        if self._bj is None:
            return ok & (y == 0)
        return ok & (y % self._bj == 0)


def index2_subgroups(group: Metacyclic) -> "list[Subgroup]":
    """All index-2 subgroups: ``<a^2,b>`` if ``n`` is even, ``<a,b^2>`` if
    ``m`` is even, and ``<a^2,ab>`` if both are (0, 1 or 3 of them)."""
    out: list[Subgroup] = []
    if group.n % 2 == 0:
        out.append(ParitySubgroup(group, "a2_b"))
    if group.m % 2 == 0:
        out.append(ParitySubgroup(group, "a_b2"))
    if group.n % 2 == 0 and group.m % 2 == 0:
        out.append(ParitySubgroup(group, "a2_ab"))
    return out


def _verify_homomorphism(src: Metacyclic, dst: Metacyclic, f_vec, name: str) -> None:
    """Raise ``GroupError`` unless ``f_vec`` (encoded ``src`` to encoded ``dst``)
    is a homomorphism.

    Checks ``f(h s) = f(h) f(s)`` for every ``h`` and each generator ``s``
    of ``src``; induction on word length then gives ``f(h h') = f(h) f(h')``
    for all ``h, h'``.
    """
    idx = src.all_idx()
    images = f_vec(idx)
    for gen in (src.alpha(), src.beta()):
        s = src.encode(gen)
        if not np.array_equal(f_vec(src.mul_vec(idx, np.int64(s))), dst.mul_vec(images, images[s])):
            raise GroupError(f"{name} is not a homomorphism at the generator {gen}")


# -- the index-2 subgroup <a^2, b> as a standalone metacyclic group -----------


@dataclass(frozen=True)
class IndexTwoPresentation:
    """``<a^2, b>`` of ``L(n, m; r)`` re-presented as the standalone ``L(n/2, m; r)``.

    ``include`` and ``retract`` are mutually inverse coordinate maps between
    the standalone group and the subgroup inside the parent; ``verify``
    certifies both (the scalar forms go through ``include_vec`` and
    ``retract_vec``).
    """

    parent: Metacyclic
    group: Metacyclic

    def include(self, h: GroupElement) -> GroupElement:
        self.group._check_member(h)
        return self.parent.decode(self.include_vec(np.int64(self.group.encode(h))))

    def include_vec(self, idx: np.ndarray) -> np.ndarray:
        x, y = idx // self.group.m, idx % self.group.m
        return 2 * x * self.parent.m + y

    def retract(self, g: GroupElement) -> GroupElement:
        self.parent._check_member(g)
        return self.group.decode(self.retract_vec(np.int64(self.parent.encode(g))))

    def retract_vec(self, idx: np.ndarray) -> np.ndarray:
        """Encoded parent elements to encoded elements of the standalone group;
        ``GroupError`` if any of them lies outside ``<a^2, b>``."""
        x, y = idx // self.parent.m, idx % self.parent.m
        outside = x % 2 == 1
        if np.any(outside):
            g = self.parent.decode(int(np.asarray(idx)[outside].flat[0]))
            raise GroupError(f"{g} is not in <a^2, b>")
        return x // 2 * self.group.m + y

    def verify(self) -> None:
        """Check that ``include`` is an injective homomorphism and ``retract``
        its inverse on the image."""
        H = self.group
        idx = H.all_idx()
        if np.any(np.diff(np.sort(self.include_vec(idx))) == 0):
            raise GroupError("inclusion is not injective")
        if not np.array_equal(self.retract_vec(self.include_vec(idx)), idx):
            raise GroupError("retraction does not invert the inclusion")
        _verify_homomorphism(H, self.parent, self.include_vec, "inclusion")


@lru_cache(maxsize=None)
def plus_presentation(group: Metacyclic) -> IndexTwoPresentation:
    """Standalone presentation ``L(n/2, m; r)`` of ``<a^2, b>``, verified once
    and cached per group."""
    if group.n % 2:
        raise GroupError(f"n must be even for <a^2,b>, got {group}")
    sub = Metacyclic(group.n // 2, group.m, group.r % max(group.n // 2, 1))
    pres = IndexTwoPresentation(group, sub)
    pres.verify()
    return pres


# -- quotients ----------------------------------------------------------------


@dataclass(frozen=True)
class QuotientPresentation:
    """Quotient by ``<a^(2^k)>`` or ``<a^(2^k), b^(2^j)>`` with its projection."""

    parent: Metacyclic
    group: Metacyclic

    def project(self, g: GroupElement) -> GroupElement:
        self.parent._check_member(g)
        return self.group.decode(self.project_vec(np.int64(self.parent.encode(g))))

    def project_vec(self, idx: np.ndarray) -> np.ndarray:
        x, y = idx // self.parent.m, idx % self.parent.m
        return (x % self.group.n) * self.group.m + (y % self.group.m)

    def verify(self) -> None:
        """Check that the projection is a homomorphism."""
        _verify_homomorphism(self.parent, self.group, self.project_vec, "projection")


def quotient(group: Metacyclic, xi: PowerSubgroup) -> QuotientPresentation:
    """Quotient descriptor plus verified projection; ``xi`` must be normal."""
    if xi.group != group:
        raise GroupError("subgroup belongs to a different group")
    if not xi.is_normal():
        raise GroupError(f"{xi} is not normal in {group}")
    nq = xi._ak
    mq = xi._bj if xi._bj is not None else group.m
    pres = QuotientPresentation(group, Metacyclic(nq, mq, group.r % max(nq, 1)))
    pres.verify()
    return pres


# -- textual syntax -----------------------------------------------------------

_ELEMENT_RE = re.compile(r"^\s*(?:1|(?:a\^?(-?\d+))?\s*(?:b\^?(-?\d+))?)\s*$")
_GROUP_L_RE = re.compile(r"^L\(\s*(\d+)\s*,\s*(\d+)\s*[,;]\s*(\d+)\s*\)$")
_GROUP_D_RE = re.compile(r"^D\(\s*(\d+)\s*,\s*(\d+)\s*[,;]\s*(\d+)\s*\)$")
_GROUP_Z_RE = re.compile(r"^Z\(?(\d+)\)?(?:\s*x\s*Z\(?(\d+)\)?)?$", re.IGNORECASE)


def format_element(g: GroupElement) -> str:
    return f"a^{g.x} b^{g.y}"


def parse_element(group: Metacyclic, text: str) -> GroupElement:
    m = _ELEMENT_RE.match(text)
    if not m or (m.group(1) is None and m.group(2) is None and "1" not in text):
        raise GroupError(f"cannot parse element {text!r}")
    x = int(m.group(1)) if m.group(1) else 0
    y = int(m.group(2)) if m.group(2) else 0
    return group.el(x, y)


@dataclass(frozen=True)
class DeltaParams:
    """The 2-power family ``D(a,b,c) = L(2^a, 2^b; 1+2^c)``.

    Valid when ``max(2, a-b) <= c <= a-3`` and ``b != c``.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise GroupError(f"a, b, c must be positive, got ({a},{b},{c})")
        if c < max(2, a - b):
            raise GroupError(f"max(2, a-b) <= c violated: a={a}, b={b}, c={c}")
        if c > a - 3:
            raise GroupError(f"c <= a-3 violated: a={a}, c={c}")
        if b == c:
            raise GroupError(f"b != c violated: b={b}, c={c}")

    def group(self) -> Metacyclic:
        return Metacyclic(1 << self.a, 1 << self.b, 1 + (1 << self.c))

    @classmethod
    def of(cls, group: Metacyclic) -> "Optional[DeltaParams]":
        """The ``(a, b, c)`` with ``D(a,b,c)`` equal to ``group`` as a descriptor, or None."""
        exps = (group.n.bit_length() - 1, group.m.bit_length() - 1, (group.r - 1).bit_length() - 1)
        try:
            params = cls(*exps)
        except GroupError:
            return None
        return params if params.group() == group else None

    def __str__(self) -> str:
        return f"D({self.a},{self.b},{self.c})"


def parse_group(text: str) -> Metacyclic:
    """Parse ``L(n,m,r)``, ``D(a,b,c)``, ``Z8`` or ``Z2xZ4`` descriptors."""
    s = text.strip()
    m = _GROUP_L_RE.match(s)
    if m:
        return Metacyclic(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _GROUP_D_RE.match(s)
    if m:
        return DeltaParams(int(m.group(1)), int(m.group(2)), int(m.group(3))).group()
    m = _GROUP_Z_RE.match(s)
    if m:
        n = int(m.group(1))
        k = int(m.group(2)) if m.group(2) else 1
        return Metacyclic(n, k, 1)
    raise GroupError(f"cannot parse group descriptor {text!r}")


def abelianization_invariants(group: Metacyclic) -> "tuple[int, int]":
    """Orders ``(gcd(r-1, n), m)`` of the abelianization ``Z_(r-1,n) x Z_m``."""
    return (math.gcd(group.r - 1, group.n), group.m)
