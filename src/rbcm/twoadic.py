"""Exact arithmetic on residues modulo powers of two.

Everything here is plain integer arithmetic: residues are canonically kept
in ``[0, 2**e)`` and the modulus is always a power of two.  These helpers
back the group arithmetic and the congruence solving of the classification
engine, so they are deliberately small and heavily tested.
"""

from __future__ import annotations

import math

#: 2-adic valuation of zero.  ``math.inf`` compares greater than every int.
INFINITY = math.inf


def deg2(u: int) -> "int | float":
    """Largest ``k`` with ``2**k | u``; ``INFINITY`` for ``u == 0``."""
    if u == 0:
        return INFINITY
    v = abs(int(u))
    return (v & -v).bit_length() - 1


def geom_sum_mod(s: int, u: int, mod: int) -> int:
    """``1 + s + ... + s**(u-1)`` reduced modulo ``mod``, in O(log u).

    Uses the halving recursion: for even ``u`` the sum is
    ``(1 + s**(u/2)) * geom(u/2)`` and an odd step peels off one term.
    Scanning the bits of ``u`` from the top runs the recursion iteratively.
    """
    if u < 0:
        raise ValueError(f"geometric sum needs a nonnegative length, got {u}")
    if mod <= 0:
        raise ValueError(f"modulus must be positive, got {mod}")
    if mod == 1:
        return 0
    s %= mod
    total = 0  # [k]_s for the prefix k of u's bits
    power = 1  # s**k
    for bit in bin(u)[2:]:
        total = (total * (1 + power)) % mod
        power = (power * power) % mod
        if bit == "1":
            total = (total + power) % mod
            power = (power * s) % mod
    return total


def sqrt_lift(s: int, h: int, e: int, e_target: int) -> int:
    """Lift an odd square root of ``h`` modulo ``2**e`` to modulus ``2**e_target``.

    Preconditions: ``e >= 3``, ``e_target > e``, ``s`` odd and
    ``s*s = h (mod 2**e)``.  The result ``s~`` satisfies both

    * ``s~ ** 2 = h (mod 2**e_target)``
    * ``s~ = s (mod 2**(e-1))``

    The iteration repeatedly writes ``h = s~**2 + 2**j * u`` with ``j`` the
    exact valuation of the defect and replaces ``s~ <- s~ + 2**(j-1) * u``.
    For odd ``s~`` each step strictly increases ``j`` (the correction enters
    at ``2**(j-1)`` so the defect gains at least one bit), and all
    corrections are multiples of ``2**(e-1)``, which pins the second
    congruence.  The schedule is driven by the achieved valuation rather
    than a fixed per-step gain; when a step happens to clear several bits
    the loop takes the shortcut.
    """
    if e < 3:
        raise ValueError(f"base exponent must be at least 3, got {e}")
    if e_target <= e:
        raise ValueError(f"target exponent {e_target} must exceed base {e}")
    if s % 2 == 0:
        raise ValueError("square-root lifting requires an odd root")
    if (s * s - h) % (1 << e):
        raise ValueError("not a square root at base level")
    root = s
    j = deg2(h - root * root)
    while j < e_target:
        u = (h - root * root) >> j
        root += (1 << (j - 1)) * u
        root %= 1 << (e_target + 1)
        j_next = deg2(h - root * root)
        if j_next <= j:
            raise AssertionError("lifting step failed to gain a bit")
        j = j_next
    result = root % (1 << e_target)
    if (result - s) % (1 << (e - 1)):
        raise AssertionError("lift drifted away from the base root")
    return result
