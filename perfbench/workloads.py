"""The benchmark's workloads: the operations of one round, as plain data.

An operation is one classify call for one triple (driven through
``rbcm.cli.main``) or one enumeration for one group.  Each workload makes a
different layer dominate; README.md has the table.
"""

from __future__ import annotations

import os
import random

WORKLOADS = {
    # the largest order whose skew law is swept over all N^2 pairs
    "classify-d945-full": {
        "ops": [("classify", 9, 4, 5, "full")],
        "workers": 2,
    },
    # sampled sweep; genus tracing, distinct and Aut(G) dominate
    "classify-d1046-full": {
        "ops": [("classify", 10, 4, 6, "full")],
        "workers": 1,
    },
    # the largest supported order on the fast path, plus a no-existence triple
    "classify-d1156-fast": {
        "ops": [("classify", 11, 5, 6, "fast"), ("classify", 11, 6, 5, "fast")],
        "workers": 1,
    },
    # the oracle tier: structured enumeration, cross-checked by the naive one
    "oracle-enum": {
        "ops": [
            ("enumerate", "L(8,2,3)"),
            ("enumerate", "L(16,2,9)"),
            ("enumerate", "L(16,2,7)"),
            ("enumerate", "Z4"),
            ("enumerate", "Z8"),
            ("enumerate", "Z2xZ4"),
            ("naive", "Z4"),
            ("naive", "Z8"),
            ("naive", "Z2xZ4"),
        ],
        "workers": 1,
    },
}

# Map counts of the structured enumeration, pinned from the seed commit.  The
# count on L(8,2,3) was confirmed once by the naive enumeration (78 s); the
# counts on Z4, Z8 and Z2xZ4 are confirmed in every round by the naive one.
ENUMERATION_COUNTS = {
    "L(8,2,3)": 5,
    "L(16,2,9)": 4,
    "L(16,2,7)": 7,
    "Z4": 1,
    "Z8": 2,
    "Z2xZ4": 3,
}


def round_ops(workload: str, seed: int) -> "list[tuple]":
    """The operations of one round, in an order drawn from the seed."""
    ops = list(WORKLOADS[workload]["ops"])
    random.Random(seed).shuffle(ops)
    return ops


def worker_count(workload: str) -> int:
    return min(WORKLOADS[workload]["workers"], os.cpu_count() or 1)


def op_label(op: tuple) -> str:
    if op[0] == "classify":
        return f"classify D({op[1]},{op[2]},{op[3]}) {op[4]}"
    return f"{op[0]} {op[1]}"
