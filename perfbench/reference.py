"""Reference figures kept out of the workloads, because each takes minutes.

    python3 perfbench/reference.py [d1156-full] [naive-l823] [tier1]

Run from the root of a checkout.  Prints one line per figure:

* ``d1156-full``: ``rbcm classify --a 11 --b 5 --c 6 --verify-level full``
  with two workers, checked by ``checker.py``;
* ``naive-l823``: ``brute.naive_enumerate_rbcm`` on ``L(8,2,3)``, which must
  agree up to isomorphism with the structured enumeration;
* ``tier1``: the repository's Tier-1 test command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checker
import workloads

ROOT = Path.cwd()
PY = sys.executable


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([PY, "-c", code], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout


def d1156_full() -> str:
    t0 = time.perf_counter()
    out = _python("from rbcm import cli; cli.main(['--workers', '2', 'classify', '--a', '11',"
                  " '--b', '5', '--c', '6', '--verify-level', 'full'])")
    wall = time.perf_counter() - t0
    checker.check_classify(json.loads(out), np.random.default_rng(0), 1 << 16)
    return f"D(11,5,6) full, 2 workers: {wall:.1f} s, output checked"


def naive_l823() -> str:
    code = ("import json, time; from rbcm import brute, groups\n"
            "G = groups.parse_group('L(8,2,3)'); t0 = time.perf_counter()\n"
            "naive = brute.naive_enumerate_rbcm(G); wall = time.perf_counter() - t0\n"
            "found = brute.enumerate_rbcm(G, exhaustive=True)\n"
            "print(json.dumps([wall, [m.to_json_dict() for m in naive],"
            " [m.to_json_dict() for m in found]]))")
    wall, naive, found = json.loads(_python(code).splitlines()[-1])
    rng = np.random.default_rng(0)
    expected = workloads.ENUMERATION_COUNTS["L(8,2,3)"]
    agree = checker.check_enumeration(naive, expected, rng) == checker.check_enumeration(
        found, expected, rng)
    return f"naive_enumerate_rbcm L(8,2,3): {wall:.1f} s, {len(naive)} maps, agrees: {agree}"


def tier1() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([PY, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return f"Tier-1: {wall:.1f} s ({tail})"


FIGURES = {"d1156-full": d1156_full, "naive-l823": naive_l823, "tier1": tier1}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(FIGURES):
        print(FIGURES[name](), flush=True)
