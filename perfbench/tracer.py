"""Spans around the calls into each layer of ``rbcm``, recorded from outside.

``install`` replaces the public functions named in ``LAYERS`` by wrappers
that record a span (name, start, end, parent) per call, plus the counts
named in ``COUNTERS``.  Spans stay in memory (compact arrays) until
``Tracer.save`` writes them out; ``Tracer.metrics`` derives every per-layer
metric from them.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path, span name).  Modules are reached through
# importlib because ``rbcm.classify`` names the re-exported function.
LAYERS = [
    ("rbcm.groups", "Metacyclic.mul_vec", "groups.mul_vec"),
    ("rbcm.groups", "Metacyclic.mul_vec_outer", "groups.mul_vec_outer"),
    ("rbcm.groups", "Metacyclic.closure_idx", "groups.closure_idx"),
    ("rbcm.autos", "aut_group", "autos.aut_group"),
    ("rbcm.autos", "as_perm", "autos.as_perm"),
    ("rbcm.maps", "CayleyMap.__init__", "maps.CayleyMap"),
    ("rbcm.maps", "check_skew", "maps.check_skew"),
    ("rbcm.maps", "genus", "maps.genus"),
    ("rbcm.maps", "_face_count", "maps._face_count"),
    ("rbcm.maps", "are_isomorphic", "maps.are_isomorphic"),
    ("rbcm.maps", "quotient_map", "maps.quotient_map"),
    ("rbcm.maps", "generator_orbit", "maps.generator_orbit"),
    ("rbcm.maps", "is_regular", "maps.is_regular"),
    ("rbcm.maps", "map_automorphism_count", "maps.map_automorphism_count"),
    ("rbcm.maps", "balance_data", "maps.balance_data"),
    ("rbcm.classify", "realize", "classify.realize"),
    ("rbcm.classify", "solve", "classify.solve"),
    ("rbcm.classify", "distinct", "classify.distinct"),
    ("rbcm.classify", "quotient_cross_check", "classify.quotient_cross_check"),
    ("rbcm.brute", "enumerate_rbcm", "brute.enumerate_rbcm"),
    ("rbcm.brute", "naive_enumerate_rbcm", "brute.naive_enumerate_rbcm"),
    ("rbcm.brute", "automorphism_perms", "brute.automorphism_perms"),
    ("rbcm.brute", "subgroup_automorphism_perms", "brute.subgroup_automorphism_perms"),
    ("rbcm.cli", "main", "cli.main"),
]


def _size(result) -> int:
    return int(np.size(result))


def _darts(args) -> int:
    cmap = args[0]
    return cmap.group.order * cmap.d


# span name -> (counter name, count(args, result), combine)
COUNTERS = {
    "groups.mul_vec": ("groups.mul_vec.elements", lambda a, r: _size(r), "sum"),
    "groups.mul_vec_outer": ("groups.mul_vec_outer.elements", lambda a, r: _size(r), "sum"),
    "groups.closure_idx": ("groups.closure_idx.elements", lambda a, r: _size(r), "sum"),
    "autos.aut_group": ("autos.aut_group.size", lambda a, r: len(r), "max"),
    "maps.check_skew": (
        "maps.check_skew.sampled",
        lambda a, r: int(getattr(r, "pair_mode", None) == "sampled"),
        "sum",
    ),
    "maps._face_count": ("maps.genus.darts", lambda a, r: _darts(a), "sum"),
    "classify.distinct": ("classify.distinct.pairs", lambda a, r: r.pair_count, "sum"),
    "brute.enumerate_rbcm": ("brute.maps_found", lambda a, r: len(r), "sum"),
    "brute.naive_enumerate_rbcm": ("brute.maps_found", lambda a, r: len(r), "sum"),
}

# reported metric -> ("s" | "calls", span name) or ("count", counter name)
METRICS = {
    "groups.mul_vec_outer.s": ("s", "groups.mul_vec_outer"),
    "groups.mul_vec_outer.elements": ("count", "groups.mul_vec_outer.elements"),
    "groups.closure_idx.s": ("s", "groups.closure_idx"),
    "groups.closure_idx.calls": ("calls", "groups.closure_idx"),
    "groups.closure_idx.elements": ("count", "groups.closure_idx.elements"),
    "groups.mul_vec.s": ("s", "groups.mul_vec"),
    "groups.mul_vec.calls": ("calls", "groups.mul_vec"),
    "groups.mul_vec.elements": ("count", "groups.mul_vec.elements"),
    "autos.aut_group.s": ("s", "autos.aut_group"),
    "autos.aut_group.size": ("count", "autos.aut_group.size"),
    "autos.as_perm.s": ("s", "autos.as_perm"),
    "autos.as_perm.calls": ("calls", "autos.as_perm"),
    "maps.check_skew.s": ("s", "maps.check_skew"),
    "maps.check_skew.calls": ("calls", "maps.check_skew"),
    "maps.check_skew.sampled": ("count", "maps.check_skew.sampled"),
    "maps.genus.s": ("s", "maps.genus"),
    "maps.genus.darts": ("count", "maps.genus.darts"),
    "maps.are_isomorphic.s": ("s", "maps.are_isomorphic"),
    "maps.are_isomorphic.calls": ("calls", "maps.are_isomorphic"),
    "maps.quotient_map.s": ("s", "maps.quotient_map"),
    "maps.generator_orbit.s": ("s", "maps.generator_orbit"),
    "maps.CayleyMap.s": ("s", "maps.CayleyMap"),
    "maps.CayleyMap.calls": ("calls", "maps.CayleyMap"),
    "maps.is_regular.s": ("s", "maps.is_regular"),
    "maps.is_regular.calls": ("calls", "maps.is_regular"),
    "maps.map_automorphism_count.s": ("s", "maps.map_automorphism_count"),
    "maps.balance_data.calls": ("calls", "maps.balance_data"),
    "classify.realize.s": ("s", "classify.realize"),
    "classify.realize.calls": ("calls", "classify.realize"),
    "classify.solve.s": ("s", "classify.solve"),
    "classify.distinct.s": ("s", "classify.distinct"),
    "classify.distinct.pairs": ("count", "classify.distinct.pairs"),
    "classify.quotient_cross_check.s": ("s", "classify.quotient_cross_check"),
    "brute.enumerate_rbcm.s": ("s", "brute.enumerate_rbcm"),
    "brute.naive_enumerate_rbcm.s": ("s", "brute.naive_enumerate_rbcm"),
    "brute.automorphism_perms.s": ("s", "brute.automorphism_perms"),
    "brute.subgroup_automorphism_perms.s": ("s", "brute.subgroup_automorphism_perms"),
    "brute.maps_found": ("count", "brute.maps_found"),
    "cli.main.s": ("s", "cli.main"),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self.name_ids: "dict[str, int]" = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counts: "dict[str, int]" = defaultdict(int)
        self._stack: "list[int]" = []
        self._depth: "list[int]" = []

    def install(self) -> None:
        """Wrap every layer function that exists; a missing one reads 0."""
        for module_name, path, name in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"perfbench: {module_name}.{path} not found; {name} reads 0", file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(fn, name))

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.name_ids[name] = nid
        self._depth.append(0)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            i = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.outermost.append(self._depth[nid] == 0)
            self.end.append(0.0)
            self._depth[nid] += 1
            stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                stack.pop()
                self._depth[nid] -= 1
            if counter is not None:
                key, count, combine = counter
                value = count(args, result)
                if combine == "max":
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )

    def metrics(self) -> "dict[str, float]":
        """Inclusive seconds (outermost spans only) and call counts per name."""
        name = np.asarray(self.span_name)
        outer = np.asarray(self.outermost).astype(bool)
        dur = np.asarray(self.end) - np.asarray(self.start)
        k = len(self.names)
        seconds = np.bincount(name[outer], weights=dur[outer], minlength=k)
        calls = np.bincount(name, minlength=k)
        out = {}
        for metric, (kind, key) in METRICS.items():
            nid = self.name_ids.get(key)
            if kind == "s":
                out[metric] = float(seconds[nid]) if nid is not None else 0.0
            elif kind == "calls":
                out[metric] = int(calls[nid]) if nid is not None else 0
            else:
                out[metric] = int(self.counts.get(key, 0))
        return out
