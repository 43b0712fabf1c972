"""Command-line front end: JSON on stdout, human summaries on stderr.

Exit codes: 0 success, 1 a requested verification failed, 2 usage or input
error, 3 a search budget was exceeded (partial output is flagged), 4 an
internal inconsistency (a derived identity failed: an engine bug, not bad
input).  Usage errors and a ``VerificationError`` or
``InternalInconsistency`` escaping a command print ``{"error": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import brute, maps
from .classify import InternalInconsistency, check_necessary, default_workers
from .classify import classify as run_classify
from .groups import DeltaParams, GroupError, Metacyclic, PowerSubgroup, parse_group
from .maps import MapError, VerificationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(doc: dict, summary: str) -> None:
    sys.stdout.write(maps.canonical_json(doc) + "\n")
    sys.stderr.write(summary + "\n")


def _parse_xi(G: Metacyclic, text: str) -> PowerSubgroup:
    """Parse ``a^16`` or ``a^16,b^4`` into the matching power subgroup."""
    parts = [p.strip() for p in text.split(",")]
    k = j = None
    for part in parts:
        if part.startswith("a^"):
            val = int(part[2:])
            k = val.bit_length() - 1
            if 1 << k != val:
                raise GroupError(f"a-power {val} is not a power of two")
        elif part.startswith("b^"):
            val = int(part[2:])
            j = val.bit_length() - 1
            if 1 << j != val:
                raise GroupError(f"b-power {val} is not a power of two")
        else:
            raise GroupError(f"cannot parse subgroup part {part!r}")
    if k is None:
        raise GroupError("subgroup must include an a-power")
    return PowerSubgroup(G, k, j)


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        outcome = run_classify(
            args.a, args.b, args.c, verify_level=args.verify_level, workers=args.workers
        )
    except GroupError as exc:
        _emit({"error": str(exc)}, f"invalid parameters: {exc}")
        return EXIT_USAGE
    doc = {
        "command": "classify",
        "a": args.a,
        "b": args.b,
        "c": args.c,
        "verify_level": args.verify_level,
        "existence": outcome.report.existence,
        "reason": outcome.report.reason,
        "count": len(outcome.solutions),
        "solutions": [],
    }
    ok = True
    if args.verify_level == "full":
        for r in outcome.realized:
            doc["solutions"].append(
                r.solution.to_json_dict(verified=r.verified, genus=r.embedding.genus)
            )
            ok = ok and r.verified
        doc["pairwise_distinct"] = (
            outcome.distinctness is not None
            and all(p[2] for p in outcome.distinctness.shift_route)
        ) if len(outcome.realized) > 1 else True
        doc["quotient_profiles"] = [
            {"k_prime": p.k_prime, "k": p.k, "valency": p.valency, "type": p.map_type}
            for p in outcome.profiles
        ]
        ok = ok and doc["pairwise_distinct"]
    else:
        doc["solutions"] = [s.to_json_dict() for s in outcome.solutions]
    _emit(doc, f"{len(outcome.solutions)} isomorphism classes on D({args.a},{args.b},{args.c})"
          + ("" if ok else " [VERIFICATION FAILED]"))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_bruteforce(args: argparse.Namespace) -> int:
    budget = brute.SearchBudget(
        max_order=args.max_order,
        time_limit_s=args.time_limit,
    )
    try:
        if args.guided:
            G = parse_group(args.group)
            params = DeltaParams.of(G)
            if params is None:
                raise GroupError(f"--guided needs a D(a,b,c) group, got {G}")
            result = brute.guided_search_delta(params.a, params.b, params.c, budget)
            found = result.found
            doc_extra = {"exhausted": result.exhausted, "stats": result.stats}
        else:
            G = parse_group(args.group)
            found = brute.enumerate_rbcm(G, budget, exhaustive=args.exhaustive)
            doc_extra = {"exhausted": True}
    except GroupError as exc:
        _emit({"error": str(exc)}, f"invalid group: {exc}")
        return EXIT_USAGE
    except brute.BudgetExceeded as exc:
        doc = {
            "command": "bruteforce",
            "group": args.group,
            "partial": True,
            "maps": [fm.to_json_dict() for fm in exc.partial],
        }
        _emit(doc, f"budget exceeded: {exc} ({len(exc.partial)} maps found so far)")
        return EXIT_BUDGET
    doc = {
        "command": "bruteforce",
        "group": args.group,
        "partial": False,
        "count": len(found),
        "maps": [fm.to_json_dict() for fm in found],
    }
    doc.update(doc_extra)
    _emit(doc, f"{len(found)} maps up to isomorphism on {args.group}")
    return EXIT_OK


def _load_map(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return maps.map_from_json_dict(doc)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cmap, phi_arr, pi_arr = _load_map(args.mapfile)
    except (OSError, json.JSONDecodeError, MapError, GroupError) as exc:
        _emit({"error": str(exc)}, f"cannot load map: {exc}")
        return EXIT_USAGE
    doc = {"command": "verify", "group": str(cmap.group), "valency": cmap.d}
    failures = []
    skew = None
    if phi_arr is not None:
        res = maps.check_skew(cmap, phi_arr)
        if isinstance(res, maps.SkewMorphism):
            skew = res
            doc["skew"] = "ok"
            if pi_arr is not None and not np.array_equal(res.pi, pi_arr):
                at = int(np.flatnonzero(res.pi != pi_arr)[0])
                witness = cmap.group.decode(at)
                doc["pi_table"] = f"mismatch at {witness}"
                failures.append(f"pi table mismatch at {witness}")
        else:
            doc["skew"] = f"violated at ({res.eta}, {res.mu})"
            failures.append(doc["skew"])
    else:
        skew = maps.is_regular(cmap)
        doc["regular"] = skew is not None
        if skew is None:
            failures.append("map is not regular")
    bal = maps.balance_data(cmap)
    if bal is None:
        doc["balance"] = None
        failures.append("map is not t-balanced")
    else:
        doc["balance"] = {"t": bal.t, "ell": bal.ell, "type": bal.map_type}
    emb = maps.genus(cmap)
    doc["embedding"] = {
        "vertices": emb.vertices,
        "edges": emb.edges,
        "faces": emb.faces,
        "genus": emb.genus,
    }
    if args.quotient and skew is not None and bal is not None:
        try:
            xi = _parse_xi(cmap.group, args.quotient)
            qres = maps.quotient_map(cmap, skew, xi)
            profile = maps.abelian_profile_check(qres)
            doc["quotient"] = {
                "group": str(qres.cmap.group),
                "valency": qres.cmap.d,
                "k_prime": profile.k_prime,
                "k": profile.k,
                "type": profile.map_type,
            }
        except (MapError, GroupError, VerificationError) as exc:
            doc["quotient"] = f"failed: {exc}"
            failures.append(f"quotient check failed: {exc}")
    doc["failures"] = failures
    _emit(doc, "verification " + ("passed" if not failures else f"FAILED: {failures}"))
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def cmd_quotient(args: argparse.Namespace) -> int:
    try:
        cmap, phi_arr, _ = _load_map(args.mapfile)
        if phi_arr is None:
            skew = maps.is_regular(cmap)
            if skew is None:
                raise MapError("map is not regular; no skew-morphism to quotient")
        else:
            res = maps.check_skew(cmap, phi_arr)
            if not isinstance(res, maps.SkewMorphism):
                raise MapError(f"skew table invalid at ({res.eta}, {res.mu})")
            skew = res
        xi = _parse_xi(cmap.group, args.xi)
        qres = maps.quotient_map(cmap, skew, xi)
    except (OSError, json.JSONDecodeError, MapError, GroupError) as exc:
        _emit({"error": str(exc)}, f"quotient failed: {exc}")
        return EXIT_USAGE
    except VerificationError as exc:
        _emit({"error": str(exc)}, f"quotient verification failed: {exc}")
        return EXIT_VERIFY_FAILED
    doc = {
        "command": "quotient",
        "group": str(qres.cmap.group),
        "valency": qres.cmap.d,
        "t": qres.balance.t,
        "type": qres.balance.map_type,
        "map": maps.map_to_json_dict(qres.cmap, qres.skew),
    }
    if qres.cmap.group.is_abelian and qres.cmap.group.n > 1 and qres.cmap.group.m > 1:
        profile = maps.abelian_profile_check(qres)
        doc["profile"] = {"k_prime": profile.k_prime, "k": profile.k, "type": profile.map_type}
    _emit(doc, f"quotient map on {qres.cmap.group} with valency {qres.cmap.d}")
    return EXIT_OK


def cmd_genus(args: argparse.Namespace) -> int:
    try:
        cmap, _, _ = _load_map(args.mapfile)
    except (OSError, json.JSONDecodeError, MapError, GroupError) as exc:
        _emit({"error": str(exc)}, f"cannot load map: {exc}")
        return EXIT_USAGE
    emb = maps.genus(cmap)
    doc = {
        "command": "genus",
        "group": str(cmap.group),
        "vertices": emb.vertices,
        "edges": emb.edges,
        "faces": emb.faces,
        "genus": emb.genus,
    }
    _emit(doc, f"genus {emb.genus} (V={emb.vertices}, E={emb.edges}, F={emb.faces})")
    return EXIT_OK


def cmd_info(args: argparse.Namespace) -> int:
    try:
        G = parse_group(args.group)
    except GroupError as exc:
        _emit({"error": str(exc)}, f"invalid group: {exc}")
        return EXIT_USAGE
    from .groups import abelianization_invariants, index2_subgroups_all

    doc = {
        "command": "info",
        "group": str(G),
        "order": G.order,
        "abelian": G.is_abelian,
        "abelianization": list(abelianization_invariants(G)),
        "index2_subgroups": [s.tag for s in index2_subgroups_all(G)],
    }
    params = DeltaParams.of(G)
    if params is not None:
        report = check_necessary(params.a, params.b, params.c)
        doc["classification"] = {
            "existence": report.existence,
            "reason": report.reason,
            "constraints": {k: str(v) for k, v in report.constraints.items()},
        }
    _emit(doc, f"{G}: order {G.order}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbcm",
        description="Regular t-balanced Cayley maps on split metacyclic 2-groups.",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers (default: RBCM_WORKERS or all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify maps on D(a,b,c)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--verify-level", choices=("fast", "full"), default="full")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bruteforce", help="enumerate maps on a small group")
    p.add_argument("--group", required=True, help='e.g. "Z8", "L(8,2,3)", "D(7,3,4)"')
    p.add_argument("--guided", action="store_true", help="pruned search on a D(a,b,c) group")
    p.add_argument("--exhaustive", action="store_true", help="run the slow oracle tier")
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("verify", help="verify a map JSON document")
    p.add_argument("mapfile")
    p.add_argument("--quotient", default=None, help='subgroup, e.g. "a^16"')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quotient", help="quotient a map by a power subgroup")
    p.add_argument("mapfile")
    p.add_argument("--xi", required=True, help='subgroup, e.g. "a^16" or "a^16,b^4"')
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("genus", help="embedding data of a map JSON document")
    p.add_argument("mapfile")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("info", help="group descriptor diagnostics")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: "Optional[list[str]]" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers is None:
        try:
            args.workers = default_workers()
        except ValueError as exc:
            _emit({"error": str(exc)}, f"usage error: {exc}")
            return EXIT_USAGE
    try:
        return args.func(args)
    except brute.BudgetExceeded as exc:
        _emit({"error": str(exc), "partial": True}, f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except (GroupError, MapError) as exc:
        _emit({"error": str(exc)}, f"input error: {exc}")
        return EXIT_USAGE
    except VerificationError as exc:
        _emit({"error": str(exc)}, f"verification failed: {exc}")
        return EXIT_VERIFY_FAILED
    except InternalInconsistency as exc:
        _emit({"error": str(exc)}, f"internal inconsistency: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
