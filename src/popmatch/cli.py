"""Command-line front end.

Exit codes: 0 = found/true, 1 = not-found/false, 2 = usage or input
error.  Output is deterministic for identical inputs; --json switches to
a stable machine-readable schema with matching pairs sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from . import (
    gale_shapley,
    level_graph,
    min_cost,
    oracles,
    unstable_popular,
    verify,
)
from .popular_edge import popular_edge
from .instance import (
    Instance,
    InstanceError,
    Matching,
    generate_random,
    parse_instance,
    parse_matching,
    serialize_instance,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            )


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _pairs(matching: Matching) -> List[List[str]]:
    return [[m, w] for m, w in matching.sorted_pairs()]


def _print_matching(matching: Matching) -> None:
    if not matching:
        print("{}")
        return
    for m, w in matching.sorted_pairs():
        print(f"{m} {w}")


def _matching_line(matching: Matching) -> str:
    if not matching:
        return "{}"
    return " ".join(f"{m},{w}" for m, w in matching.sorted_pairs())


def _certificate_json(cert: Optional[verify.Certificate]):
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "path": list(cert.path),
        "pp_edges": [list(e) for e in cert.pp_edges],
    }


def _parse_edge(text: str) -> Tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not all(parts):
        raise InstanceError(f"--edge expects 'u,v', got {text!r}")
    return parts[0], parts[1]


def _max_enum() -> Optional[int]:
    raw = os.environ.get("POPMATCH_MAX_ENUM")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InstanceError(f"POPMATCH_MAX_ENUM must be an integer, got {raw!r}")


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    if args.property == "stable":
        if args.algo not in (None, "gs"):
            raise InstanceError("--property stable only supports --algo gs")
        result = gale_shapley.run(inst)
    else:
        algo = args.algo or "level-graph"
        if algo == "gs":
            raise InstanceError("--property dominant needs --algo level-graph or two-level")
        if algo == "two-level":
            result = level_graph.dominant_two_level(inst)
        else:
            result = level_graph.dominant_via_level_graph(inst)
    if args.json:
        print(json.dumps({"matching": _pairs(result)}))
    else:
        _print_matching(result)
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    matching = parse_matching(_read(args.matching), inst)
    cert: Optional[verify.Certificate] = None
    if args.property == "stable":
        ok, pair = gale_shapley.is_stable(inst, matching)
        if pair is not None:
            cert = verify.Certificate("blocking-pair", pair, (pair,))
    elif args.property == "popular":
        ok, cert = verify.is_popular(inst, matching)
    else:
        ok, cert = verify.is_dominant(inst, matching)
    if args.json:
        print(json.dumps({"verdict": ok, "certificate": _certificate_json(cert)}))
    else:
        print("true" if ok else "false")
        if cert is not None:
            print(f"certificate: {cert.kind} " + " ".join(cert.path))
    return 0 if ok else 1


def _cmd_popular_edge(args) -> int:
    inst = _load_instance(args.instance)
    edge = _parse_edge(args.edge)
    result = popular_edge(inst, edge)
    if args.json:
        out = {"found": result is not None}
        if result is not None:
            out["matching"] = _pairs(result)
        print(json.dumps(out))
    elif result is None:
        print("no popular matching contains this edge")
    else:
        _print_matching(result)
    return 0 if result is not None else 1


def _cmd_popular_vs_stable(args) -> int:
    inst = _load_instance(args.instance)
    found = unstable_popular.exists_unstable_popular(inst, cubic=args.cubic)
    if args.json:
        if found is None:
            print(json.dumps({"all_stable": True}))
        else:
            matching, pair = found
            print(
                json.dumps(
                    {
                        "all_stable": False,
                        "matching": _pairs(matching),
                        "blocking_pair": list(pair),
                    }
                )
            )
    elif found is None:
        print("all popular matchings are stable")
    else:
        matching, pair = found
        _print_matching(matching)
        print(f"blocking pair: {pair[0]} {pair[1]}")
    return 0 if found is None else 1


def _cmd_min_cost(args) -> int:
    inst = _load_instance(args.instance)
    costs = min_cost.parse_costs(_read(args.costs), inst)
    matching, total = min_cost.min_cost_dominant(inst, costs, limit=_max_enum())
    try:
        decimal = str(float(total))
    except OverflowError:
        decimal = "inf" if total > 0 else "-inf"
    if args.json:
        print(
            json.dumps(
                {
                    "matching": _pairs(matching),
                    "cost": {
                        "numerator": total.numerator,
                        "denominator": total.denominator,
                        "decimal": decimal,
                    },
                }
            )
        )
    else:
        _print_matching(matching)
        print(f"cost: {total} ({decimal})")
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    guard = _max_enum()
    if args.what == "popular-edges":
        edges = sorted(oracles.popular_edges(inst, guard))
        if args.json:
            print(json.dumps({"edges": [list(e) for e in edges]}))
        else:
            for m, w in edges:
                print(f"{m} {w}")
        return 0
    if args.what == "matchings":
        family = oracles.enumerate_matchings(inst, guard)
    else:
        report = oracles.classify(inst, guard)
        family = {
            "stable": report.stable_set,
            "popular": report.popular_set,
            "dominant": report.dominant_set,
        }[args.what]()
    if args.json:
        print(json.dumps({"matchings": [_pairs(m) for m in family]}))
    else:
        for matching in family:
            print(_matching_line(matching))
    return 0


def _cmd_gen(args) -> int:
    try:
        inst = generate_random(args.men, args.women, args.density, args.seed)
    except ValueError as exc:
        raise InstanceError(str(exc))
    text = serialize_instance(inst)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.json:
        print(
            json.dumps(
                {
                    "written": args.output,
                    "men": len(inst.men),
                    "women": len(inst.women),
                    "edges": len(inst.edges),
                }
            )
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popmatch",
        description="Stable, popular and dominant matchings in bipartite "
        "instances with strict preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, instance: bool = True) -> None:
        if instance:
            p.add_argument("-i", "--instance", required=True, help="instance file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", help="compute a stable or dominant matching")
    p.add_argument("--property", choices=("stable", "dominant"), required=True)
    p.add_argument("--algo", choices=("gs", "level-graph", "two-level"))
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a matching against a property")
    p.add_argument("--property", choices=("stable", "popular", "dominant"), required=True)
    p.add_argument("-m", "--matching", required=True, help="matching file")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("popular-edge", help="find a popular matching through an edge")
    p.add_argument("--edge", required=True, help="edge as 'u,v'")
    common(p)
    p.set_defaults(func=_cmd_popular_edge)

    p = sub.add_parser(
        "popular-vs-stable", help="decide whether every popular matching is stable"
    )
    p.add_argument("--cubic", action="store_true", help="use the edge-pair scan")
    common(p)
    p.set_defaults(func=_cmd_popular_vs_stable)

    p = sub.add_parser("min-cost-dominant", help="minimum-cost dominant matching")
    p.add_argument("--costs", required=True, help="cost file: '<man> <woman> <cost>' lines")
    common(p)
    p.set_defaults(func=_cmd_min_cost)

    p = sub.add_parser("enumerate", help="exhaustively list matchings (guarded)")
    p.add_argument(
        "--what",
        choices=("matchings", "stable", "popular", "dominant", "popular-edges"),
        required=True,
    )
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--men", type=int, required=True)
    p.add_argument("--women", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    common(p, instance=False)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, oracles.EnumerationGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
