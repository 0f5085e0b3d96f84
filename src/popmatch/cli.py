"""Command-line front end.

Exit codes: 0 = found/true, 1 = not-found/false, 2 = usage or input
error.  Output is deterministic for identical inputs; --json switches to
a stable machine-readable schema with matching pairs sorted.

Each command imports the modules it runs inside its `_cmd_*` function,
so a call loads no more of the package than that command needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .instance import (
    MAX_LISTED,
    EnumerationGuardError,
    Instance,
    InstanceError,
    Matching,
    _blocks,
    generate_random,
    parse_instance,
    parse_matching,
    serialize_instance,
)


# The bytes read from a file at a time: its lines are parsed as they are
# decoded, so a parse holds about one block of the text, not the whole.
_CHUNK = 1 << 16


def _lines(fh, path: str) -> Iterator[str]:
    """The lines of a binary file's UTF-8 text, as `str.splitlines` gives
    them.  Each block read is decoded up to its last '\\n', or '\\r' not
    at its end: neither byte occurs inside a UTF-8 sequence, and no such
    cut splits a '\\r\\n', so each part's lines are lines of the whole
    text.  An invalid byte is an InstanceError that gives its offset in
    the file."""
    rest = bytearray()  # the bytes read after the last cut
    done = 0  # the bytes before it
    while True:
        data = fh.read(_CHUNK)
        if data:
            # searched from the new bytes on, so a long line costs linear
            # time; a '\r' held at the end is no longer the last byte
            start = len(rest)
            rest += data
            cut = 1 + max(rest.rfind(b"\n", start), rest.rfind(b"\r", max(start - 1, 0), -1))
            if not cut:
                continue
        else:
            cut = len(rest)
        try:
            text = rest[:cut].decode()
        except UnicodeDecodeError as exc:
            at = done + exc.start
            raise InstanceError(f"{path}: not valid UTF-8 ({exc.reason} at byte {at})")
        del rest[:cut]
        done += cut
        yield from text.splitlines()
        if not data:
            return


def _parse_file(path: str, parse: Callable, *args):
    """parse(the file's lines, *args).  An invalid byte anywhere in the
    file is the error reported, as if the whole file were decoded before
    parsing: a format fault found earlier gives way to it."""
    with open(path, "rb") as fh:
        lines = _lines(fh, path)
        try:
            return parse(lines, *args)
        except InstanceError:
            for _ in lines:  # raises at an invalid byte
                pass
            raise


def _load_instance(path: str) -> Instance:
    return _parse_file(path, parse_instance)


def _emit(as_json: bool, fields: dict, text: Iterable = ()) -> None:
    """Write a command's answer: `fields` as one JSON object, each
    Matching in it as its sorted pairs, or else `text`, whose items are
    lines and matchings.  A matching goes out one `serialize_matching`
    block per write, "{}" if it is empty, and the lines between two
    matchings in one write: unbuffered, each write is a system call."""
    write = sys.stdout.write
    if as_json:
        write(json.dumps(fields, default=Matching.sorted_pairs))
        write("\n")
        return
    lines = []
    for item in text:
        if not isinstance(item, Matching):
            lines.append(f"{item}\n")
            continue
        if lines:
            write("".join(lines))
            lines.clear()
        blocks = _blocks(item)
        write(next(blocks, "{}\n"))
        for block in blocks:
            write(block)
    if lines:
        write("".join(lines))


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
        limit = int(raw)
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise InstanceError(f"POPMATCH_MAX_ENUM must be a non-negative integer, got {raw!r}")


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    if args.property == "stable":
        if args.algo not in (None, "gs"):
            raise InstanceError("--property stable only supports --algo gs")
    elif args.algo == "gs":
        raise InstanceError("--property dominant needs --algo two-level")
    from . import gale_shapley

    result = gale_shapley.run(inst, levels=1 + (args.property == "dominant"))
    _emit(args.json, {"matching": result}, [result])
    return 0


def _cmd_verify(args) -> int:
    from . import gale_shapley, verify

    inst = _load_instance(args.instance)
    # numbered as it is read: the matching is never held by name
    matching = _parse_file(args.matching, parse_matching, inst)
    cert: Optional[verify.Certificate] = None
    if args.property == "stable":
        ok, pair = gale_shapley.is_stable(inst, matching)
        if pair is not None:
            cert = verify.Certificate("blocking-pair", pair, (pair,))
    elif args.property == "popular":
        ok, cert = verify.is_popular(inst, matching)
    else:
        ok, cert = verify.is_dominant(inst, matching)
    lines = ["true" if ok else "false"]
    if cert is not None:
        lines.append(f"certificate: {cert.kind} " + " ".join(cert.path))
    _emit(args.json, {"verdict": ok, "certificate": cert and cert._asdict()}, lines)
    return 0 if ok else 1


def _cmd_popular_edge(args) -> int:
    from .gale_shapley import stable_with_edge
    from .popular_edge import dominant_with_edge

    inst = _load_instance(args.instance)
    edge = _parse_edge(args.edge)
    # `popular_edge`'s answer without its route table: one run from empty
    # arrays, then for a dominant edge one climb to level 2, costs less
    # than walking two rotation posets
    result = stable_with_edge(inst, edge)
    if result is None:
        result = dominant_with_edge(inst, edge)
    if result is None:
        _emit(args.json, {"found": False}, ["no popular matching contains this edge"])
        return 1
    _emit(args.json, {"found": True, "matching": result}, [result])
    return 0


def _cmd_popular_vs_stable(args) -> int:
    from .rotations import exists_unstable_popular

    inst = _load_instance(args.instance)
    found = exists_unstable_popular(inst)
    if found is None:
        _emit(args.json, {"all_stable": True}, ["all popular matchings are stable"])
        return 0
    matching, pair = found
    fields = {"all_stable": False, "matching": matching, "blocking_pair": pair}
    _emit(args.json, fields, [matching, "blocking pair: " + " ".join(pair)])
    return 1


def _cmd_min_cost(args) -> int:
    from . import min_cost

    inst = _load_instance(args.instance)
    costs = _parse_file(args.costs, min_cost.parse_costs, inst)
    matching, total = min_cost.min_cost_dominant(inst, costs)
    try:
        decimal = str(float(total))
    except OverflowError:
        decimal = "inf" if total > 0 else "-inf"
    try:
        # Python refuses to print an int of more digits than
        # sys.get_int_max_str_digits(), so format before printing: the
        # line holds the numerator and denominator the JSON does
        line = f"cost: {total} ({decimal})"
    except ValueError:
        raise InstanceError(
            f"the total cost has more than {sys.get_int_max_str_digits()} "
            "digits, too many to print"
        )
    cost = {"numerator": total.numerator, "denominator": total.denominator, "decimal": decimal}
    _emit(args.json, {"matching": matching, "cost": cost}, [matching, line])
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    if args.what == "popular-edges":
        from .rotations import popular_edges

        edges = sorted(popular_edges(inst))
        _emit(args.json, {"edges": edges}, (f"{m} {w}" for m, w in edges))
        return 0
    if args.what in ("stable", "dominant"):
        from .rotations import rotation_poset

        # dominant: the pairs of the stable matchings of G'
        family = rotation_poset(inst, 1 + (args.what == "dominant")).distinct_pairs()
    else:
        from .oracles import enumerate_matchings

        family = enumerate_matchings(inst, _max_enum(), MAX_LISTED)
        if args.what == "popular":
            from .verify import is_popular

            family = [m for m in family if is_popular(inst, m)[0]]
    # one line a matching, "{}" for the empty one
    lines = (" ".join(f"{m},{w}" for m, w in matching) or "{}" for matching in family)
    _emit(args.json, {"matchings": family}, lines)
    return 0


def _cmd_gen(args) -> int:
    try:
        inst = generate_random(args.men, args.women, args.density, args.seed)
    except ValueError as exc:
        raise InstanceError(str(exc))
    text = serialize_instance(inst)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    fields = {
        "written": args.output,
        "men": len(inst.men),
        "women": len(inst.women),
        "edges": inst.first[len(inst.men)],
    }
    _emit(args.json, fields)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
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
    p.add_argument("--algo", choices=("gs", "two-level"), help=(
        "stable: gs; dominant: two-level (the proposal engine on the implicit "
        "G'); each property has this one algorithm, which is also the default"))
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
    common(p)
    p.set_defaults(func=_cmd_popular_vs_stable)

    p = sub.add_parser(
        "min-cost-dominant",
        help="minimum-cost dominant matching, by one minimum cut over the rotation "
        "poset of G'",
        description="A minimum-cost dominant matching, exactly: a cheapest stable "
        "matching of G', found as the cheapest closed set of its rotation poset by "
        "one minimum cut. Ties go to the least sorted pairs, then to the least "
        "levels in men's id order. Polynomial: O(m log m) to find the R "
        "rotations of G' on m edges, then one max flow on R + 2 nodes.",
    )
    p.add_argument("--costs", required=True, help="cost file: '<man> <woman> <cost>' lines")
    common(p)
    p.set_defaults(func=_cmd_min_cost)

    p = sub.add_parser("enumerate", help="list matchings of one kind, or the popular edges")
    p.add_argument(
        "--what",
        choices=("matchings", "stable", "popular", "dominant", "popular-edges"),
        required=True,
        help="stable, dominant: read off the rotation poset of G or G', at most 100,000 "
        "stable matchings; popular-edges: the pairs of both posets, in O(m log m); "
        "matchings, popular: exhaustive search, at most POPMATCH_MAX_ENUM edges (default 36) "
        "and 100,000 matchings",
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
    except (InstanceError, EnumerationGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
