"""The closed `popular_edge` query loop of the edge-queries workload.

Run as a child process so that its peak RSS is the program's, not the
benchmark's:

    python3 perfbench/query_loop.py --src src --instance inst.pref \\
        --queries queries.json --seconds 10 --min-count 110 --out out.json

The instance is loaded once before the loop.  Queries are sent one at a
time, cycling through the list, until both the time and the count are
reached.  Witnesses are written once each and referenced by index.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, List, Tuple


def query_loop(
    call: Callable, inst, edges: List[Tuple[str, str]], seconds: float, min_count: int
) -> Tuple[List[list], List[list]]:
    """Records [query index, seconds, witness index or None, start] per
    query, `start` being the `perf_counter` reading before the call, and
    the distinct witnesses as sorted pair lists."""
    records: List[list] = []
    witnesses: dict = {}
    start = time.perf_counter()
    i = 0
    while i < min_count or time.perf_counter() - start < seconds:
        q = i % len(edges)
        t0 = time.perf_counter()
        got = call(inst, edges[q])
        dt = time.perf_counter() - t0
        wid = None if got is None else witnesses.setdefault(got, len(witnesses))
        records.append([q, dt, wid, t0])
        i += 1
    return records, [[list(p) for p in w.sorted_pairs()] for w in witnesses]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--instance", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-count", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from popmatch import parse_instance, popular_edge

    with open(args.instance, encoding="utf-8") as fh:
        inst = parse_instance(fh.read())
    with open(args.queries, encoding="utf-8") as fh:
        edges = [tuple(e) for _cls, e in json.load(fh)]
    records, witnesses = query_loop(
        popular_edge, inst, edges, args.seconds, args.min_count
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "witnesses": witnesses}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
