"""Seeded workload generators.

Everything here is a pure function of its seed: the same seed gives
byte-identical files.  Random instances come from the library's
`generate_random` with the shapes below; the block family is the
benchmark's own code.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from popmatch import Instance, Matching

Edge = Tuple[str, str]

# (men, women, edge probability) for generate_random.
ACCEPTANCE = (10_000, 10_000, 0.002)
# The acceptance instance itself (acceptance criterion 9).  Verifying its
# dominant matching is quadratic in the number of (+,+) edges, which
# ranges from 3,796 to 7,404 over seeds 1-10, so a seed-dependent
# instance would change the work two-fold from run to run.
ACCEPTANCE_SEED = 7
EDGE_QUERIES = (2_000, 2_000, 0.01)


def blocks(count: int, seed: int) -> Tuple[Instance, List[Tuple[str, str, str, str]]]:
    """`count` disjoint 2x2 cyclic blocks (x: u v, y: v u, u: y x, v: x y)
    with vertex ids shuffled by the seed.

    Each block has exactly two stable matchings, {xu, yv} and {xv, yu},
    both perfect, and every popular matching is stable.  Returns the
    instance and the blocks as (x, y, u, v) id tuples.
    """
    rng = random.Random(seed)
    men_ids = [f"a{i + 1}" for i in range(2 * count)]
    women_ids = [f"b{i + 1}" for i in range(2 * count)]
    rng.shuffle(men_ids)
    rng.shuffle(women_ids)
    pref: Dict[str, Tuple[str, ...]] = {}
    out = []
    for k in range(count):
        x, y = men_ids[2 * k], men_ids[2 * k + 1]
        u, v = women_ids[2 * k], women_ids[2 * k + 1]
        pref[x], pref[y] = (u, v), (v, u)
        pref[u], pref[v] = (y, x), (x, y)
        out.append((x, y, u, v))
    by_number = lambda ident: int(ident[1:])  # noqa: E731
    men = sorted(men_ids, key=by_number)
    women = sorted(women_ids, key=by_number)
    return Instance(men, women, pref), out


def block_costs(inst: Instance, seed: int) -> Dict[Edge, int]:
    """A seeded integer cost in [1, 100] on every edge."""
    rng = random.Random(seed)
    return {(m, w): rng.randint(1, 100) for m in inst.men for w in inst.pref[m]}


def serialize_costs(costs: Dict[Edge, int]) -> str:
    return "".join(f"{m} {w} {c}\n" for (m, w), c in sorted(costs.items()))


def block_min_cost(blocks_: List[Tuple[str, str, str, str]], costs: Dict[Edge, int]) -> int:
    """Closed form: each block independently takes the cheaper of its two
    perfect matchings."""
    return sum(
        min(costs[(x, u)] + costs[(y, v)], costs[(x, v)] + costs[(y, u)])
        for x, y, u, v in blocks_
    )


def non_popular_swap(inst: Instance, stable: Matching, seed: int) -> Matching:
    """A seeded non-popular matching near a stable one.

    Swaps two stable pairs (a1,b1), (a2,b2) into (a1,b2), (a2,b1) where
    (a1,b1) becomes a (+,+) edge and (a2,b2) is not (-,-).  Then
    a1-b1-a2-b2-a1 is an alternating cycle through a (+,+) edge, so the
    result is not popular.  Falls back to dropping one pair, which
    leaves a (+,+) edge between two unmatched vertices.
    """
    rank = inst.rank
    partner = stable.partner_of
    candidates = []
    for a1, b1 in stable.sorted_pairs():
        for b2 in inst.pref[a1][rank[a1][b1] + 1 :]:
            a2 = partner(b2)
            if a2 is None or b1 not in rank[a2] or rank[b1][a1] > rank[b1][a2]:
                continue
            if rank[a2][b2] < rank[a2][b1] or rank[b2][a2] < rank[b2][a1]:
                candidates.append((a1, b1, a2, b2))
    rng = random.Random(seed)
    pairs = set(stable.pairs)
    if candidates:
        a1, b1, a2, b2 = rng.choice(candidates)
        pairs -= {(a1, b1), (a2, b2)}
        pairs |= {(a1, b2), (a2, b1)}
    else:
        pairs.remove(rng.choice(stable.sorted_pairs()))
    return Matching(pairs)


def edge_queries(
    inst: Instance, stable: Matching, dominant: Matching, per_class: int, seed: int
) -> List[Tuple[str, Edge]]:
    """`per_class` queries from each class, interleaved in seeded order:
    edges of the stable matching, edges of the dominant matching minus
    the stable one, and edges drawn uniformly (mostly not popular)."""
    rng = random.Random(seed)
    pools = {
        "stable": stable.sorted_pairs(),
        "dominant": tuple(sorted(dominant.pairs - stable.pairs)),
        "uniform": tuple(sorted(inst.edges)),
    }
    queries = [
        (cls, rng.choice(pool)) for cls, pool in pools.items() for _ in range(per_class)
    ]
    rng.shuffle(queries)
    return queries
