"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single
"ACCEPTANCE <n> <name>: PASS|FAIL" line past the capture so the
verdicts are visible in any pytest run.
"""

import math
import random
import time
from fractions import Fraction

from conftest import (
    assert_women_optimal_end,
    build_level_graph,
    lattice_stable_matchings,
    map_T,
    pair_scan_unstable_popular,
    stable_pairs,
    to_level_graph,
)
from popmatch import (
    Matching,
    compare,
    decompose,
    defeats,
    dominant_two_level,
    exists_unstable_popular,
    generate_random,
    inverse_map,
    is_dominant,
    is_popular,
    is_stable,
    lift_to_dominant,
    lower_to_stable,
    min_cost_dominant,
    popular_edge,
    stable_matchings,
)
from popmatch.elections import MINUS, PLUS, label_edges
from popmatch.rotations import rotation_poset
from popmatch.oracles import maximum_matching_size, popular_edges


def criterion(num, name, capsys, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_figure_regressions(
    shared_top, contested_hub, nested_fan, capsys
):
    def body():
        from popmatch import classify

        report = classify(shared_top)
        assert report.stable_set() == [Matching([("a1", "b1")])]
        assert report.popular_set() == [
            Matching([("a1", "b1")]),
            Matching([("a1", "b2"), ("a2", "b1")]),
        ]
        assert popular_edges(shared_top) == shared_top.edges

        assert not is_popular(contested_hub, Matching([("a1", "b1"), ("a2", "b2")]))[0]
        assert is_popular(
            contested_hub, Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])
        )[0]
        witness = popular_edge(contested_hub, ("a2", "b2"))
        assert witness is not None and ("a2", "b2") in witness.pairs

        m1 = Matching([("a1", "b1"), ("a2", "b2")])
        m2 = Matching([("a1", "b2"), ("a2", "b1")])
        m3 = Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])
        assert defeats(nested_fan, m3, m1)
        assert not is_dominant(nested_fan, m1)[0]
        assert is_dominant(nested_fan, m2)[0]
        tally = compare(nested_fan, m2, m3)
        assert (tally.for_first, tally.for_second) == (4, 2)

    criterion(1, "figure-regressions", capsys, body)


def test_criterion_2_oracle_equivalence(full_ensemble, capsys):
    def body():
        items, build_seconds = full_ensemble
        assert len(items) >= 200
        start = time.perf_counter()
        for inst, report in items:
            for m, popular, dominant, stable in zip(
                report.family, report.popular, report.dominant, report.stable
            ):
                assert is_popular(inst, m)[0] == popular
                assert is_dominant(inst, m)[0] == dominant
                assert is_stable(inst, m)[0] == stable
        elapsed = build_seconds + time.perf_counter() - start
        assert elapsed < 60.0, f"oracle-equivalence took {elapsed:.1f}s"

    criterion(2, "oracle-equivalence", capsys, body)


def test_criterion_3_popular_edge_completeness(full_ensemble, capsys):
    def body():
        for inst, report in full_ensemble[0]:
            # the oracle's popular edges, read off the fixture's own report
            good = set().union(*(m.pairs for m in report.popular_set()))
            for e in sorted(inst.edges):
                got = popular_edge(inst, e)
                assert (got is not None) == (e in good)
                if got is not None:
                    assert e in got.pairs
                    assert is_stable(inst, got)[0] or is_dominant(inst, got)[0]

    criterion(3, "popular-edge-completeness", capsys, body)


def test_criterion_4_level_graph_surjectivity(full_ensemble, capsys):
    def body():
        for inst, report in full_ensemble[0]:
            level = build_level_graph(inst)
            dset = set(report.dominant_set())
            for d in dset:
                aux = to_level_graph(level, inverse_map(inst, d))
                assert is_stable(level.graph, aux)[0]
                assert map_T(level, aux) == d
            for aux in stable_matchings(level.graph):
                assert map_T(level, aux) in dset
            assert {Matching(m.pairs) for m in lattice_stable_matchings(inst, levels=2)} == dset

    criterion(4, "level-graph-surjectivity", capsys, body)


def test_criterion_5_decomposition(full_ensemble, capsys):
    def body():
        for inst, report in full_ensemble[0]:
            sset = set(report.stable_set())
            dset = set(report.dominant_set())
            for p in report.popular_set():
                dec = decompose(inst, p)
                part = dec.partition
                assert dec.m0.pairs | dec.m1.pairs == p.pairs
                assert not (dec.m0.pairs & dec.m1.pairs)
                assert not (part.a0 & part.a1)
                labeled = label_edges(inst, p)
                for (a, b), lab in labeled.label.items():
                    if lab == (PLUS, PLUS):
                        assert a in part.a0 and b in part.b1
                    if a in part.a1 and b in part.b0:
                        assert lab == (MINUS, MINUS)
                up = lift_to_dominant(inst, p)
                assert up in dset and dec.m0.pairs <= up.pairs
                down = lower_to_stable(inst, p)
                assert down in sset and dec.m1.pairs <= down.pairs

    criterion(5, "decomposition", capsys, body)


def test_criterion_6_unstable_popular(full_ensemble, capsys):
    def body():
        for inst, report in full_ensemble[0]:
            expected = any(
                popular and not stable
                for popular, stable in zip(report.popular, report.stable)
            )
            fast = exists_unstable_popular(inst)
            slow = pair_scan_unstable_popular(inst)
            assert (fast is not None) == expected
            assert (slow is not None) == expected
            for got in (fast, slow):
                if got is None:
                    continue
                m, (a, b) = got
                assert is_dominant(inst, m)[0]
                assert not is_stable(inst, m)[0]
                assert inst.prefers(a, b, m.partner_of(a))
                assert inst.prefers(b, a, m.partner_of(b))

    criterion(6, "unstable-popular", capsys, body)


def test_criterion_7_min_cost_dominant(full_ensemble, capsys):
    def body():
        costed = 0
        for inst, report in full_ensemble[0]:
            if costed >= 100:
                break
            costed += 1
            costs = {
                e: Fraction(
                    (7 * inst.rank[e[0]][e[1]] + 3 * inst.rank[e[1]][e[0]]) % 13 - 6,
                    1 + inst.rank[e[0]][e[1]],
                )
                for e in inst.edges
            }
            m, total = min_cost_dominant(inst, costs)
            dset = report.dominant_set()
            assert m in dset
            assert sum((costs[e] for e in m.pairs), Fraction(0)) == total
            assert total == min(
                sum((costs[e] for e in d.pairs), Fraction(0)) for d in dset
            )
        assert costed >= 100

    criterion(7, "min-cost-dominant", capsys, body)


def test_criterion_8_size_relations(full_ensemble, capsys):
    def body():
        for inst, report in full_ensemble[0]:
            sizes = sorted(len(m) for m in report.popular_set())
            for s in report.stable_set():
                assert len(s) == sizes[0]
            for d in report.dominant_set():
                assert len(d) == sizes[-1]
            assert sizes[-1] >= math.ceil(2 * maximum_matching_size(inst) / 3)

    criterion(8, "size-relations", capsys, body)


def test_criterion_9_scalability(capsys):
    def body():
        inst = generate_random(10_000, 10_000, 0.002, seed=7)
        assert 150_000 <= len(inst.edges) <= 250_000

        start = time.perf_counter()
        dom = dominant_two_level(inst)
        dominant_seconds = time.perf_counter() - start
        assert dominant_seconds < 5.0, f"dominant took {dominant_seconds:.2f}s"
        assert len(dom) > 0

        edge = next(iter(sorted(dom.pairs)))
        start = time.perf_counter()
        witness = popular_edge(inst, edge)
        edge_seconds = time.perf_counter() - start
        assert edge_seconds < 5.0, f"popular-edge took {edge_seconds:.2f}s"
        assert witness is not None and edge in witness.pairs

        poset = rotation_poset(inst, 2)
        assert len(poset.preds) == 908
        # what enumerate --what popular-edges lists, checked on samples
        # in and out of it against one forced run each
        stable = rotation_poset(inst, 1)
        assert_women_optimal_end(stable)
        popular = stable_pairs(stable) | stable_pairs(poset)
        assert len(popular) == 26_064
        rng = random.Random(9)
        inside = rng.sample(sorted(popular), 10)
        outside = rng.sample(sorted(set(inst.edges) - popular), 10)
        start = time.perf_counter()
        for e in inside + outside:
            witness = popular_edge(inst, e)
            assert (witness is not None) == (e in popular), e
            assert witness is None or e in witness.pairs
        queries_seconds = time.perf_counter() - start
        assert queries_seconds < 20.0, f"20 popular-edge queries took {queries_seconds:.2f}s"
        start = time.perf_counter()
        m, (a, b) = exists_unstable_popular(inst)
        unstable_seconds = time.perf_counter() - start
        assert unstable_seconds < 5.0, f"popular-vs-stable took {unstable_seconds:.2f}s"
        assert (a, b) == ("a10", "b7804")
        assert is_dominant(inst, m)[0]
        assert inst.prefers(a, b, m.partner_of(a)) and inst.prefers(b, a, m.partner_of(b))

    criterion(9, "scalability", capsys, body)
