import gc
import hashlib
import random
import time
import tracemalloc
from collections import Counter

import pytest

from popmatch import (
    Instance,
    InstanceError,
    Matching,
    classify,
    compare,
    dominant_two_level,
    generate_random,
    is_dominant,
    is_popular,
    is_stable,
    label_edges,
    parse_instance,
    partition,
    run,
)
from popmatch import verify
from popmatch.elections import LabeledGraph
from popmatch.verify import Certificate, _Graph
from conftest import (
    alternating_rows,
    assert_certificate_replays,
    gm_adj,
    reversed_declaration_cases,
)

# Everyone is matched to b_i / a_i and (a1,b2) is the only (+,+) edge;
# the (+,-) edges (a2,b3) and (a3,b1) close the alternating cycle
# a1-b2-a2-b3-a3-b1-a1 through it.
PP_CYCLE_TEXT = """\
men: a1 a2 a3
women: b1 b2 b3
a1: b2 b1
a2: b3 b2
a3: b1 b3
b1: a1 a3
b2: a1 a2
b3: a3 a2
"""

# Everyone is matched to b_i / a_i; (a1,b2) and (a3,b4) are (+,+) edges
# joined by the alternating path a1-b2-a2-b3-a3-b4, and no alternating
# cycle exists.
TWO_PP_PATH_TEXT = """\
men: a1 a2 a3 a4
women: b1 b2 b3 b4
a1: b2 b1
a2: b3 b2
a3: b4 b3
a4: b4
b1: a1
b2: a1 a2
b3: a3 a2
b4: a3 a4
"""

# Everyone is matched to b_i / a_i.  (a1,b2) is a (+,+) edge on the
# alternating cycle a1-b2-a2-b1-a1 and also starts the path
# a1-b2-a2-b3 through the second (+,+) edge (a2,b3).
CYCLE_AND_TWO_PP_TEXT = """\
men: a1 a2 a3
women: b1 b2 b3
a1: b2 b1
a2: b3 b1 b2
a3: b3
b1: a1 a2
b2: a1 a2
b3: a2 a3
"""


def test_partition_seeded_by_unmatched(nested_fan):
    # dominant-side seeding: unmatched vertices join the level-1/level-0 sides
    m = Matching([("a1", "b2"), ("a2", "b1")])
    part = partition(nested_fan, m, seed_unmatched=True)
    assert part.a0 == {"a1"}
    assert part.b0 == {"b2", "b3"}
    assert part.b1 == {"b1"}
    assert part.a1 == {"a2", "a3"}


def test_partition_without_unmatched_seeding(contested_hub):
    m = Matching([("a1", "b1"), ("a2", "b2")])
    part = partition(contested_hub, m, seed_unmatched=False)
    assert part.a0 == {"a2"}
    assert part.b0 == {"b2"}
    assert part.b1 == {"b1"}
    assert part.a1 == {"a1"}


def test_partition_empty_when_everyone_has_top_choice():
    from popmatch import parse_instance

    inst = parse_instance(
        "men: a1 a2\nwomen: b1 b2\na1: b1\na2: b2\nb1: a1\nb2: a2\n"
    )
    m = Matching([("a1", "b1"), ("a2", "b2")])
    for seeded in (True, False):
        part = partition(inst, m, seed_unmatched=seeded)
        assert not (part.a0 | part.a1 | part.b0 | part.b1)


def test_partition_closure_fixed_point(small_ensemble):
    # no man outside the level-0 side touches a level-0 woman in the
    # pruned subgraph, and symmetrically for the level-1 side: for
    # popular matchings seeded by blocking pairs only (as in decompose)
    # and for dominant ones seeded by unmatched vertices too (as in
    # inverse_map)
    from popmatch import label_edges

    for inst, report in small_ensemble[:15]:
        for m, popular, dominant in zip(report.family, report.popular, report.dominant):
            adj = gm_adj(label_edges(inst, m))
            for seeded, applies in ((False, popular), (True, dominant)):
                if not applies:
                    continue
                part = partition(inst, m, seed_unmatched=seeded)
                for a in inst.men:
                    if a not in part.a0:
                        assert not any(w in part.b0 for w in adj[a])
                for b in inst.women:
                    if b not in part.b1:
                        assert not any(x in part.a1 for x in adj[b])
                assert not (part.a0 & part.a1)
                if seeded:
                    assert {a for a in inst.men if not m.is_matched(a)} <= part.a1
                    assert {b for b in inst.women if not m.is_matched(b)} <= part.b0


def test_decompose_and_inverse_map_label_once(small_ensemble, monkeypatch):
    # the verdict and the partition come from one labelling, also when
    # the verdict is negative
    import popmatch.verify
    from popmatch import InstanceError, decompose, inverse_map

    calls = []
    original = popmatch.verify.label_edges

    def counting(inst, m):
        calls.append(m)
        return original(inst, m)

    monkeypatch.setattr(popmatch.verify, "label_edges", counting)
    for inst, report in small_ensemble[:10]:
        for m, popular, dominant in zip(report.family, report.popular, report.dominant):
            for fn, ok in ((decompose, popular), (inverse_map, dominant)):
                calls.clear()
                if ok:
                    fn(inst, m)
                else:
                    with pytest.raises(InstanceError):
                        fn(inst, m)
                assert len(calls) == 1


def test_alternating_rows_follow_names(small_ensemble):
    # every vertex's arcs, and the (+,+) list, are in name order, also
    # where it differs from vertex order: a man's, a woman's and an
    # unmatched vertex's all from `LabeledGraph.row`, and the same when
    # read again; a man's unmatched neighbours are read off his list
    cases = [(inst, m) for inst, report in small_ensemble for m in report.family]
    for inst, m in cases + list(reversed_declaration_cases()):
        g = _Graph(label_edges(inst, m))
        names, n = inst.names, len(inst.men)
        succ, free, pp = alternating_rows(inst, m)
        rows = {names[v]: [names[y] for y in g.out(v)] for v in range(len(g.mate))}
        assert rows == succ
        assert all(g.out(v) is g.arcs[v] for v in range(len(g.mate)))
        men = names[:n]
        assert {a: sorted(names[w] for w in g.unmatched(x)) for x, a in enumerate(men)} == free
        assert [g.edge(e) for e in g.pp] == pp


def _count_rows(monkeypatch):
    """How many men and women `_Graph` computes the arcs of, from here
    on; a Tarjan pass fails the test."""
    computed = {"men": 0, "women": 0}
    row = LabeledGraph.row

    def counting(labeled, v):
        computed["men" if v < len(labeled.inst.men) else "women"] += 1
        return row(labeled, v)

    def components(out, size):
        raise AssertionError("Tarjan's pass ran")

    monkeypatch.setattr(LabeledGraph, "row", counting)
    monkeypatch.setattr(verify, "_components", components)
    return computed


def test_stable_matchings_are_popular_without_a_digraph(small_ensemble, acceptance, monkeypatch):
    # a stable matching has no (+,+) edge, which the blocking-pair scan
    # finds before any vertex's arcs are computed
    computed = _count_rows(monkeypatch)
    cases = [(inst, m) for inst, report in small_ensemble for m in report.stable_set()]
    big = acceptance[0]
    for inst, m in cases + [(big, run(big))]:
        assert is_popular(inst, m) == (True, None)
    assert len(cases) > 40 and computed == {"men": 0, "women": 0}


def test_is_popular_examples(contested_hub):
    ok, cert = is_popular(contested_hub, Matching([("a1", "b1"), ("a2", "b2")]))
    assert not ok
    assert_certificate_replays(
        contested_hub, Matching([("a1", "b1"), ("a2", "b2")]), cert
    )
    ok, cert = is_popular(
        contested_hub, Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])
    )
    assert ok and cert is None


def test_empty_matching_unpopular_with_edges(shared_top):
    ok, cert = is_popular(shared_top, Matching())
    assert not ok
    assert cert.kind == "pp-path-from-unmatched"
    assert_certificate_replays(shared_top, Matching(), cert)


def test_is_dominant_examples(nested_fan):
    # the path ends at the first unmatched neighbour in id order: a0
    # lists b3 before b1
    ends = parse_instance(
        "men: a0 a1 a2\nwomen: b0 b4 b1 b2 b3\na0: b4 b3 b1\na1: b4\na2: b2\n"
        "b0:\nb4: a0 a1\nb1: a0\nb2: a2\nb3: a0\n"
    )
    for inst, near, path in (
        (nested_fan, Matching([("a1", "b1"), ("a2", "b2")]), ("a3", "b1", "a1", "b3")),
        (ends, Matching([("a0", "b4"), ("a2", "b2")]), ("a1", "b4", "a0", "b1")),
    ):
        ok, cert = is_dominant(inst, near)
        assert not ok and cert == Certificate("augmenting-path", path)
        assert_certificate_replays(inst, near, cert)
    assert is_dominant(nested_fan, Matching([("a1", "b2"), ("a2", "b1")]))[0]


def test_perfect_popular_matching_is_dominant(small_ensemble):
    for inst, report in small_ensemble[:15]:
        everyone = len(inst.men) + len(inst.women)
        for m, popular, dominant in zip(report.family, report.popular, report.dominant):
            if popular and 2 * len(m) == everyone:
                assert dominant


def test_verifiers_agree_with_oracle(small_ensemble):
    for inst, report in small_ensemble:
        for m, popular, dominant in zip(report.family, report.popular, report.dominant):
            assert is_popular(inst, m)[0] == popular
            assert is_dominant(inst, m)[0] == dominant


def test_certificates_replay(small_ensemble):
    for inst, report in small_ensemble[:20]:
        for m in report.family:
            ok, cert = is_dominant(inst, m)
            if not ok:
                assert_certificate_replays(inst, m, cert)


def test_dominance_equals_undefeated_by_larger(small_ensemble):
    # popular with no augmenting path in the pruned subgraph iff no
    # larger matching ties or wins the election
    from popmatch import defeats

    for inst, report in small_ensemble[:12]:
        for m, popular in zip(report.family, report.popular):
            if not popular:
                continue
            beaten_by_larger = any(
                defeats(inst, other, m)
                for other in report.family
                if len(other) > len(m)
            )
            assert is_dominant(inst, m)[0] == (not beaten_by_larger)


def test_pp_cycle_is_the_only_violation():
    inst = parse_instance(PP_CYCLE_TEXT)
    m = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    assert m not in classify(inst).popular_set()
    for verifier in (is_popular, is_dominant):
        ok, cert = verifier(inst, m)
        assert not ok and cert.kind == "pp-cycle"
        assert cert.path == ("b2", "a2", "b3", "a3", "b1", "a1", "b2")
        assert cert.pp_edges == (("a1", "b2"),)
        assert_certificate_replays(inst, m, cert)


def test_two_pp_path_is_the_only_violation():
    inst = parse_instance(TWO_PP_PATH_TEXT)
    m = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3"), ("a4", "b4")])
    assert m not in classify(inst).popular_set()
    for verifier in (is_popular, is_dominant):
        ok, cert = verifier(inst, m)
        assert not ok and cert.kind == "two-pp-path"
        assert cert.path == ("a1", "b2", "a2", "b3", "a3", "b4")
        assert cert.pp_edges == (("a1", "b2"), ("a3", "b4"))
        assert_certificate_replays(inst, m, cert)


def test_cycle_witness_preferred_to_two_pp_path():
    inst = parse_instance(CYCLE_AND_TWO_PP_TEXT)
    m = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    ok, cert = is_popular(inst, m)
    assert not ok and cert.kind == "pp-cycle"
    assert cert.path == ("b2", "a2", "b1", "a1", "b2")
    assert_certificate_replays(inst, m, cert)


def deep_chain(n, closed, second=False):
    """Men a0..an matched to b0..bn.  (a0,b1) is the only (+,+) edge and
    (+,-) edges (a_i,b_{i+1}) continue the alternating path a0-b1-a1-...-an;
    when closed, (an,b0) turns it into one alternating cycle.  With
    second, bn ranks a(n-1) first, so the path's last edge (a(n-1),bn)
    is a second (+,+) edge."""
    men = [f"a{i}" for i in range(n + 1)]
    women = [f"b{i}" for i in range(n + 1)]
    pref = {men[i]: (women[i + 1], women[i]) for i in range(n)}
    pref[men[n]] = (women[0], women[n]) if closed else (women[n],)
    pref[women[0]] = (men[0], men[n]) if closed else (men[0],)
    pref[women[1]] = (men[0], men[1])
    for i in range(2, n + 1):
        pref[women[i]] = (men[i], men[i - 1])
    if second:
        pref[women[n]] = pref[women[n]][::-1]
    inst = Instance(men, women, pref)
    return inst, Matching(zip(men, women))


def test_deep_chain_small_cases_match_oracle():
    for closed in (False, True):
        inst, m = deep_chain(4, closed)
        report = classify(inst)
        assert is_popular(inst, m)[0] == (m in report.popular_set()) == (not closed)
        assert is_dominant(inst, m)[0] == (m in report.dominant_set()) == (not closed)


def test_deep_chain_needs_no_recursion():
    n = 50_000
    inst, m = deep_chain(n, closed=False)
    assert is_popular(inst, m) == (True, None)
    assert is_dominant(inst, m) == (True, None)
    inst, m = deep_chain(n, closed=True)
    ok, cert = is_dominant(inst, m)
    assert not ok and cert.kind == "pp-cycle" and len(cert.path) == 2 * (n + 1) + 1
    assert_certificate_replays(inst, m, cert)


def test_deep_chain_two_pp_path_at_scale():
    # the only violation is the whole chain, from its first (+,+) edge
    # to its second, found with no recursion
    n = 50_000
    for size in (4, n):
        inst, m = deep_chain(size, closed=False, second=True)
        path = ("a0",) + tuple(f"{v}{i}" for i in range(1, size) for v in "ba") + (f"b{size}",)
        expected = Certificate("two-pp-path", path, (("a0", "b1"), (f"a{size - 1}", f"b{size}")))
        for verifier in (is_popular, is_dominant):
            assert verifier(inst, m) == (False, expected)
        if size < n:
            assert m not in classify(inst).popular_set()
    assert_certificate_replays(inst, m, expected)


def perfect_family(count):
    """count seeded instances of 1-9 vertices per side, the sides equal
    or one apart, each with a matching of the smaller side planted among
    random further edges, and random lists; each gives that matching and
    it less one random pair."""
    rng = random.Random(36)
    for _ in range(count):
        n = rng.randint(1, 9)
        k = min(9, max(1, n + rng.choice((-1, 0, 0, 1))))
        men, women = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(k)]
        planted = list(zip(rng.sample(men, min(n, k)), rng.sample(women, min(n, k))))
        density = rng.random() / 2
        edges = set(planted) | {(a, b) for a in men for b in women if rng.random() < density}
        pref = {v: [] for v in men + women}
        for a, b in sorted(edges):
            pref[a].append(b)
            pref[b].append(a)
        for lst in pref.values():
            rng.shuffle(lst)
        inst = Instance(men, women, pref)
        yield inst, Matching(planted)
        planted.pop(rng.randrange(len(planted)))
        yield inst, Matching(planted)


# SHA-256 of the (verdict, certificate) pairs of `is_popular` and then
# `is_dominant` on every matching of `perfect_family(2000)`, in order.
PERFECT_FAMILY_SHA = "a5855a013eb92e68b2ef1e5c35fa7f57378853443317ad279ecca9f9515a86fd"


def test_perfect_family_answers_are_pinned():
    # few unmatched vertices, so many certificates are named by the
    # cycle and two-edge-path phases
    answers = [verifier(inst, m) for inst, m in perfect_family(2000) for verifier in (is_popular, is_dominant)]
    kinds = Counter(cert.kind for _, cert in answers if cert is not None)
    assert kinds["pp-cycle"] > 500 and kinds["two-pp-path"] > 100, kinds
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == PERFECT_FAMILY_SHA, (digest, kinds)


@pytest.fixture(scope="module")
def acceptance():
    """The acceptance instance and its dominant matching."""
    inst = generate_random(10_000, 10_000, 0.002, seed=7)
    return inst, dominant_two_level(inst)


# The certificate `is_dominant` gives for the acceptance instance's
# stable matching: an augmenting path in the pruned subgraph.
STABLE_AUGMENTING_PATH = Certificate("augmenting-path", ("a1020", "b1058", "a2433", "b4371"))


# The most memory (MB, tracemalloc) `is_dominant` may take above the
# instance and matching on the acceptance instance's dominant matching:
# it peaks at 1.8 with the arcs of the 1,645 men its searches expand,
# where the whole digraph, laid out as two flat halves, peaked at 3.8.
VERIFY_PEAK_MB = 2.7


def test_verify_peak_stays_flat(acceptance):
    inst, dom = acceptance
    gc.collect()
    tracemalloc.start()
    try:
        assert is_dominant(inst, dom) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= VERIFY_PEAK_MB * 1e6, peak


def test_verify_at_scale(acceptance):
    inst, dom = acceptance
    start = time.perf_counter()
    ok, cert = is_dominant(inst, dom)
    seconds = time.perf_counter() - start
    assert ok and cert is None
    assert seconds < 5.0, f"is_dominant took {seconds:.2f}s"

    # Swap (a,b), (a2,b2) into (a,b2), (a2,b) where a and b prefer each
    # other to their new partners and (a2,b2) is not (-,-): the cycle
    # a-b-a2-b2-a then runs through the (+,+) edge (a,b).
    rank = inst.rank
    swapped = next(
        Matching((dom.pairs - {(a, b), (a2, b2)}) | {(a, b2), (a2, b)})
        for a, b in dom.sorted_pairs()
        for b2 in inst.pref[a][rank[a][b] + 1 :]
        for a2 in [dom.partner_of(b2)]
        if a2 is not None
        and b in rank[a2]
        and rank[b][a] < rank[b][a2]
        and (rank[a2][b2] < rank[a2][b] or rank[b2][a2] < rank[b2][a])
    )
    start = time.perf_counter()
    ok, cert = is_popular(inst, swapped)
    seconds = time.perf_counter() - start
    assert not ok, "the swap closes an alternating cycle through a (+,+) edge"
    assert seconds < 5.0, f"is_popular took {seconds:.2f}s"
    assert_certificate_replays(inst, swapped, cert)
    # the certificates are pinned: arcs and (+,+) edges are taken in name
    # order, whatever order the lists are stored in
    cycle = (
        "b7342 a7463 b4755 a948 b8465 a1566 b4428 a7073 b2742 a6559 b9243 a4260 "
        "b729 a9518 b6915 a7828 b2467 a6936 b2152 a7035 b7529 a1844 b3460 a973 "
        "b6766 a4544 b6343 a7440 b8787 a9710 b7762 a1000 b7342"
    )
    assert cert == Certificate("pp-cycle", tuple(cycle.split()), (("a1000", "b7342"),))
    stable = run(inst)
    ok, cert = is_dominant(inst, stable)
    assert (ok, cert) == (False, STABLE_AUGMENTING_PATH)
    assert_certificate_replays(inst, stable, cert)


def test_verify_at_scale_builds_what_its_answer_reads(acceptance, monkeypatch):
    # the stable matching has no (+,+) edge, and the search from the
    # unmatched men stops at its first man with an unmatched neighbour,
    # after expanding 120 men; the dominant matching is popular by the
    # searches from the unmatched vertices and from the (+,+) edges'
    # heads, which expand 1,645 of the 10,000 men, with no Tarjan pass
    # and no woman's arcs
    inst, dom = acceptance
    computed = _count_rows(monkeypatch)
    assert is_dominant(inst, run(inst)) == (False, STABLE_AUGMENTING_PATH)
    assert computed == {"men": 120, "women": 0}
    computed["men"] = 0
    assert is_dominant(inst, dom) == (True, None)
    assert computed == {"men": 1645, "women": 0}


@pytest.mark.parametrize("pair", [("a1", "b9"), ("a2", "b2"), ("b1", "a1")])
def test_non_edge_pair_is_an_instance_error(shared_top, pair):
    # b9 is no vertex, a2 does not list b2, and a pair names its man first
    matching = Matching([pair])
    checks = (is_stable, is_popular, is_dominant, label_edges,
              lambda inst, m: compare(inst, Matching(), m))
    for check in checks:
        with pytest.raises(InstanceError) as err:
            check(shared_top, matching)
        assert str(err.value) == f"pair ({pair[0]},{pair[1]}) is not an edge of the instance"
