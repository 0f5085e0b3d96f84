"""The engine's two-level runs against deferred acceptance on the explicit
two-copy instance G' (`conftest.explicit_level_run`): every G' consumer
must give what it gave when it built G', and none of them may build it.
"""

from conftest import SHARED_TOP_TEXT, explicit_level_run
from popmatch import (
    Matching,
    build_level_graph,
    cli,
    decompose,
    dominant_two_level,
    dominant_via_level_graph,
    dominant_with_edge,
    exists_unstable_popular,
    f_values,
    generate_random,
    is_stable,
    lift_to_dominant,
    map_T,
    popular_edge,
    stable_matchings,
    unstable_via_pair,
)
from popmatch.gale_shapley import LevelledMatching, is_stable_two_level
from popmatch.popular_edge import _lift


def ref_dominant_with_edge(inst, u, v):
    for lvl in (0, 1):
        got = explicit_level_run(inst, {v: (u, lvl)})
        if (got.level.copies[u][lvl], v) in got.aux.pairs and got.stable:
            return got.matching
    return None


def ref_probe_edge(inst, a, b):
    cut = inst.rank[a][b]
    got = explicit_level_run(
        inst, {b: (inst.pref[b][-1], 1)}, [(a, w) for w in inst.pref[a][:cut]]
    )
    level, rank = got.level, got.level.graph.rank
    a0, a1 = level.copies[a]
    if not got.stable or got.aux.partner_of(a0) == level.dummy[a]:
        return None
    pb = got.aux.partner_of(b)
    if pb is None or rank[b][pb] < rank[b][a1]:
        return None
    return got.matching


def ref_probe_pair(inst, a, v, u, b):
    got = explicit_level_run(inst, {v: (a, 0), b: (u, 1)})
    a0, u1 = got.level.copies[a][0], got.level.copies[u][1]
    if (a0, v) in got.aux.pairs and (u1, b) in got.aux.pairs and got.stable:
        return got.matching
    return None


def blocking_candidates(inst, a, b):
    """The (v, u) of every edge pair (a,v), (u,b) that (a,b) can block."""
    for v in inst.pref[a]:
        if inst.prefers(a, b, v):
            for u in inst.pref[b]:
                if u != a and inst.prefers(b, a, u):
                    yield v, u


def ref_exists_unstable_popular(inst, cubic):
    for a, b in sorted(inst.edges):
        if cubic:
            for v, u in blocking_candidates(inst, a, b):
                got = ref_probe_pair(inst, a, v, u, b)
                if got is not None:
                    return got, (a, b)
        else:
            got = ref_probe_edge(inst, a, b)
            if got is not None:
                return got, (a, b)
    return None


def test_dominant_two_level_matches_explicit(small_ensemble):
    for inst, _ in small_ensemble:
        assert dominant_two_level(inst) == explicit_level_run(inst).matching


def test_dominant_two_level_matches_explicit_at_scale():
    inst = generate_random(10_000, 10_000, 0.002, seed=7)
    got = dominant_two_level(inst)
    assert got == dominant_via_level_graph(inst)
    assert is_stable_two_level(inst, got)


def test_dominant_with_edge_matches_explicit(small_ensemble):
    # forcing (a1,b2) of the last instance succeeds at either level, with
    # different matchings, so the order of the levels shows
    for inst in [inst for inst, _ in small_ensemble] + [generate_random(4, 4, 1.0, seed=14)]:
        for u, v in sorted(inst.edges):
            assert dominant_with_edge(inst, (u, v)) == ref_dominant_with_edge(inst, u, v)


def test_unstable_popular_witness_matches_explicit(small_ensemble):
    found = 0
    for inst, _ in small_ensemble:
        for cubic in (False, True):
            got = exists_unstable_popular(inst, cubic=cubic)
            assert got == ref_exists_unstable_popular(inst, cubic)
            found += got is not None
    assert found


def test_unstable_via_pair_matches_explicit(shared_top, contested_hub, small_ensemble):
    cases = [
        (shared_top, ("a1", "b2"), ("a2", "b1")),
        (contested_hub, ("a2", "b2"), ("a3", "b1")),
        (contested_hub, ("a2", "b2"), ("a1", "b1")),
    ]
    for inst, _ in small_ensemble[:10]:
        for a, b in sorted(inst.edges):
            cases += [(inst, (a, v), (u, b)) for v, u in blocking_candidates(inst, a, b)]
    for inst, (a, v), (u, b) in cases:
        got = unstable_via_pair(inst, (a, v), (u, b))
        assert got == ref_probe_pair(inst, a, v, u, b)


def test_lift_matches_explicit(small_ensemble):
    for inst, report in small_ensemble:
        for p in report.popular_set():
            dec = decompose(inst, p)
            sub = inst.induced(dec.y + dec.z)
            ref = explicit_level_run(sub, start=dec.m1)
            details = _lift(inst, p)
            assert details.matching == Matching(dec.m0.pairs | ref.matching.pairs)
            assert lift_to_dominant(inst, p) == details.matching
            assert details.y1 == {y for y in sub.men if ref.f[y]}
            assert details.z1 == {z for z in sub.women if ref.f[z]}
            assert details.y0 == set(sub.men) - details.y1
            assert details.z0 == set(sub.women) - details.z1


def to_level_graph(level, result):
    """The G' matching a levelled result stands for: each man's copy at
    his level holds his partner, and his other copy his dummy."""
    pairs = []
    for a in level.base.men:
        copies = level.copies[a]
        w = result.partner_of(a)
        if w is not None:
            pairs.append((copies[result.level[a]], w))
        pairs.append((copies[1 - result.level[a]], level.dummy[a]))
    return Matching(pairs)


def test_is_stable_two_level_matches_explicit(small_ensemble):
    verdicts = set()
    for inst, _ in small_ensemble[:20]:
        level = build_level_graph(inst)
        for aux in stable_matchings(level.graph):
            f = f_values(level, aux)
            stable = LevelledMatching(map_T(level, aux).pairs, {a: f[a] for a in inst.men})
            assert to_level_graph(level, stable) == aux
            # every single-man perturbation: drop his pair, or move him
            # to the other level
            variants = [stable]
            for a in inst.men:
                flipped = dict(stable.level, **{a: 1 - stable.level[a]})
                variants.append(LevelledMatching(stable.pairs, flipped))
                w = stable.partner_of(a)
                if w is not None:
                    variants.append(LevelledMatching(stable.pairs - {(a, w)}, stable.level))
            for result in variants:
                expected = is_stable(level.graph, to_level_graph(level, result))[0]
                assert is_stable_two_level(inst, result) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_per_query_paths_build_no_level_graph(
    small_ensemble, shared_top, contested_hub, tmp_path, monkeypatch, capsys
):
    import popmatch.level_graph

    calls = []
    original = popmatch.level_graph.build_level_graph

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(popmatch.level_graph, "build_level_graph", counting)
    for inst, report in small_ensemble[:10]:
        for e in sorted(inst.edges):
            popular_edge(inst, e)
            dominant_with_edge(inst, e)
        exists_unstable_popular(inst)
        exists_unstable_popular(inst, cubic=True)
        for p in report.popular_set():
            lift_to_dominant(inst, p)
    unstable_via_pair(shared_top, ("a1", "b2"), ("a2", "b1"))
    unstable_via_pair(contested_hub, ("a2", "b2"), ("a3", "b1"))
    path = tmp_path / "inst.pref"
    path.write_text(SHARED_TOP_TEXT)
    assert cli.main(["solve", "--property", "dominant", "-i", str(path)]) == 0
    assert capsys.readouterr().out == "a1 b2\na2 b1\n"
    assert calls == []
    # the counter does see the explicit route
    dominant_via_level_graph(shared_top)
    assert len(calls) == 1
