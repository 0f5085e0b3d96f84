"""The library on the implicit two-copy instance G' against the explicit
G' (`conftest.build_level_graph`): every two-level run must give what
deferred acceptance on the explicit G' gives (`conftest.explicit_level_run`),
the levelled stable matchings must be the explicit G' lattice walk's,
and no path in the library may build G'.
"""

import random
from fractions import Fraction

from conftest import (
    SHARED_TOP_TEXT,
    blocking_candidates,
    blocks_text,
    build_level_graph,
    cyclic_text,
    ensemble_instance,
    explicit_level_run,
    f_values,
    lattice_stable_matchings,
    map_T,
    pair_scan_unstable_popular,
    to_level_graph,
    unstable_via_pair,
)
from popmatch import (
    Instance,
    Matching,
    cli,
    decompose,
    dominant_two_level,
    dominant_with_edge,
    exists_unstable_popular,
    generate_random,
    inverse_map,
    is_dominant,
    is_stable,
    lift_to_dominant,
    min_cost_dominant,
    parse_instance,
    popular_edge,
    stable_matchings,
    stable_with_edge,
)
from popmatch.gale_shapley import forced
from popmatch.rotations import rotation_poset


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
    got, ref = dominant_two_level(inst), explicit_level_run(inst)
    assert got == ref.matching
    assert is_stable(ref.level.graph, to_level_graph(ref.level, got)) == (True, None)


def test_dominant_with_edge_matches_explicit(small_ensemble):
    # forcing (a1,b2) of the last instance succeeds at either level, with
    # different matchings, so the order of the levels shows
    for inst in [inst for inst, _ in small_ensemble] + [generate_random(4, 4, 1.0, seed=14)]:
        for u, v in sorted(inst.edges):
            assert dominant_with_edge(inst, (u, v)) == ref_dominant_with_edge(inst, u, v)


def test_forced_is_stable_at_scale():
    # a forced run is deferred acceptance with the held woman's list cut
    # below her man, so when she holds him the result is stable in G (in
    # G' at two levels) without a scan of its own
    inst = generate_random(300, 300, 0.02, seed=11)
    outcomes = set()
    for u, v in random.Random(3).sample(sorted(inst.edges), 40):
        got = stable_with_edge(inst, (u, v))
        if got is not None:
            assert (u, v) in got.pairs and is_stable(inst, got) == (True, None)
        outcomes.add((None, got is not None))
        for lvl in (0, 1):
            got = forced(inst, {v: (u, lvl)}, 2)
            ref = explicit_level_run(inst, {v: (u, lvl)})
            level = ref.level
            assert (got is not None) == ((level.copies[u][lvl], v) in ref.aux.pairs and ref.stable)
            if got is not None:
                assert is_stable(level.graph, to_level_graph(level, got)) == (True, None)
                assert got == ref.matching and got.level == {a: ref.f[a] for a in inst.men}
            outcomes.add((lvl, got is not None))
    assert outcomes == {(lvl, ok) for lvl in (None, 0, 1) for ok in (False, True)}


def test_unstable_popular_witness_matches_explicit(small_ensemble):
    # the explicit per-edge probe can miss an edge that blocks some
    # dominant matching, so only its verdict must agree
    found = 0
    for inst, _ in small_ensemble:
        got = pair_scan_unstable_popular(inst)
        assert got == ref_exists_unstable_popular(inst, True)
        found += got is not None
        got, ref = exists_unstable_popular(inst), ref_exists_unstable_popular(inst, False)
        assert (got is None) == (ref is None)
        if got is not None:
            m, (a, b) = got
            assert is_dominant(inst, m)[0]
            assert inst.prefers(a, b, m.partner_of(a)) and inst.prefers(b, a, m.partner_of(b))
            assert (a, b) <= ref[1]
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
    # the lift's floors: each m0 woman at her man's side's level, each
    # m1 woman at her partner's level 0
    for inst, report in small_ensemble:
        for p in report.popular_set():
            dec = decompose(inst, p)
            floors = {w: (m, int(m in dec.partition.a1)) for m, w in dec.m0.pairs}
            floors.update((w, (m, 0)) for m, w in dec.m1.pairs)
            ref = explicit_level_run(inst, floors)
            lifted = lift_to_dominant(inst, p)
            assert lifted == ref.matching
            assert lifted.level == {a: ref.f[a] for a in inst.men}


def explicit_stable_matchings(inst):
    """The stable matchings of the explicit G', as (pairs, level) keys."""
    level = build_level_graph(inst)
    out = set()
    for aux in lattice_stable_matchings(level.graph):
        f = f_values(level, aux)
        out.add((map_T(level, aux).pairs, tuple(f[a] for a in inst.men)))
    return out


def test_levelled_walk_matches_explicit(small_ensemble):
    shared = 0
    for inst in [inst for inst, _ in small_ensemble] + [parse_instance(blocks_text(k)) for k in range(2, 6)]:
        got = stable_matchings(inst, levels=2)
        keys = {(m.pairs, tuple(m.level[a] for a in inst.men)) for m in got}
        assert len(keys) == len(got)
        assert keys == explicit_stable_matchings(inst)
        shared += len({m.pairs for m in got}) < len(got)
        level = build_level_graph(inst)
        assert all(is_stable(level.graph, to_level_graph(level, m))[0] for m in got)
    # some instances have two stable matchings of G' with the same pairs
    assert shared
    # the last instance is 5 blocks, with four stable matchings of G' each
    assert len(got) == 4**5


def test_rotation_walk_matches_explicit():
    # the walk on men at two levels is the ordinary walk on the explicit
    # G': as many rotations and the same stable pairs, the copies mapped
    # back to (man, level) and the dummy pairs dropped
    insts = [ensemble_instance(seed) for seed in range(200)]
    insts += [parse_instance(blocks_text(k)) for k in range(1, 5)]
    insts += [parse_instance(cyclic_text(n)) for n in range(2, 9)]
    for inst in insts:
        implicit = rotation_poset(inst, 2)
        level = build_level_graph(inst)
        g = level.graph
        explicit = rotation_poset(g, 1)
        assert len(implicit.preds) == len(explicit.preds)
        names = inst.names
        pairs = {
            (names[m], names[inst.adj[m][k]], lvl)
            for m in range(len(inst.men))
            for k, _, lvl in implicit.partners(m)
        }
        copies = set()
        for c in range(len(g.men)):
            a, lvl = level.origin[g.names[c]]
            for k, _, _ in explicit.partners(c):
                w = g.names[g.adj[c][k]]
                if w not in level.dummy_base:
                    copies.add((a, w, lvl))
        assert pairs == copies


def explicit_min_cost_dominant(inst, costs):
    """The cheapest projected stable matching of the explicit G', copy
    edges costing what the base edge costs and dummy edges nothing; ties
    go to the lexicographically least projection."""
    level = build_level_graph(inst)
    best = None
    for aux in lattice_stable_matchings(level.graph):
        total = sum(
            (costs[(level.origin[x][0], y)] for x, y in aux.pairs if y not in level.dummy_base),
            Fraction(0),
        )
        projected = map_T(level, aux)
        key = (total, projected.sorted_pairs())
        if best is None or key < best[:2]:
            best = (total, projected.sorted_pairs(), projected)
    return best[2], best[0]


def test_min_cost_dominant_matches_explicit(small_ensemble):
    import random

    rng = random.Random(5)
    for inst, _ in small_ensemble:
        for _ in range(3):
            # few distinct values, so ties and the tie-break show
            costs = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in sorted(inst.edges)}
            m, total = min_cost_dominant(inst, costs)
            ref, ref_total = explicit_min_cost_dominant(inst, costs)
            assert m.sorted_pairs() == ref.sorted_pairs() and total == ref_total


def test_per_query_paths_build_no_level_graph(
    small_ensemble, shared_top, contested_hub, tmp_path, monkeypatch, capsys
):
    # G' has two copies of every man, so a path that built it would
    # construct an instance with more men than its input; every
    # constructor (parse, Instance()) fills it through _build
    sizes = []
    original = Instance._build

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sizes.append(len(self.men))

    monkeypatch.setattr(Instance, "_build", recording)
    for inst, report in small_ensemble[:10]:
        for e in sorted(inst.edges):
            popular_edge(inst, e)
            dominant_with_edge(inst, e)
        exists_unstable_popular(inst)
        for p in report.popular_set():
            lift_to_dominant(inst, p)
        for d in report.dominant_set():
            inverse_map(inst, d)
        stable_matchings(inst, levels=2)
        min_cost_dominant(inst, dict.fromkeys(inst.edges, Fraction(1)))
        assert max(sizes, default=0) <= len(inst.men)
        sizes.clear()
    unstable_via_pair(shared_top, ("a1", "b2"), ("a2", "b1"))
    unstable_via_pair(contested_hub, ("a2", "b2"), ("a3", "b1"))
    path = tmp_path / "inst.pref"
    path.write_text(SHARED_TOP_TEXT)
    assert cli.main(["solve", "--property", "dominant", "-i", str(path)]) == 0
    assert capsys.readouterr().out == "a1 b2\na2 b1\n"
    assert max(sizes) <= len(shared_top.men)
    # the recorder does see the explicit G' being built
    sizes.clear()
    build_level_graph(shared_top)
    assert sizes == [4]
