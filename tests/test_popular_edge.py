import copy
import hashlib
import importlib.util
import json
import pickle
import random
from pathlib import Path

import pytest

import popmatch
from popmatch import (
    Instance,
    InstanceError,
    Matching,
    decompose,
    dominant_two_level,
    dominant_with_edge,
    generate_random,
    inverse_map,
    is_dominant,
    is_popular,
    is_stable,
    lift_to_dominant,
    lower_to_stable,
    parse_instance,
    parse_matching,
    popular_edge,
    run,
    serialize_instance,
    serialize_matching,
    stable_with_edge,
)
from popmatch import gale_shapley, oracles, rotations
from popmatch.elections import MINUS, PLUS, label_edges
from popmatch.instance import LevelledMatching
from popmatch.popular_edge import NotPopularError
from popmatch.rotations import popular_routes
from conftest import (
    blocks_text, cyclic_text, ensemble_instance, gm_adj, induced, measured_child,
)
from test_instance import _unset

ROOT = Path(__file__).resolve().parents[1]


def test_decompose_contested_hub(contested_hub):
    # the unstable dominant matching has no stable remainder at all
    m = Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])
    dec = decompose(contested_hub, m)
    assert dec.m0 == m and dec.m1 == Matching()
    assert dec.partition.a0 == {"a1", "a2"}
    assert dec.partition.a1 == {"a3"}
    assert dec.y == () and dec.z == ()


def test_decompose_mixed():
    from popmatch import parse_instance

    # shared_top plus an untouched couple: the couple stays stable while
    # the rest is genuinely dominant
    inst = parse_instance(
        "men: a1 a2 a3\nwomen: b1 b2 b3\n"
        "a1: b1 b2\na2: b1\na3: b3\nb1: a1 a2\nb2: a1\nb3: a3\n"
    )
    dec = decompose(inst, Matching([("a1", "b2"), ("a2", "b1"), ("a3", "b3")]))
    assert dec.m0 == Matching([("a1", "b2"), ("a2", "b1")])
    assert dec.m1 == Matching([("a3", "b3")])
    assert dec.partition.a0 == {"a1"} and dec.partition.a1 == {"a2"}
    assert dec.y == ("a3",) and dec.z == ("b3",)


def test_decompose_trivial_when_stable(contested_hub):
    stable = Matching([("a1", "b3"), ("a2", "b1")])
    dec = decompose(contested_hub, stable)
    assert dec.m0 == Matching() and dec.m1 == stable


def test_decompose_rejects_non_popular(contested_hub):
    with pytest.raises(NotPopularError) as err:
        decompose(contested_hub, Matching([("a1", "b1"), ("a2", "b2")]))
    assert err.value.certificate is not None


def test_decompose_invariants(small_ensemble):
    for inst, report in small_ensemble[:25]:
        for m in report.popular_set():
            dec = decompose(inst, m)
            part = dec.partition
            assert dec.m0.pairs | dec.m1.pairs == m.pairs
            assert not (dec.m0.pairs & dec.m1.pairs)
            assert not (part.a0 & part.a1)
            closure = part.a0 | part.a1 | part.b0 | part.b1
            # the closure side is fully matched by its half
            for v in closure:
                assert dec.m0.partner_of(v) is not None
            labeled = label_edges(inst, m)
            adj = gm_adj(labeled)
            for (a, b), lab in labeled.label.items():
                if lab == (PLUS, PLUS):
                    assert a in part.a0 and b in part.b1
                if a in part.a1 and b in part.b0:
                    assert lab == (MINUS, MINUS)
            # no pruned-subgraph edge crosses from the closure to the rest
            for a in part.a1:
                assert not any(w in dec.z for w in adj[a])
            for b in part.b0:
                assert not any(x in dec.y for x in adj[b])
            sub0 = induced(inst, closure)
            if sub0.men or sub0.women:
                assert is_dominant(sub0, dec.m0)[0]
            sub1 = induced(inst, set(dec.y) | set(dec.z))
            assert is_stable(sub1, dec.m1)[0]


def test_lift_to_dominant(contested_hub, small_ensemble):
    m = Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])
    lifted = lift_to_dominant(contested_hub, m)
    assert is_dominant(contested_hub, lifted)[0]
    assert ("a2", "b2") in lifted.pairs
    for inst, report in small_ensemble[:25]:
        dset = set(report.dominant_set())
        for p in report.popular_set():
            dec = decompose(inst, p)
            up = lift_to_dominant(inst, p)
            assert up in dset
            assert dec.m0.pairs <= up.pairs
            if not dec.m1:
                # nothing to transform: already dominant
                assert up == p


def test_lift_label_properties(small_ensemble):
    # after lifting, bad edges cover the demoted x demoted block and
    # blocking pairs could only ever sit in the promoted x promoted block
    for inst, report in small_ensemble[:15]:
        for p in report.popular_set():
            dec = decompose(inst, p)
            part = dec.partition
            lifted = lift_to_dominant(inst, p)
            y1 = {y for y in dec.y if lifted.level[y]}
            z1 = {lifted.partner_of(y) for y in y1} - {None}
            labeled = label_edges(inst, lifted)
            lo_men = part.a1 | y1
            lo_women = part.b0 | (set(dec.z) - z1)
            hi_men = part.a0 | (set(dec.y) - y1)
            hi_women = part.b1 | z1
            for (a, b), lab in labeled.label.items():
                if a in lo_men and b in lo_women:
                    assert lab == (MINUS, MINUS)
                if lab == (PLUS, PLUS):
                    assert a in hi_men and b in hi_women


def test_lift_keeps_transformed_side_happy(small_ensemble):
    # demoted men and kept women never lose ground on the lifted side
    for inst, report in small_ensemble[:15]:
        for p in report.popular_set():
            dec = decompose(inst, p)
            lifted = lift_to_dominant(inst, p)
            y1 = {y for y in dec.y if lifted.level[y]}
            z1 = {lifted.partner_of(y) for y in y1} - {None}
            for y in y1:
                old, new = p.partner_of(y), lifted.partner_of(y)
                if old is not None:
                    assert new is not None
                    assert inst.rank[y][new] <= inst.rank[y][old]
            for z in set(dec.z) - z1:
                old, new = p.partner_of(z), lifted.partner_of(z)
                if old is not None:
                    assert new is not None
                    assert inst.rank[z][new] <= inst.rank[z][old]


def test_lower_to_stable(shared_top, small_ensemble):
    popular_unstable = Matching([("a1", "b2"), ("a2", "b1")])
    assert lower_to_stable(shared_top, popular_unstable) == Matching([("a1", "b1")])
    # the men-best of the oracle's stable matchings that contain m1:
    # every man ranks his partner in it at least as high as in any other
    # (all stable matchings match the same men)
    for inst, report in small_ensemble:
        rank = inst.rank
        for p in report.popular_set():
            dec = decompose(inst, p)
            down = lower_to_stable(inst, p)
            holding = [s for s in report.stable_set() if dec.m1.pairs <= s.pairs]
            assert down in holding
            for s in holding:
                for a, b in s.pairs:
                    assert rank[a][down.partner_of(a)] <= rank[a][b]
            if not dec.m0:
                assert down == p


def _spy_on_views(monkeypatch, seen):
    """Lists in `seen` the name of every view or list a LevelledMatching
    builds on first read, until `monkeypatch.undo()`."""
    getattr_ = LevelledMatching.__getattr__

    def spy(self, name):
        seen.append(name)
        return getattr_(self, name)

    monkeypatch.setattr(LevelledMatching, "__getattr__", spy)


def test_transformations_floor_by_number(monkeypatch, nested_fan, contested_hub):
    # lift_to_dominant and lower_to_stable hand the engine their floors
    # as numbers: neither builds an id view of a numbered matching
    seen = []
    for inst in (nested_fan, contested_hub):
        popular = [parse_matching(serialize_matching(p), inst) for p in oracles.popular_set(inst)]
        assert len(popular) > 1
        _spy_on_views(monkeypatch, seen)
        results = [f(inst, p) for p in popular for f in (lift_to_dominant, lower_to_stable)]
        monkeypatch.undo()
        assert seen == [] and all(isinstance(r, LevelledMatching) for r in results)
        assert all(is_popular(inst, r)[0] for r in results)


def test_transformations_number_an_id_matching_once(monkeypatch, contested_hub):
    # a matching given by id is numbered once per call: the verifier's
    # labelling hands its partner ranks on to `decompose` and `inverse_map`
    inst = contested_hub
    popular = [Matching(p.sorted_pairs()) for p in oracles.popular_set(inst)]
    dominant = [Matching(p.sorted_pairs()) for p in oracles.dominant_set(inst)]
    assert len(popular) > 1 and dominant
    calls = []
    read = Instance._read

    def spy(self, records):
        calls.append(self)
        return read(self, records)

    monkeypatch.setattr(Instance, "_read", spy)
    cases = [(f, p) for p in popular for f in (decompose, lift_to_dominant, lower_to_stable)]
    for f, p in cases + [(inverse_map, p) for p in dominant]:
        calls.clear()
        f(inst, p)
        assert calls == [inst], (f.__name__, p)


def test_dominant_with_edge(shared_top, contested_hub):
    assert dominant_with_edge(shared_top, ("a1", "b2")) == Matching(
        [("a1", "b2"), ("a2", "b1")]
    )
    got = dominant_with_edge(contested_hub, ("a2", "b2"))
    assert got is not None and ("a2", "b2") in got.pairs
    assert is_dominant(contested_hub, got)[0]
    with pytest.raises(InstanceError):
        dominant_with_edge(shared_top, ("a2", "b2"))


def test_popular_edge_fixtures(shared_top, contested_hub):
    for e in sorted(shared_top.edges):
        got = popular_edge(shared_top, e)
        assert got is not None and e in got.pairs
    got = popular_edge(contested_hub, ("a2", "b2"))
    assert got is not None and ("a2", "b2") in got.pairs


def test_popular_edge_prefers_stable_witness(shared_top):
    got = popular_edge(shared_top, ("a1", "b1"))
    assert got == Matching([("a1", "b1")])


def test_popular_edge_completeness(small_ensemble):
    for inst, report in small_ensemble:
        # the oracle's popular edges, read off the fixture's own report
        good = set().union(*(m.pairs for m in report.popular_set()))
        for e in sorted(inst.edges):
            got = popular_edge(inst, e)
            assert (got is not None) == (e in good)
            if got is not None:
                assert e in got.pairs
                assert is_popular(inst, got)[0]
                assert is_stable(inst, got)[0] or is_dominant(inst, got)[0]


def composed(inst, edge):
    # the forced runs whose answer `popular_edge` reads off its route table
    want = stable_with_edge(inst, edge)
    return want if want is not None else dominant_with_edge(inst, edge)


def assert_same_witness(inst, edges):
    for e in edges:
        got, want = popular_edge(inst, e), composed(inst, e)
        if want is None:
            assert got is None, e
        else:
            assert got is not None and got.pairs == want.pairs, e
            assert got.level == want.level, e


def benchmark_queries(seed):
    """The edge-queries workload's instance and its 120 queries."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inst = generate_random(*gen.EDGE_QUERIES, seed)
    queries = gen.edge_queries(inst, run(inst), dominant_two_level(inst), 40, seed)
    return inst, [tuple(e) for _cls, e in queries]


def test_popular_edge_is_the_composed_forced_runs(small_ensemble):
    texts = [blocks_text(k) for k in range(1, 5)] + [cyclic_text(n) for n in range(2, 7)]
    instances = [inst for inst, _ in small_ensemble] + list(map(parse_instance, texts))
    for inst in instances:
        assert_same_witness(inst, sorted(inst.edges))


@pytest.mark.parametrize("seed", [4, 5])
def test_popular_edge_on_the_benchmark_queries(seed):
    inst, edges = benchmark_queries(seed)
    assert len(edges) == 120
    assert_same_witness(inst, edges)


def test_popular_edge_rejects_what_is_no_edge(shared_top):
    inst = parse_instance(serialize_instance(shared_top))
    for e in (("a2", "b2"), ("b1", "a1"), ("a1", "zz")):
        for query in (popular_edge, stable_with_edge):
            with pytest.raises(InstanceError, match=r"^\(%s,%s\) is not an edge of the instance$" % e):
                query(inst, e)
    assert "popular_routes" not in vars(inst)


def test_routes_take_one_byte_per_edge(contested_hub):
    # the low two bits are the route, and bit 2 marks exactly the pairs
    # the unforced state kept at the route's level holds
    insts = [contested_hub, parse_instance(blocks_text(3)), parse_instance(cyclic_text(4))]
    insts += [generate_random(30, 30, 0.2, seed) for seed in range(1, 4)]
    marked = unmarked = 0
    for inst in insts:
        first, table = popular_routes(inst)
        assert isinstance(table, bytearray) and len(table) == len(inst.edges)
        # the instance's own edge offsets, not a copy
        assert first is inst.first
        assert list(first) == [sum(map(len, inst.adj[:m])) for m in range(len(inst.men) + 1)]
        assert set(table) <= {0, 1, 2, 3, 5, 6, 7}
        for m, lst in enumerate(inst.adj[: len(inst.men)]):
            for k in range(len(lst)):
                route = table[first[m] + k] & 3
                if not route:
                    continue
                levels = 1 + (route > 1)
                state = gale_shapley._unforced(inst, levels)
                held = (state[3][m], state[4][m]) == (k, route - levels)
                assert bool(table[first[m] + k] & 4) == held, (m, k)
                marked += held
                unmarked += not held
    assert marked and unmarked


def test_popular_edges_read_the_posets(small_ensemble):
    # the package name is the poset reader; the exhaustive oracle stays
    # in `oracles` as its reference
    assert popmatch.popular_edges is rotations.popular_edges
    insts = [inst for inst, _ in small_ensemble]
    insts += [parse_instance(blocks_text(k)) for k in range(1, 4)]
    insts += [parse_instance(cyclic_text(n)) for n in range(2, 6)]
    for inst in insts:
        assert popmatch.popular_edges(inst) == oracles.popular_edges(inst, 64)


def _count_runs(monkeypatch, counts):
    """Counts floored runs, rotation posets, runs of the engine from
    empty arrays, these per level, and climbs of the kept level-1 state
    to level 2."""
    propose = gale_shapley._propose

    def from_empty(inst, levels, held=(), state=None, free=()):
        if state is None:
            counts[f"empty{levels}"] = counts.get(f"empty{levels}", 0) + 1
        elif type(state[0]) is list:
            counts["climb"] = counts.get("climb", 0) + 1
        return propose(inst, levels, held, state, free)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gale_shapley, "_propose", from_empty)
    monkeypatch.setattr(gale_shapley, "_floored", counted("floored", gale_shapley._floored))
    monkeypatch.setattr(rotations, "rotation_poset", counted("poset", rotations.rotation_poset))


def test_later_queries_run_at_most_one_forced_run(monkeypatch):
    # the first query keeps the unforced state at both levels, by one
    # run from empty arrays at level 1 and one climb from it to level 2,
    # and walks the two rotation posets on from copies of it; after it a
    # "yes" the route table marks is no floored run, any other "yes" one
    # resumed from that state, a "no" none, and no query starts the
    # engine from empty arrays; seed 2 has unmarked "yes" answers on
    # all three routes
    inst = parse_instance(serialize_instance(generate_random(30, 30, 0.2, 2)))
    counts = {}
    _count_runs(monkeypatch, counts)
    edges = sorted(inst.edges)
    popular_edge(inst, edges[0])
    started = {"empty1": 1, "climb": 1, "poset": 2}
    assert {k: v for k, v in counts.items() if k != "floored"} == started
    first, table = inst.popular_routes
    answers = {"marked": 0, "floored": 0, "no": 0}
    for e in edges:
        before = counts.get("floored", 0)
        got = popular_edge(inst, e)
        m, _, k = inst.slot(*e)
        kind = "no" if got is None else "marked" if table[first[m] + k] & 4 else "floored"
        assert counts.get("floored", 0) - before == (kind == "floored"), e
        answers[kind] += 1
    assert {k: v for k, v in counts.items() if k != "floored"} == started
    assert all(answers.values()), answers


def test_cli_popular_edge_starts_once_per_level(monkeypatch, tmp_path, capsys):
    # each `popular-edge` call runs the engine from empty arrays at most
    # once in all: the stable route runs it at level 1, and the dominant
    # one at level 0 and at level 1 resumes from the level-2 state, which
    # climbs on from the level-1 one
    from popmatch import cli

    path = tmp_path / "inst.pref"
    path.write_text(serialize_instance(generate_random(12, 12, 0.3, 5)))
    codes, counts = set(), {}
    _count_runs(monkeypatch, counts)
    for m, w in sorted(parse_instance(path.read_text()).edges):
        counts.clear()
        codes.add(cli.main(["popular-edge", "--edge", f"{m},{w}", "-i", str(path)]))
        capsys.readouterr()
        assert counts.get("empty1", 0) == 1 and "empty2" not in counts, (m, w, counts)
        assert counts.get("climb", 0) <= 1 and "poset" not in counts, (m, w, counts)
        assert counts.get("floored", 0) in (1, 2, 3)
    assert codes == {0, 1}


def test_posets_walk_on_from_the_kept_state(monkeypatch):
    # a one-shot poset runs the engine itself and keeps nothing; once the
    # instance keeps the unforced state, the walk goes on from copies of
    # it, runs no engine, finds the same rotations, precedence and chains,
    # and leaves the kept lists as they were
    insts = [ensemble_instance(seed) for seed in range(120)]
    insts += [parse_instance(cyclic_text(n)) for n in range(2, 7)]
    insts += [parse_instance(blocks_text(k)) for k in range(1, 5)]
    insts.append(generate_random(60, 60, 0.1, 3))
    counts = {}
    _count_runs(monkeypatch, counts)
    rotated = 0
    for inst in insts:
        for levels in (1, 2):
            counts.clear()
            rotations.rotation_poset(inst, levels)
            assert counts == {f"empty{levels}": 1, "poset": 1}, counts
            assert not any(k.startswith("unforced_state") for k in vars(inst))
        for levels in (2, 1):
            fresh = rotations.rotation_poset(inst, levels)
            kept = gale_shapley._unforced(inst, levels)
            contents = [a.copy() for a in kept]
            counts.clear()
            walked = rotations.rotation_poset(inst, levels)
            assert counts == {"poset": 1}, counts
            assert walked.preds == fresh.preds and walked.chains == fresh.chains
            assert walked.held == fresh.held
            assert vars(inst)[f"unforced_state_{levels}"] is kept and kept == contents
            rotated += len(walked.preds) > 0
    assert rotated > 60


# SHA-256 of every edge's `popular_edge` answer, (pos, lvl) or None, on
# `pinned_instances()`, the edges of each instance in sorted order.
POPULAR_EDGE_SHA = "8563f8d119705fc666465d758303aae15f5ed60cfdb2666181d1791f718362fb"


def pinned_instances():
    yield from (ensemble_instance(seed) for seed in range(200))
    yield from (generate_random(30, 30, 0.2, seed) for seed in range(1, 6))
    yield generate_random(300, 300, 0.03, 1)
    yield from (parse_instance(cyclic_text(n)) for n in range(2, 8))
    yield from (parse_instance(blocks_text(k)) for k in range(1, 5))


def test_popular_edge_answers_are_pinned():
    answers = []
    for inst in pinned_instances():
        for e in sorted(inst.edges):
            got = popular_edge(inst, e)
            answers.append(None if got is None else (got.pos, got.lvl))
    assert len(answers) == 5961
    assert sum(got is not None for got in answers) == 1623
    assert sum(got is not None and any(got[1]) for got in answers) > 100
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == POPULAR_EDGE_SHA, digest


def test_shared_overlays_stay_private():
    # a "yes" the route table marks is a new witness bound to the empty
    # overlays kept beside the unforced state at its level: reading,
    # writing, copying or pickling a witness never writes them or the
    # kept lists, and it stands for what the floored run finds
    marked = 0
    for inst in pinned_instances():
        edges = sorted(inst.edges)
        if not edges:
            continue
        got = [(e, popular_edge(inst, e)) for e in edges]
        first, table = inst.popular_routes
        by_level = {1: [], 2: []}
        for e, w in got:
            m, _, k = inst.slot(*e)
            route = table[first[m] + k]
            if route & 4:
                levels = 1 + (route & 3 > 1)
                by_level[levels].append((e, w, (m, k, (route & 3) - levels)))
        for levels, witnesses in by_level.items():
            kept = vars(inst)[f"unforced_state_{levels}"]
            for e, w, held in witnesses[:3]:
                floored = gale_shapley._floored(inst, [held], levels)
                for twin in (w, copy.copy(w), pickle.loads(pickle.dumps(w))):
                    assert twin == floored and hash(twin) == hash(floored), e
                    assert (twin.pos, twin.lvl) == (floored.pos, floored.lvl), e
            if len(witnesses) >= 2:
                (_, one, _), (_, two, _) = witnesses[:2]
                assert one is not two
                one.pos[0] += 1
                one.lvl[0] += 1
                assert (two.pos, two.lvl) == (kept[3], kept[4]) != (one.pos, one.lvl)
            marked += len(witnesses)
        for levels in (1, 2):
            at, level = vars(inst)[f"unforced_overlays_{levels}"]
            kept = vars(inst)[f"unforced_state_{levels}"]
            assert at == level == {} and (at.kept, level.kept) == (kept[3], kept[4])
            assert at.kept is kept[3] and level.kept is kept[4]
            assert kept == gale_shapley._propose(inst, levels)
    assert marked > 1000


# How far the peak RSS of parsing the edge-queries instance and answering
# its 120 queries may rise over that of up to three forced runs per
# query.  The table keeps one byte per edge, but building the rotation
# poset of G' for it sets the peak: 18.4-18.5 MB against 17.3-17.4 MB
# (+6%) on a 2-vCPU VM.
ROUTES_RSS_GROWTH = 1.10

# Parses the instance file, answers the queries with `popular_edge` or
# with the composed forced runs, and prints their answers.
QUERY_CHILD = (
    "import json, sys\n"
    "from popmatch import dominant_with_edge, parse_instance, popular_edge, stable_with_edge\n"
    "inst = parse_instance(open(sys.argv[1]).read())\n"
    "def composed(inst, e):\n"
    "    got = stable_with_edge(inst, e)\n"
    "    return got if got is not None else dominant_with_edge(inst, e)\n"
    "query = popular_edge if sys.argv[3] == 'table' else composed\n"
    "edges = [tuple(e) for e in json.load(open(sys.argv[2]))]\n"
    "print(json.dumps([got is not None for got in (query(inst, e) for e in edges)]))\n"
)


def test_route_table_keeps_the_query_peak(tmp_path):
    inst, edges = benchmark_queries(4)
    (tmp_path / "inst.pref").write_text(serialize_instance(inst))
    (tmp_path / "queries.json").write_text(json.dumps(edges))
    peaks, answers = {}, {}
    for how in ("composed", "table"):
        argv = [QUERY_CHILD, str(tmp_path / "inst.pref"), str(tmp_path / "queries.json"), how]
        code, out, err, _, peaks[how] = measured_child("-c", *argv, timeout=120)
        assert (code, err) == (0, ""), err
        answers[how] = json.loads(out)
    assert answers["table"] == answers["composed"] and any(answers["table"])
    assert peaks["table"] <= ROUTES_RSS_GROWTH * peaks["composed"], peaks


def test_witnesses_build_their_positions_on_first_read(monkeypatch, small_ensemble):
    # a floored run copies no list: its witness holds the overlays of the
    # kept `at` and `level`, and `popular_edge`, `forced`, hashing and
    # comparing read them without building `pos`, `lvl` or a view by id
    seen = []
    checked = 0
    for inst, _ in small_ensemble:
        inst = parse_instance(serialize_instance(inst))
        edges = sorted(inst.edges)
        popular_edge(inst, edges[0])  # keeps the unforced state per level
        _spy_on_views(monkeypatch, seen)
        got = [(e, popular_edge(inst, e), popular_edge(inst, e)) for e in edges]
        got = [(e, w, w2) for e, w, w2 in got if w is not None]
        unforced = [gale_shapley._floored(inst, (), levels) for levels in (1, 2)]
        for e, w, w2 in got:
            assert hash(w) == hash(w2) and w == w2 and not w != w2, e
            # overlays of one kept list differ only where either has entries
            for u in unforced:
                same = Matching(w.sorted_pairs()) == Matching(u.sorted_pairs())
                assert (w == u) == (u == w) == same, e
        for m, w in edges:
            for levels in (1, 2):
                gale_shapley.forced(inst, {w: (m, levels - 1)}, levels)
        monkeypatch.undo()
        assert got and set(seen) <= {"_hash"}, set(seen)
        seen.clear()
        for e, w, w2 in got:
            for name in ("pos", "lvl", "level", "pairs", "_partner"):
                assert _unset(w, name) and _unset(w2, name), (e, name)
            # pickling and copying round-trip a witness whose lists are
            # unbuilt, and build neither its lists nor its views
            for twin in (copy.copy(w), pickle.loads(pickle.dumps(w))):
                assert all(_unset(w, name) for name in ("pos", "lvl", "pairs")), e
                assert twin == w and hash(twin) == hash(w)
                assert (twin.pos, twin.lvl) == (w2.pos, w2.lvl), e
            # the first read gives the lists of the run on fresh copies of
            # the kept state
            m, k = inst.slot(*e)[::2]
            for levels in (1, 2):
                for lvl in range(levels):
                    floored = gale_shapley._floored(inst, [(m, k, lvl)], levels)
                    fresh = [a.copy() for a in vars(inst)[f"unforced_state_{levels}"]]
                    state = gale_shapley._propose(inst, levels, [(m, k, lvl)], fresh)
                    assert (floored.pos, floored.lvl) == (state[3], state[4]), e
                    checked += 1
            assert w.pos == w2.pos and isinstance(w.pos, list) and w._runs is None
            assert w == w2 and hash(w) == hash(w2)
            assert copy.copy(w) == w == pickle.loads(pickle.dumps(w))
    assert checked > 300


def test_len_of_a_witness_builds_no_view(small_ensemble):
    # `len` counts the positions: a fresh witness, overlays and all,
    # keeps its views by id unbuilt
    counted = 0
    for inst, _ in small_ensemble:
        inst = parse_instance(serialize_instance(inst))
        for e in sorted(inst.edges):
            w = popular_edge(inst, e)
            if w is None:
                continue
            size = len(w)
            assert _unset(w, "pairs") and _unset(w, "_partner"), e
            assert size == len(Matching(w.sorted_pairs())), e
            counted += 1
    assert counted > 100


def _count_overlay_entries(monkeypatch):
    """The overlay entries each floored run that proposes writes, listed
    per run; the climb to the level-2 state, on plain lists, is not one."""
    written = []
    propose = gale_shapley._propose

    def counted(inst, levels, held=(), state=None, free=()):
        got = propose(inst, levels, held, state, free)
        if state is not None and type(state[0]) is not list:
            assert all(type(a) is gale_shapley._Overlay for a in got)
            written.append(sum(map(len, got)))
        return got

    monkeypatch.setattr(gale_shapley, "_propose", counted)
    return written


# The overlay entries written in all by the floored runs of the query
# list in `test_floored_runs_write_what_they_change`, and how many of its
# 50 "yes" answers make a run that proposes (from 25 to 905 entries
# each): the other 41 find their floors met in the kept state.  Copying
# a kept list instead adds one entry per man or woman to every run.
WRITTEN_ENTRIES = 4365
PROPOSING_QUERIES = 9


def test_floored_runs_write_what_they_change(monkeypatch):
    # deterministic work counts: forcing a pair of the unforced matching
    # at either level enters no proposal loop, and the proposing runs of
    # a fixed seeded list of queries and the entries they write are
    # pinned
    inst = generate_random(200, 200, 0.1, 29)
    stable, dominant = run(inst), dominant_two_level(inst)
    rng = random.Random(29)
    queries = rng.sample(sorted(inst.edges), 100)
    queries += rng.sample(sorted(dominant.pairs - stable.pairs), 30)
    written = _count_overlay_entries(monkeypatch)
    popular_edge(inst, queries[0])  # keeps the unforced state per level
    written.clear()
    for m, w in stable.sorted_pairs():
        assert stable_with_edge(inst, (m, w)) == stable
    for m, w in dominant.sorted_pairs():
        assert gale_shapley.forced(inst, {w: (m, dominant.level[m])}, 2) == dominant
    assert written == []
    answers = [popular_edge(inst, e) is not None for e in queries]
    assert sum(answers) == 50 and 0 not in written
    assert (len(written), sum(written)) == (PROPOSING_QUERIES, WRITTEN_ENTRIES), written
