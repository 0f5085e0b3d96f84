import pytest

from popmatch import (
    InstanceError,
    Matching,
    decompose,
    dominant_with_edge,
    is_dominant,
    is_popular,
    is_stable,
    lift_to_dominant,
    lower_to_stable,
    popular_edge,
)
from popmatch.elections import MINUS, PLUS, label_edges
from popmatch.popular_edge import NotPopularError


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
            for (a, b), lab in labeled.label.items():
                if lab == (PLUS, PLUS):
                    assert a in part.a0 and b in part.b1
                if a in part.a1 and b in part.b0:
                    assert lab == (MINUS, MINUS)
            # no pruned-subgraph edge crosses from the closure to the rest
            for a in part.a1:
                assert not any(w in dec.z for w in labeled.gm_adj[a])
            for b in part.b0:
                assert not any(x in dec.y for x in labeled.gm_adj[b])
            sub0 = inst.induced(closure)
            if sub0.men or sub0.women:
                assert is_dominant(sub0, dec.m0)[0]
            sub1 = inst.induced(set(dec.y) | set(dec.z))
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
