import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    blocks_text,
    cyclic_text,
    lattice_stable_matchings,
    pair_scan_unstable_popular,
    unstable_via_pair,
)
from popmatch import (
    InstanceError,
    Matching,
    exists_unstable_popular,
    generate_random,
    is_dominant,
    is_stable,
    parse_instance,
    rotations,
)
from popmatch.rotations import rotation_poset


def exact_unstable_popular(inst):
    """The least edge in id order that blocks the projection of some
    stable matching of G', and every such matching it blocks, by listing
    them all; None if no edge blocks any."""
    blocked = {}
    for g in lattice_stable_matchings(inst, levels=2):
        for a in inst.men:
            pa = g.partner_of(a)
            for b in inst.pref[a]:
                pb = g.partner_of(b)
                if (pa is None or inst.prefers(a, b, pa)) and (pb is None or inst.prefers(b, a, pb)):
                    blocked.setdefault((a, b), []).append(g)
    return min(blocked.items(), default=None)


def copy_positions(inst, g):
    """Per man, the positions his level-0 and level-1 copies hold in G':
    an index into his list, len(list) for the level-0 copy's dummy and
    -1 for the level-1 copy's, one past the dummy when unmatched."""
    out = []
    for a in inst.men:
        lst, w = inst.pref[a], g.partner_of(a)
        k = lst.index(w) if w is not None else len(lst) + 1
        out += [k, -1] if g.level[a] == 0 else [len(lst), k]
    return out


def check_against_exact(inst):
    """The same pair as the exact reference, and a witness that is the
    men-best of the matchings of G' that pair blocks."""
    got, ref = exists_unstable_popular(inst), exact_unstable_popular(inst)
    if ref is None:
        assert got is None
        return False
    (pair, blocked), (m, got_pair) = ref, got
    assert got_pair == pair
    assert any(m == g and m.level == g.level for g in blocked)
    best = copy_positions(inst, m)
    for g in blocked:
        assert all(x <= y for x, y in zip(best, copy_positions(inst, g)))
    return True


def test_exists_shared_top(shared_top):
    got = exists_unstable_popular(shared_top)
    assert got == (Matching([("a1", "b2"), ("a2", "b1")]), ("a1", "b1"))


def test_exists_contested_hub(contested_hub):
    got = exists_unstable_popular(contested_hub)
    assert got is not None
    m, (a, b) = got
    assert m == Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])
    # (a1,b1) also blocks this matching and sorts first in the edge scan
    assert (a, b) == ("a1", "b1")


def test_exists_none_when_all_popular_are_stable():
    inst = parse_instance("men: a1\nwomen: b1\na1: b1\nb1: a1\n")
    assert exists_unstable_popular(inst) is None
    assert pair_scan_unstable_popular(inst) is None


def test_unstable_via_pair_fixture(shared_top, contested_hub):
    got = unstable_via_pair(shared_top, ("a1", "b2"), ("a2", "b1"))
    assert got == Matching([("a1", "b2"), ("a2", "b1")])
    got = unstable_via_pair(contested_hub, ("a2", "b2"), ("a3", "b1"))
    assert got == Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")])


def test_unstable_via_pair_shared_vertex_is_vacuous(shared_top):
    assert unstable_via_pair(shared_top, ("a1", "b1"), ("a2", "b1")) is None


def test_unstable_via_pair_rejects_bad_input(shared_top, contested_hub, nested_fan):
    with pytest.raises(InstanceError, match="not an edge"):
        unstable_via_pair(shared_top, ("a1", "b2"), ("a2", "b2"))
    with pytest.raises(InstanceError, match="cannot block"):
        unstable_via_pair(contested_hub, ("a1", "b3"), ("a2", "b2"))
    with pytest.raises(InstanceError, match="mutually improve"):
        unstable_via_pair(nested_fan, ("a1", "b1"), ("a2", "b2"))


def test_unstable_via_pair_unsatisfiable_probe(contested_hub):
    # forcing (a1,b1) alongside (a2,b2) strands a3 and b3, which can
    # still be matched to each other's neighbours, so nothing dominant fits
    assert unstable_via_pair(contested_hub, ("a2", "b2"), ("a1", "b1")) is None


def test_variants_agree(small_ensemble):
    for inst, _ in small_ensemble:
        fast = exists_unstable_popular(inst)
        slow = pair_scan_unstable_popular(inst)
        assert (fast is None) == (slow is None)


def test_existence_matches_oracle(small_ensemble):
    for inst, report in small_ensemble:
        some_unstable_popular = any(
            popular and not stable
            for popular, stable in zip(report.popular, report.stable)
        )
        assert (exists_unstable_popular(inst) is not None) == some_unstable_popular


def test_witness_soundness(small_ensemble):
    for inst, _ in small_ensemble:
        for scan in (exists_unstable_popular, pair_scan_unstable_popular):
            got = scan(inst)
            if got is None:
                continue
            m, (a, b) = got
            assert is_dominant(inst, m)[0]
            ok, pair = is_stable(inst, m)
            assert not ok
            # the reported edge really blocks the matching
            assert inst.prefers(a, b, m.partner_of(a))
            assert inst.prefers(b, a, m.partner_of(b))


def test_matches_exact_reference(small_ensemble):
    assert sum(check_against_exact(inst) for inst, _ in small_ensemble)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 7),
    k=st.integers(2, 7),
    density=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_matches_exact_reference_random(n, k, density, seed):
    check_against_exact(generate_random(n, k, density, seed=seed))


@pytest.mark.parametrize(
    "n, k, density, seed",
    [(7, 7, 0.5, 19652), (8, 7, 0.5, 1347), (4, 3, 0.8, 173), (4, 4, 1.0, 8039)],
)
def test_matches_exact_reference_where_a_search_decides(n, k, density, seed):
    # without the search back from A for C (the first two) or from B for
    # D (the third), or with one that follows a single precedence arc
    # (the last), an edge that blocks no dominant matching is reported
    assert check_against_exact(generate_random(n, k, density, seed=seed))


def test_least_blocking_edge_is_reported():
    # the per-edge probe of earlier versions missed (a2,b3), reported
    # (a2,b5), and gave this same matching
    inst = generate_random(7, 7, 0.3, 185)
    assert check_against_exact(inst)
    m, pair = exists_unstable_popular(inst)
    assert pair == ("a2", "b3")
    assert m.sorted_pairs() == (
        ("a1", "b7"), ("a2", "b1"), ("a3", "b6"), ("a4", "b4"),
        ("a5", "b2"), ("a6", "b5"), ("a7", "b3"),
    )


def test_cyclic_all_stable():
    # G' has a chain of 2n stable matchings, and no edge blocks any
    for n in range(2, 8):
        inst = parse_instance(cyclic_text(n))
        assert exists_unstable_popular(inst) is None
        assert pair_scan_unstable_popular(inst) is None
    # 40,000 edges and a chain of 399 rotations of G'
    assert exists_unstable_popular(parse_instance(cyclic_text(200))) is None


def test_all_stable_at_scale():
    # 80,000 edges and 60,000 rotations of G'
    inst = parse_instance(blocks_text(20_000))
    assert exists_unstable_popular(inst) is None


def test_memory_stays_within_the_poset(monkeypatch):
    # no structure quadratic in the number of rotations: the scan peaks
    # near the peak of building the poset it reads, with its precedence,
    # taken as that build returns, before the scan allocates anything else
    inst = parse_instance(blocks_text(5_000))
    peaks = []

    def traced_poset(*args):
        poset = rotation_poset(*args)
        poset.preds
        peaks.append(tracemalloc.get_traced_memory()[1])
        return poset

    monkeypatch.setattr(rotations, "rotation_poset", traced_poset)
    tracemalloc.start()
    try:
        assert exists_unstable_popular(inst) is None
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_random_2000():
    inst = generate_random(2000, 2000, 0.01, 1)
    m, (a, b) = exists_unstable_popular(inst)
    assert (a, b) == ("a1000", "b1290")
    assert is_dominant(inst, m)[0]
    assert inst.prefers(a, b, m.partner_of(a)) and inst.prefers(b, a, m.partner_of(b))
