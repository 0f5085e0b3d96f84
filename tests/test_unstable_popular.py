import pytest

from conftest import pair_scan_unstable_popular
from popmatch import (
    InstanceError,
    Matching,
    exists_unstable_popular,
    is_dominant,
    is_stable,
    parse_instance,
    unstable_via_pair,
)


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
