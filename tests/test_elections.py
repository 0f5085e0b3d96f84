import pytest

from popmatch import (
    InstanceError,
    Matching,
    compare,
    defeats,
    generate_random,
    is_dominant,
    label_edges,
    parse_instance,
    parse_matching,
    run,
    serialize_instance,
    serialize_matching,
    vote,
)
from popmatch.elections import MINUS, PLUS
from conftest import gm_adj, reversed_declaration_cases


@pytest.fixture
def fan_matchings():
    return {
        "near_stable": Matching([("a1", "b1"), ("a2", "b2")]),
        "swapped": Matching([("a1", "b2"), ("a2", "b1")]),
        "perfect": Matching([("a1", "b3"), ("a2", "b2"), ("a3", "b1")]),
    }


def test_vote(nested_fan):
    assert vote(nested_fan, "a1", "b1", "b2") == PLUS
    assert vote(nested_fan, "a1", "b2", "b1") == MINUS
    assert vote(nested_fan, "a1", "b2", "b2") == 0
    assert vote(nested_fan, "a1", "b3", None) == PLUS
    with pytest.raises(InstanceError):
        vote(nested_fan, "a3", "b2", "b1")
    # an unknown vertex is named, not a bare KeyError
    with pytest.raises(InstanceError, match="unknown vertex 'zz'"):
        vote(nested_fan, "zz", "b1")
    with pytest.raises(InstanceError, match="'zz' is not adjacent to 'a1'"):
        vote(nested_fan, "a1", "zz")
    assert nested_fan.prefers("a1", "b1", "b2")
    assert not nested_fan.prefers("a1", "b2", "b1")
    with pytest.raises(InstanceError, match="'zz' is not adjacent to 'a1'"):
        nested_fan.prefers("a1", "b2", "zz")
    with pytest.raises(InstanceError, match="unknown vertex 'zz'"):
        nested_fan.prefers("zz", "b1", "b2")


def test_compare_tallies(nested_fan, fan_matchings):
    swapped, perfect = fan_matchings["swapped"], fan_matchings["perfect"]
    assert compare(nested_fan, swapped, perfect) == (4, 2)
    assert compare(nested_fan, perfect, swapped) == (2, 4)
    near = fan_matchings["near_stable"]
    assert compare(nested_fan, near, perfect) == (2, 2)


def test_compare_both_unmatched_abstain(shared_top):
    # b2 is unmatched on both sides and must not vote
    one = Matching([("a1", "b1")])
    two = Matching([("a2", "b1")])
    assert compare(shared_top, one, two) == (2, 1)


def test_defeats_breaks_ties_by_size(nested_fan, fan_matchings):
    near, perfect = fan_matchings["near_stable"], fan_matchings["perfect"]
    assert defeats(nested_fan, perfect, near)  # tied 2-2, strictly larger
    assert not defeats(nested_fan, near, perfect)
    assert defeats(nested_fan, fan_matchings["swapped"], perfect)  # wins 4-2
    assert not defeats(nested_fan, perfect, perfect)  # tied, and no larger


def test_labels_and_pruned_graph(shared_top):
    m = Matching([("a1", "b2"), ("a2", "b1")])
    labeled = label_edges(shared_top, m)
    assert labeled.label == {("a1", "b1"): (PLUS, PLUS)}
    assert labeled.gm_edges == {("a1", "b1"), ("a1", "b2"), ("a2", "b1")}
    assert gm_adj(labeled)["a1"] == ("b1", "b2")


def test_minus_minus_edges_pruned(nested_fan):
    m = Matching([("a1", "b2"), ("a2", "b1")])
    labeled = label_edges(nested_fan, m)
    # a2 holds b1, b2 holds a1: both vote minus on (a2,b2)
    assert labeled.label[("a2", "b2")] == (MINUS, MINUS)
    assert ("a2", "b2") not in labeled.gm_edges
    # both a1 and b1 would rather have each other than their partners
    assert labeled.label[("a1", "b1")] == (PLUS, PLUS)
    # a3 is unmatched and votes plus for b1; b1 holds a2 and prefers it
    assert labeled.label[("a3", "b1")] == (PLUS, MINUS)
    assert ("a3", "b1") in labeled.gm_edges


def test_blocking_pairs_in_lex_order(shared_top, contested_hub):
    def blocking_pairs(inst, m):
        labels = label_edges(inst, m).label
        return sorted(e for e, lab in labels.items() if lab == (PLUS, PLUS))

    m = Matching([("a1", "b2"), ("a2", "b1")])
    assert blocking_pairs(shared_top, m) == [("a1", "b1")]
    near = Matching([("a1", "b1"), ("a2", "b2")])
    assert blocking_pairs(contested_hub, near) == [("a2", "b1")]
    stable = Matching([("a1", "b3"), ("a2", "b1")])
    assert blocking_pairs(contested_hub, stable) == []


def per_edge_labelling(inst, m):
    """label and gm_edges computed edge by edge from `vote`."""
    label = {}
    gm_edges = set(m.pairs)
    for a, b in sorted(inst.edges):
        if (a, b) not in m:
            label[(a, b)] = (
                vote(inst, a, b, m.partner_of(a)),
                vote(inst, b, a, m.partner_of(b)),
            )
            if label[(a, b)] != (MINUS, MINUS):
                gm_edges.add((a, b))
    return label, gm_edges


def assert_labelling_matches_votes(inst, m):
    labeled = label_edges(inst, m)
    label, gm_edges = per_edge_labelling(inst, m)
    assert labeled.label == label
    assert list(labeled.label) == sorted(label)
    assert labeled.gm_edges == gm_edges


def test_labels_against_every_matching(small_ensemble):
    # the label of each non-matching edge is the two endpoint votes
    for inst, report in small_ensemble:
        for m in report.family:
            assert_labelling_matches_votes(inst, m)


def test_array_labelling_follows_names_not_declared_order():
    for inst, m in reversed_declaration_cases():
        assert_labelling_matches_votes(inst, m)


def test_verify_leaves_the_edge_set_unbuilt():
    inst = generate_random(20, 20, 0.3, 4)
    text = serialize_instance(inst)
    matching_text = serialize_matching(run(inst))
    fresh = parse_instance(text)
    is_dominant(fresh, parse_matching(matching_text, fresh))
    assert "edges" not in vars(fresh)
