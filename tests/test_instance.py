import pytest

from popmatch import (
    Instance,
    InstanceError,
    Matching,
    ParseError,
    generate_random,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)
from conftest import SHARED_TOP_TEXT


def test_parse_basic(shared_top):
    assert shared_top.men == ("a1", "a2")
    assert shared_top.women == ("b1", "b2")
    assert shared_top.pref["a1"] == ("b1", "b2")
    assert shared_top.pref["b2"] == ("a1",)
    assert shared_top.rank["b1"] == {"a1": 0, "a2": 1}
    assert shared_top.edges == {("a1", "b1"), ("a1", "b2"), ("a2", "b1")}


def test_parse_ignores_comments_and_blanks():
    inst = parse_instance("# header\n\nmen: a\nwomen: b\n# mid\na: b\nb: a\n")
    assert inst.edges == {("a", "b")}


def test_empty_preference_lists_allowed():
    inst = parse_instance("men: a\nwomen: b\na:\nb:\n")
    assert inst.edges == frozenset()


PARSE_ERRORS = [
    # (text, fragment of the message, line the error names)
    ("men: a\na: b\n", "women", 2),
    ("women: b\nmen: a\n", "men", 1),
    ("men: a\nwomen: b\nc: b\n", "unknown vertex", 3),
    ("men: a\nwomen: b\na: x\n", "unknown neighbor", 3),
    ("men: a a\nwomen: b\n", "duplicate", 1),
    ("men: a\nwomen: a\n", "duplicate", 2),
    ("men: a\nwomen: b c\na: b c b\n", "duplicate", 3),
    ("men: a\nwomen: b\na b\n", "':'", 3),
    ("men: a\nwomen: b\na: b\na: b\n", "duplicate preference line", 4),
    ("men: a c\nwomen: b\nc:\na: c\n", "'a' lists 'c' on its own side", 4),
    ("men: a\nwomen: b\na: b\nb:\n", "asymmetric adjacency: edge (a,b)", 3),
    ("men: a\nwomen: b\na:\nb: a\n", "'b' lists 'a' but 'a' does not list 'b'", 4),
    ("men: a:x\nwomen: b\n", "invalid vertex id 'a:x'", 1),
    ("# no declarations\n", "missing men:/women:", None),
]


@pytest.mark.parametrize(
    "text,fragment,line", PARSE_ERRORS, ids=[f"{t}-{f}" for t, f, _ in PARSE_ERRORS]
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_parse_checks_lists_in_line_order():
    # the own-side list on line 3 is reported before the unknown
    # neighbor on line 4
    with pytest.raises(ParseError) as err:
        parse_instance("men: a c\nwomen: b\nc: a\na: x\n")
    assert err.value.line == 3 and "own side" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("men: a\nwomen: b\nc: b\n")
    assert err.value.line == 3
    assert str(err.value).startswith("line 3:")


def test_asymmetric_adjacency_rejected():
    with pytest.raises(InstanceError, match="asymmetric adjacency"):
        Instance(("a",), ("b",), {"a": ("b",), "b": ()})
    with pytest.raises(InstanceError, match="asymmetric adjacency"):
        Instance(("a",), ("b",), {"a": (), "b": ("a",)})


def test_own_side_neighbor_rejected():
    with pytest.raises(InstanceError, match="own side"):
        Instance(("a", "c"), ("b",), {"a": ("c",), "c": (), "b": ()})


INSTANCE_ERRORS = [
    # (check, men, women, pref, fragment of the message)
    ("duplicate-id", ("a", "a"), ("b",), {}, "duplicate vertex id 'a'"),
    ("duplicate-id-across-sides", ("a",), ("b", "a"), {}, "duplicate vertex id 'a'"),
    ("colon-in-id", ("a:x",), ("b",), {}, "invalid vertex id 'a:x'"),
    ("space-in-id", ("a x",), ("b",), {}, "invalid vertex id"),
    ("empty-id", ("",), ("b",), {}, "invalid vertex id"),
    ("unknown-owner", ("a",), ("b",), {"c": ()}, "preference list for unknown vertex 'c'"),
    ("unknown-neighbor", ("a",), ("b",), {"a": ("x",)}, "unknown neighbor 'x' in list of 'a'"),
    ("own-side", ("a", "c"), ("b",), {"a": ("c",)}, "'a' lists 'c' on its own side"),
    (
        "duplicate-entry",
        ("a",),
        ("b", "c"),
        {"a": ("b", "c", "b")},
        "duplicate entry 'b' in list of 'a'",
    ),
    ("asymmetric-man", ("a",), ("b",), {"a": ("b",)}, "'a' lists 'b' but 'b' does not list 'a'"),
    ("asymmetric-woman", ("a",), ("b",), {"b": ("a",)}, "'b' lists 'a' but 'a' does not list 'b'"),
]


@pytest.mark.parametrize(
    "men,women,pref,fragment",
    [case[1:] for case in INSTANCE_ERRORS],
    ids=[case[0] for case in INSTANCE_ERRORS],
)
def test_instance_checks(men, women, pref, fragment):
    with pytest.raises(InstanceError) as err:
        Instance(men, women, pref)
    assert fragment in str(err.value)
    assert not isinstance(err.value, ParseError)
    Instance(men, women, pref, check=False)


def test_serialize_round_trip(shared_top, contested_hub, nested_fan):
    shapes = [(0, 3, 0.5), (4, 0, 0.5), (6, 5, 0.3), (9, 12, 0.6)] * 5
    randoms = [generate_random(*shape, seed) for seed, shape in enumerate(shapes)]
    for inst in (shared_top, contested_hub, nested_fan, *randoms):
        assert parse_instance(serialize_instance(inst)) == inst
    assert serialize_instance(shared_top) == SHARED_TOP_TEXT


def test_induced_subgraph(contested_hub):
    sub = contested_hub.induced({"a1", "a3", "b1", "b3"})
    assert sub.men == ("a1", "a3")
    assert sub.pref["a1"] == ("b1", "b3")
    assert sub.pref["b1"] == ("a1", "a3")
    assert sub.edges == {("a1", "b1"), ("a1", "b3"), ("a3", "b1")}


def test_matching_partner_lookup():
    m = Matching([("a1", "b2"), ("a2", "b1")])
    assert m.partner_of("a1") == "b2"
    assert m.partner_of("b1") == "a2"
    assert m.partner_of("a9") is None
    assert len(m) == 2
    assert ("a1", "b2") in m
    assert list(m) == [("a1", "b2"), ("a2", "b1")]


def test_matching_rejects_reused_vertex():
    with pytest.raises(InstanceError, match="matched twice"):
        Matching([("a1", "b1"), ("a1", "b2")])
    with pytest.raises(InstanceError, match="matched twice"):
        Matching([("a1", "b1"), ("a2", "b1")])


def test_matching_of_checks_edges(shared_top):
    with pytest.raises(InstanceError, match="not an edge"):
        Matching.of(shared_top, [("a2", "b2")])
    assert Matching.of(shared_top, [("a1", "b1")]).sorted_pairs() == (("a1", "b1"),)


def test_parse_matching(shared_top):
    m = parse_matching("# witness\na1 b2\na2 b1\n", shared_top)
    assert m == Matching([("a1", "b2"), ("a2", "b1")])
    assert serialize_matching(m) == "a1 b2\na2 b1\n"
    assert serialize_matching(Matching()) == ""
    with pytest.raises(ParseError, match="not an edge"):
        parse_matching("a2 b2\n", shared_top)
    with pytest.raises(ParseError, match="matched twice"):
        parse_matching("a1 b1\na1 b2\n", shared_top)


def test_generate_random_is_seed_deterministic():
    one = generate_random(5, 4, 0.6, seed=11)
    two = generate_random(5, 4, 0.6, seed=11)
    other = generate_random(5, 4, 0.6, seed=12)
    assert one == two
    assert one != other
    assert one.men == ("a1", "a2", "a3", "a4", "a5")
    # adjacency symmetry holds by construction
    for m in one.men:
        for w in one.pref[m]:
            assert m in one.pref[w]


def test_generate_random_full_density():
    inst = generate_random(3, 3, 1.0, seed=0)
    assert len(inst.edges) == 9


def test_generate_random_rejects_bad_density():
    with pytest.raises(ValueError):
        generate_random(2, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_random(2, 2, 1.5, seed=0)
