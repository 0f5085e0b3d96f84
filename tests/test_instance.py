import gc
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from popmatch import (
    Instance,
    InstanceError,
    Matching,
    ParseError,
    decompose,
    generate_random,
    inverse_map,
    is_dominant,
    lift_to_dominant,
    lower_to_stable,
    parse_instance,
    parse_matching,
    popular_edge,
    run,
    serialize_instance,
    serialize_matching,
)
from popmatch import cli
from popmatch.cli import _load_instance
from popmatch.gale_shapley import _floored, forced
from popmatch.instance import LevelledMatching
from popmatch.rotations import rotation_poset, stable_matchings
from popmatch.min_cost import parse_costs
from conftest import (
    CONTESTED_HUB_TEXT, NESTED_FAN_TEXT, SHARED_TOP_TEXT, assert_named_alike, induced,
    reversed_declaration_cases, stable_pairs,
)
from test_exit_codes import BAD_LINES


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


# Women's lists longer than `instance._SCANNED` take the rank-dict side
# of the symmetry check: men a1..a40 each list b, and b lists a1..a39
# and then one more entry, 40 in all.
LONG_MEN = tuple(f"a{i}" for i in range(1, 42))
LONG_PREF = {**{m: ("b",) for m in LONG_MEN[:40]}, "b": LONG_MEN[:39]}


def long_list_text(last):
    lines = [f"men: {' '.join(LONG_MEN)}", "women: b c"]
    lines += [f"{m}: {' '.join(lst)}" for m, lst in LONG_PREF.items() if m != "b"]
    return "\n".join(lines + [f"b: {' '.join(LONG_PREF['b'] + (last,))}"]) + "\n"


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
    # two faults: within a list the first entry at fault is named, and
    # every list is checked before adjacency is
    ("men: a\nwomen: b c\na: b b x\n", "duplicate entry 'b' in list of 'a'", 3),
    ("men: a\nwomen: b c\na: b x b\n", "unknown neighbor 'x' in list of 'a'", 3),
    ("men: a c\nwomen: b\na: b b c\n", "duplicate entry 'b' in list of 'a'", 3),
    # equal totals: the man's line names the edge; unequal: the woman's
    ("men: a1 a2\nwomen: b1\na1: b1\nb1: a2\n", "edge (a1,b1) — 'a1' lists 'b1'", 3),
    ("men: a1\nwomen: b1 b2\na1: b1\nb1: a1\nb2: a1\n", "edge (a1,b2) — 'b2' lists 'a1'", 5),
    # a woman's list of 40 entries
    (long_list_text("a41"), "edge (a40,b) — 'a40' lists 'b' but 'b' does not list 'a40'", 42),
    (long_list_text("a1"), "duplicate entry 'a1' in list of 'b'", 43),
    (long_list_text("c"), "'b' lists 'c' on its own side", 43),
    (long_list_text("x"), "unknown neighbor 'x' in list of 'b'", 43),
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


# Two faults planted on two lines of a valid instance, in both orders.
# Each kind replaces its owner's line (the undeclared owner adds one),
# with the message it is reported by.
FAULT_BASE = {
    "a1": "b1 b2", "a2": "b2 b3", "a3": "b3 b1", "b1": "a3 a1", "b2": "a1 a2", "b3": "a2 a3",
}
FAULTS = {
    "undeclared owner": ("c9", ["c9: b1"], "preference list for unknown vertex 'c9'"),
    "unknown neighbour": ("a1", ["a1: b1 x9 b2"], "unknown neighbor 'x9' in list of 'a1'"),
    "own-side entry": ("a2", ["a2: b2 a1 b3"], "'a2' lists 'a1' on its own side"),
    "repeated entry": ("a3", ["a3: b3 b1 b3"], "duplicate entry 'b3' in list of 'a3'"),
    "asymmetric edge": (
        "b1",
        ["b1: a3 a1 a2"],
        "asymmetric adjacency: edge (a2,b1) — 'b1' lists 'a2' but 'a2' does not list 'b1'",
    ),
    "duplicate line": ("b2", ["b2: a1 a2", "b2: a1 a2"], "duplicate preference line for 'b2'"),
}
FAULT_PAIRS = [(one, two) for one in FAULTS for two in FAULTS if one != two]


@pytest.mark.parametrize("first,second", FAULT_PAIRS, ids=[" then ".join(p) for p in FAULT_PAIRS])
def test_parse_reports_the_first_fault_in_file_order(first, second):
    # a repeated preference line stops the read where it stands; every
    # list is checked, in line order, before adjacency is
    (head1, rows1, msg1), (head2, rows2, msg2) = FAULTS[first], FAULTS[second]
    middle = [f"{v}: {lst}" for v, lst in FAULT_BASE.items() if v not in (head1, head2)]
    rows = ["men: a1 a2 a3", "women: b1 b2 b3", *rows1, *middle, *rows2]
    at1, at2 = 2 + len(rows1), len(rows)
    if "duplicate line" in (first, second):
        msg, at = (msg1, at1) if first == "duplicate line" else (msg2, at2)
    else:
        msg, at = (msg1, at1) if first != "asymmetric edge" else (msg2, at2)
    text = "\n".join(rows) + "\n"
    assert parsed(parse_instance, text) == (ParseError, f"line {at}: {msg}", at)
    if "duplicate line" in (first, second):
        return
    # the constructor checks the lists in declared order, an undeclared
    # owner's last, whatever the order it is given them in
    pref = dict(row.split(":") for row in rows[2:])
    pref = {v.strip(): lst.split() for v, lst in pref.items()}
    owners = [*FAULT_BASE, "c9"]
    ranked = sorted(
        (kind == "asymmetric edge", owners.index(FAULTS[kind][0]), FAULTS[kind][2])
        for kind in (first, second)
    )
    assert parsed(Instance, ("a1", "a2", "a3"), ("b1", "b2", "b3"), pref) == (
        InstanceError, ranked[0][2], None
    )


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
    (
        "duplicate-before-unknown",
        ("a",),
        ("b", "c"),
        {"a": ("b", "b", "x")},
        "duplicate entry 'b' in list of 'a'",
    ),
    (
        "unknown-before-duplicate",
        ("a",),
        ("b", "c"),
        {"a": ("b", "x", "b")},
        "unknown neighbor 'x' in list of 'a'",
    ),
    (
        "own-side-after-duplicate",
        ("a", "c"),
        ("b",),
        {"a": ("b", "b", "c")},
        "duplicate entry 'b' in list of 'a'",
    ),
    (
        "asymmetric-equal-totals",
        ("a1", "a2"),
        ("b1",),
        {"a1": ("b1",), "b1": ("a2",)},
        "edge (a1,b1) — 'a1' lists 'b1' but 'b1' does not list 'a1'",
    ),
    (
        "asymmetric-unequal-totals",
        ("a1",),
        ("b1", "b2"),
        {"a1": ("b1",), "b1": ("a1",), "b2": ("a1",)},
        "edge (a1,b2) — 'b2' lists 'a1' but 'a1' does not list 'b2'",
    ),
    # a woman's list of 40 entries
    *(
        (check, LONG_MEN, ("b", "c"), {**LONG_PREF, "b": LONG_PREF["b"] + (last,)}, fragment)
        for check, last, fragment in [
            ("long-asymmetric", "a41", "edge (a40,b) — 'a40' lists 'b' but 'b' does not"),
            ("long-duplicate-entry", "a1", "duplicate entry 'a1' in list of 'b'"),
            ("long-own-side", "c", "'b' lists 'c' on its own side"),
            ("long-unknown-neighbor", "x", "unknown neighbor 'x' in list of 'b'"),
        ]
    ),
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


def mixed_lengths(seed):
    """60 men and 30 women, half the women on the lists of about 20 men
    and half on those of about 50, so both sides of the symmetry check
    meet in one instance."""
    rng = random.Random(seed)
    men, women = [f"a{i}" for i in range(60)], [f"b{j}" for j in range(30)]
    pref = {v: [] for v in men + women}
    for j, w in enumerate(women):
        for m in rng.sample(men, rng.randint(18, 22) if j % 2 else rng.randint(45, 55)):
            pref[w].append(m)
            pref[m].append(w)
    for lst in pref.values():
        rng.shuffle(lst)
    return Instance(men, women, pref)


def test_serialize_round_trip(shared_top, contested_hub, nested_fan):
    shapes = [(0, 3, 0.5), (4, 0, 0.5), (6, 5, 0.3), (9, 12, 0.6), (40, 40, 0.95)] * 4
    randoms = [generate_random(*shape, seed) for seed, shape in enumerate(shapes)]
    mixed = [mixed_lengths(seed) for seed in range(4)]
    for inst in (shared_top, contested_hub, nested_fan, *randoms, *mixed):
        parsed = parse_instance(serialize_instance(inst))
        assert parsed == inst
        adj, back, first = parsed.adj, parsed.back, parsed.first
        assert all(
            adj[w][back[first[m] + k]] == m
            for m in range(len(parsed.men))
            for k, w in enumerate(adj[m])
        )
    assert serialize_instance(shared_top) == SHARED_TOP_TEXT


def assert_back_ranks(inst, code):
    """`back` is of typecode `code` and holds, at man m's k-th edge, his
    rank on the list of the k-th woman on his."""
    adj, back, first = inst.adj, inst.back, inst.first
    assert back.typecode == code and len(back) == first[len(inst.men)]
    assert all(
        adj[w][back[first[m] + k]] == m for m in range(len(inst.men)) for k, w in enumerate(adj[m])
    )


@pytest.mark.parametrize("longest,code", [(65536, "H"), (65537, "I")])
def test_back_takes_four_bytes_past_65536_ranks(longest, code):
    # b0 lists every man: 65,536 ranks fit two bytes, 65,537 take four;
    # built and parsed only, with no engine run
    men = [f"a{i}" for i in range(longest)]
    pref = {m: ["b0"] for m in men}
    pref["b0"] = men[::-1]
    inst = Instance(men, ["b0"], pref)
    parsed = parse_instance(serialize_instance(inst))
    assert parsed == inst
    for one in (inst, parsed):
        assert_back_ranks(one, code)


@pytest.mark.parametrize("longest,code", [(256, "B"), (257, "H")])
def test_back_holds_ranks_in_the_narrowest_unsigned_ints(longest, code):
    # b0 lists every man: 256 ranks fit one byte, 257 take two
    rng = random.Random(longest)
    men, women = [f"a{i}" for i in range(longest)], [f"b{j}" for j in range(260)]
    pref = {v: [] for v in men + women}
    for m in men:
        for w in ["b0", *rng.sample(women[1:], 4)]:
            pref[m].append(w)
            pref[w].append(m)
    for lst in pref.values():
        rng.shuffle(lst)
    inst, reverse = Instance(men, women, pref), Instance(men[::-1], women[::-1], pref)
    for one in (inst, reverse, parse_instance(serialize_instance(inst))):
        assert_back_ranks(one, code)
    for levels in (1, 2):
        got, again = run(inst, levels=levels), run(reverse, levels=levels)
        assert got == again and got.level == again.level
        # the verdicts agree, and so do the certificates
        verdicts = {is_dominant(inst, got), is_dominant(reverse, got)}
        assert len(verdicts) == 1
        ok, cert = verdicts.pop()
        assert (ok, cert and cert.kind) == (levels == 2, None if levels == 2 else "augmenting-path")
        poset, other = rotation_poset(inst, levels), rotation_poset(reverse, levels)
        assert len(poset.preds) == len(other.preds) > 0
        assert stable_pairs(poset) == stable_pairs(other)
        every = (1 << len(poset.preds)) - 1
        assert poset.matching(every) == other.matching(every)


# How far the tracemalloc peak of a parse may rise over the memory the
# parsed instance keeps, on the shape below: 1.31 for the whole text,
# which the parse holds with its lines, and 1.05 for the CLI's read of
# the file in blocks.  With name-keyed dicts of the lists and their
# lines during the parse, and a bound method per woman's list while
# `back` was built, both were 1.44; a rank dict for every woman's list
# made it 2.37.
PARSE_PEAK_GROWTH = 1.4
FILE_PARSE_PEAK_GROWTH = 1.15

# What that instance keeps (bytes, tracemalloc): 1.376e6 with `back` one
# array of a byte per rank, 1.535e6 with an array per man, 1.736e6 with a
# pointer per rank.
PARSE_KEPT = 1.6e6


def traced(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the memory it keeps and its peak (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_parse_peak_stays_near_what_the_instance_keeps():
    text = serialize_instance(generate_random(2000, 2000, 0.01, 4))
    inst, kept, peak = traced(parse_instance, text)
    assert len(inst.men) == 2000
    assert kept <= PARSE_KEPT, kept
    assert peak <= PARSE_PEAK_GROWTH * kept, (peak, kept)


def test_file_parse_peak_stays_near_what_the_instance_keeps(tmp_path):
    # the CLI reads the file as it parses it, so the peak holds one chunk
    # of its text, not the whole text and its lines
    path = tmp_path / "inst.pref"
    path.write_text(serialize_instance(generate_random(2000, 2000, 0.01, 4)))
    inst, kept, peak = traced(_load_instance, str(path))
    assert len(inst.men) == 2000
    assert kept <= PARSE_KEPT, kept
    assert peak <= FILE_PARSE_PEAK_GROWTH * kept, (peak, kept)


def test_printing_a_matching_peaks_below_the_engine_run(monkeypatch):
    # the CLI writes a matching a block of pairs at a time, so printing
    # one of more pairs than a block holds them neither all nor their
    # lines: it peaks below the run that found it, by tracemalloc.  Here
    # a block takes about a third of the run's peak; all the id pairs
    # held at once, even without their lines, take almost all of it
    inst = generate_random(12000, 12000, 0.0007, 1)
    written = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=lambda text: written.append(len(text))))
    for levels in (1, 2):
        got, _, engine = traced(run, inst, levels=levels)
        written.clear()
        _, _, printing = traced(cli._emit, False, {"matching": got}, [got])
        assert printing < engine / 2, (printing, engine)
        assert sum(written) == len(serialize_matching(got)) and len(written) > 1


def parsed(parse, *args):
    """parse(*args), or the class, message and line of the error it raises."""
    try:
        return parse(*args)
    except InstanceError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_parsers_take_the_lines_of_the_text():
    # the CLI hands the parsers lines, which must read as the text does:
    # the same instance, matching or costs, or the same error and line
    texts = [SHARED_TOP_TEXT, CONTESTED_HUB_TEXT, NESTED_FAN_TEXT]
    for base in list(texts):
        rows = base.splitlines()
        texts += ["\r\n".join(rows[:at] + [bad] + rows[at:]) for bad in BAD_LINES for at in (0, 2)]
    for text in texts:
        assert parsed(parse_instance, text.splitlines()) == parsed(parse_instance, text), text
    inst = parse_instance(SHARED_TOP_TEXT)
    matchings = ["a1 b2\na2 b1\n", "# c\n\na2 b1\r\n", "a1 b1 b2\n", "a1 b2\va1 b1", "zz b1\n"]
    for text in matchings:
        assert parsed(parse_matching, text.splitlines(), inst) == parsed(parse_matching, text, inst)
    costs = ["a1 b1 1\ra1 b2 2/3\n", "a1 b1 x\n", "a1 b1 1\n\na1 b1 2\n", "a2 b2 1\n", "a1 b1\n"]
    for text in costs:
        assert parsed(parse_costs, text.splitlines(), inst) == parsed(parse_costs, text, inst)


@st.composite
def instances(draw):
    """An instance with ids of one to three letters, declared in any
    order, each list a random order of a random neighbour set."""
    ids = draw(st.lists(st.text("abxy", min_size=1, max_size=3), unique=True, max_size=12))
    cut = draw(st.integers(0, len(ids)))
    men, women = ids[:cut], ids[cut:]
    edges = [(m, w) for m in men for w in women if draw(st.booleans())]
    pref = {v: [] for v in ids}
    for m, w in edges:
        pref[m].append(w)
        pref[w].append(m)
    pref = {v: draw(st.permutations(lst)) for v, lst in pref.items()}
    return Instance(men, women, pref)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_representation_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst
    assert Instance(inst.men, inst.women, inst.pref) == inst
    for v in inst.vertices():
        for x in inst.pref[v]:
            assert inst.rank[v][x] == inst.pref[v].index(x)
    for m, lst in enumerate(inst.adj[: len(inst.men)]):
        for k, w in enumerate(lst):
            assert inst.adj[w][inst.back[inst.first[m] + k]] == m
    assert len(inst.back) == inst.first[len(inst.men)] == len(inst.edges)


def test_induced_subgraph(contested_hub):
    sub = induced(contested_hub, {"a1", "a3", "b1", "b3"})
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


def test_mates_numbers_a_foreign_matching_by_its_ids(shared_top):
    from popmatch import is_dominant, is_popular, is_stable, label_edges, partition

    numbered = parse_matching("a1 b2\na2 b1\n", shared_top)
    assert shared_top.mates(numbered) == shared_top.mates(Matching(numbered.pairs))
    # the same vertex numbers on an instance of the same size, where
    # (a1,b2) is no edge: the matching is read by its ids there
    other = parse_instance("men: a1 a2\nwomen: b1 b2\na1: b1\na2: b2 b1\nb1: a1 a2\nb2: a2\n")
    for check in (is_stable, is_popular, is_dominant, label_edges):
        with pytest.raises(InstanceError, match=r"pair \(a1,b2\) is not an edge"):
            check(other, numbered)
    with pytest.raises(InstanceError, match=r"pair \(a1,b2\) is not an edge"):
        partition(other, numbered, True)
    for wrong in ({("a1", "b2")}, [("a1", "b2")], shared_top.mates(numbered)):
        with pytest.raises(InstanceError, match="not a Matching"):
            shared_top.mates(wrong)
        for check in (is_stable, is_popular, is_dominant, label_edges):
            with pytest.raises(InstanceError, match="not a Matching"):
                check(shared_top, wrong)
        with pytest.raises(InstanceError, match="not a Matching"):
            partition(shared_top, wrong, True)


def test_has_edge():
    inst = parse_instance(SHARED_TOP_TEXT)
    edges = {(m, w) for m in inst.men for w in inst.pref[m]}
    for u in inst.vertices() + ("x",):
        for v in inst.vertices() + ("x",):
            assert inst.has_edge(u, v) == ((u, v) in edges)
    assert "edges" not in vars(inst)


def test_parse_shares_declared_ids():
    inst = parse_instance(SHARED_TOP_TEXT)
    declared = {v: v for v in inst.vertices()}
    for v, lst in inst.pref.items():
        assert v is declared[v]
        assert all(x is declared[x] for x in lst)


def test_parse_matching(shared_top):
    m = parse_matching("# witness\na1 b2\na2 b1\n", shared_top)
    assert m == Matching([("a1", "b2"), ("a2", "b1")]) and m.level == {"a1": 0, "a2": 0}
    assert serialize_matching(m) == "a1 b2\na2 b1\n"
    assert_named_alike(m)
    for inst, named in list(reversed_declaration_cases())[:40]:
        assert_named_alike(parse_matching(serialize_matching(named), inst))
    assert serialize_matching(Matching()) == ""
    with pytest.raises(ParseError, match="not an edge"):
        parse_matching("a2 b2\n", shared_top)
    with pytest.raises(ParseError, match="matched twice"):
        parse_matching("a1 b1\na1 b2\n", shared_top)
    with pytest.raises(ParseError, match="vertex 'b1' matched twice") as err:
        parse_matching("# a woman twice\na1 b1\na2 b1\n", shared_top)
    assert err.value.line == 3


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


def _unset(matching, name):
    """True if the slot `name` of a matching is unset; reads the slot
    itself, so that no view is built on the way."""
    try:
        getattr(type(matching), name).__get__(matching)
    except AttributeError:
        return True
    return False


def _producers(inst, report):
    """Every kind of numbered matching the package returns on inst: the
    engine's unforced, forced and floored runs, parsed matchings, the
    parts of a decomposition, inverse maps, the rotation listings and
    the transformations, each with the name of its producer."""
    edges = sorted(inst.edges)
    for levels in (1, 2):
        yield "run", run(inst, levels=levels)
        for m, w in edges:
            for lvl in range(levels):
                yield "run", run(inst, {w: (m, lvl)}, levels)
                yield "forced", forced(inst, {w: (m, lvl)}, levels)
                s = inst.slot(m, w)
                yield "_floored", _floored(inst, [(s[0], s[2], lvl)], levels)
        poset = rotation_poset(inst, levels)
        for closed in poset.closed_sets():
            yield "rotations", poset.matching(closed)
        yield from (("rotations", m) for m in poset.distinct_pairs())
        yield from (("rotations", m) for m in stable_matchings(inst, levels=levels))
    for e in edges:
        yield "popular_edge", popular_edge(inst, e)
    for p in report.popular_set():
        yield "parse_matching", parse_matching(serialize_matching(p), inst)
        dec = decompose(inst, p)
        yield "decompose", dec.m0
        yield "decompose", dec.m1
        yield "lift_to_dominant", lift_to_dominant(inst, p)
        yield "lower_to_stable", lower_to_stable(inst, p)
    for p in report.dominant_set():
        yield "inverse_map", inverse_map(inst, p)


def test_every_producer_leaves_an_unmatched_man_at_his_list_length(small_ensemble):
    # `LevelledMatching.__eq__` compares `pos` on one instance, which is
    # the pairs' equality only if an unmatched man's position is always
    # his list's length, never a larger number
    seen = set()
    for inst, report in small_ensemble:
        n = len(inst.men)
        for name, got in _producers(inst, report):
            if got is None:
                continue
            seen.add(name)
            assert got.inst is inst and len(got.pos) == len(got.lvl) == n, name
            # the positions `Instance.mates` gives the pairs by id
            assert got.pos == inst.mates(Matching(got.sorted_pairs()))[1][:n], name
    assert seen == {
        "run", "forced", "_floored", "rotations", "popular_edge", "parse_matching",
        "decompose", "lift_to_dominant", "lower_to_stable", "inverse_map",
    }


def test_levelled_matching_hashes_and_compares_as_its_pairs(small_ensemble):
    compared = 0
    for inst, report in small_ensemble[:20]:
        twin = parse_instance(serialize_instance(inst))
        assert twin == inst and twin is not inst
        got = [m for _, m in _producers(inst, report) if m is not None]
        for m in got:
            named = Matching(m.sorted_pairs())
            fresh = LevelledMatching(inst, m.pos, m.lvl)
            # hashing and comparing on one instance builds no view by id
            assert hash(fresh) == hash(named)
            assert fresh == LevelledMatching(inst, list(m.pos), [1] * len(m.pos))
            assert not fresh != m
            assert _unset(fresh, "pairs") and _unset(fresh, "_partner")
            assert not _unset(fresh, "_hash")
            # lvl does not count, and a plain Matching compares by pairs
            relevel = LevelledMatching(inst, m.pos, [1 - x for x in m.lvl])
            assert relevel == fresh and hash(relevel) == hash(fresh)
            assert fresh == named and named == fresh
            # so does a matching bound to an equal, distinct instance
            on_twin = LevelledMatching(twin, m.pos, m.lvl)
            assert on_twin == fresh and fresh == on_twin and hash(on_twin) == hash(fresh)
            compared += 1
        for a in got[:30]:
            for b in got[:30]:
                assert (a == b) == (a.pairs == b.pairs)
                assert (LevelledMatching(twin, a.pos, a.lvl) == b) == (a.pairs == b.pairs)
    assert compared > 1000


def test_matchings_on_distinct_instances_compare_by_pairs(shared_top):
    # the same numbers on an instance of the same size stand for other
    # pairs there: (a1,b2),(a2,b1) on shared_top, only (a2,b2) on other
    other = parse_instance("men: a1 a2\nwomen: b1 b2\na1: b1\na2: b2 b1\nb1: a1 a2\nb2: a2\n")
    here = LevelledMatching(shared_top, [1, 0], [0, 0])
    there = LevelledMatching(other, [1, 0], [0, 0])
    assert here != there and there != here
    assert here == Matching([("a1", "b2"), ("a2", "b1")])
    assert there == Matching([("a2", "b2")])
    assert len({here, there, Matching([("a2", "b2")])}) == 2
