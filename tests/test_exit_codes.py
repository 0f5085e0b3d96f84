"""The exit-code contract under malformed input: every command returns 0,
1 or 2 for any instance, matching and cost file, and never raises."""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings, strategies as st

from popmatch import InstanceError, parse_instance
from popmatch.cli import main
from conftest import CONTESTED_HUB_TEXT, NESTED_FAN_TEXT, SHARED_TOP_TEXT, blocks_text

NAMES = ["a1", "a2", "a3", "b1", "b2", "b3", "zz"]

# Lines that break the instance format in different ways.
BAD_LINES = [
    "men: a1 a1",
    "women:",
    "men: b1",
    "a1: a2",
    "a1: b1 b1",
    "b1: zz",
    "a1 b1",
    ":",
    "a1: b1:b2",
    "men: a1é",
]

COSTS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.fractions().map(str),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-6000, 6000)),
    st.sampled_from(["1e5000", "-1e400", "1/0", "0.5", "1e", "e5", "nan", "inf", "1/-2", "x"]),
)

COMMANDS = [
    ["solve", "--property", "stable"],
    ["solve", "--property", "dominant"],
    ["verify", "--property", "stable", "-m", "{matching}"],
    ["verify", "--property", "popular", "-m", "{matching}"],
    ["verify", "--property", "dominant", "-m", "{matching}"],
    ["popular-edge", "--edge", "{edge}"],
    ["popular-vs-stable"],
    ["min-cost-dominant", "--costs", "{costs}"],
    ["enumerate", "--what", "popular-edges"],
    ["enumerate", "--what", "dominant"],
]


def garbled(draw, lines, pool):
    """The lines with up to two of them dropped or replaced from pool,
    each ended by one line break that `str.splitlines` knows."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        if i < len(lines) and draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, draw(st.sampled_from(pool)))
    brk = draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\x85", "\u2028"]))
    return brk.join(lines) + brk


@st.composite
def inputs(draw):
    """An instance, matching, cost and edge text, built from a valid
    instance so that most of them parse, then garbled."""
    base = draw(st.sampled_from([SHARED_TOP_TEXT, CONTESTED_HUB_TEXT, NESTED_FAN_TEXT, blocks_text(2)]))
    instance = garbled(draw, base.splitlines(), BAD_LINES)
    try:
        edges = sorted(parse_instance(instance).edges) or [("a1", "b1")]
    except InstanceError:
        edges = [("a1", "b1"), ("a2", "b2")]
    junk = st.builds(" ".join, st.lists(st.sampled_from(NAMES), max_size=4))
    pairs = draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
    matching = garbled(draw, [f"{m} {w}" for m, w in pairs], [draw(junk)])
    costs = [f"{m} {w} {draw(COSTS)}" for m, w in edges]
    costs = garbled(draw, costs, [draw(junk)])
    edge = draw(st.one_of(st.sampled_from(edges).map(",".join), junk.map(lambda s: s.replace(" ", ","))))
    return instance, matching, costs, edge


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(json_out=st.booleans(), texts=inputs())
@example(json_out=False, texts=(SHARED_TOP_TEXT, "", "a1 b1 0\na1 b2 1e5000\na2 b1 0\n", "a1,b1"))
# a format fault, then an invalid UTF-8 byte (a lone surrogate escapes it)
@example(json_out=True, texts=(SHARED_TOP_TEXT + "a1 b1\n# \udcff\n", "a1 b1\n\udcff", "", "a1,b1"))
def test_cli_exit_code_is_0_1_or_2(tmp_path_factory, json_out, texts):
    # every command on the same files
    instance, matching, costs, edge = texts
    d = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, text in (("instance", instance), ("matching", matching), ("costs", costs)):
        (d / name).write_text(text, encoding="utf-8", errors="surrogateescape")
        paths[name] = str(d / name)
    for command in COMMANDS:
        argv = [arg.format(edge=edge, **paths) for arg in command]
        argv += ["-i", paths["instance"]] + (["--json"] if json_out else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
