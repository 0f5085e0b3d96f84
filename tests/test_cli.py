import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import popmatch
from popmatch import (
    Instance,
    InstanceError,
    Matching,
    classify,
    dominant_two_level,
    generate_random,
    parse_instance,
    run,
    serialize_instance,
    serialize_matching,
)
from popmatch import cli, instance
from popmatch.cli import main
from popmatch.oracles import popular_edges
from conftest import (
    CONTESTED_HUB_TEXT, NESTED_FAN_TEXT, SHARED_TOP_TEXT, blocks_text, cyclic_text, measured_child,
    random_matching,
)
from test_exit_codes import BAD_LINES


@pytest.fixture
def shared_top_file(tmp_path):
    path = tmp_path / "shared_top.pref"
    path.write_text(SHARED_TOP_TEXT)
    return str(path)


@pytest.fixture
def contested_hub_file(tmp_path):
    path = tmp_path / "contested_hub.pref"
    path.write_text(CONTESTED_HUB_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_stable(shared_top_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--property", "stable", "-i", shared_top_file)
    assert code == 0
    assert out == "a1 b1\n"


def run_cli_usage_error(capsys, *argv):
    # argparse rejects the command line by exiting 2 itself
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


def test_solve_dominant_both_algos(shared_top_file, capsys):
    # the default and --algo two-level run the one dominant algorithm
    for extra in ([], ["--algo", "two-level"]):
        code, out, _ = run_cli(
            capsys, "solve", "--property", "dominant", *extra, "-i", shared_top_file
        )
        assert code == 0
        assert out == "a1 b2\na2 b1\n"
    err = run_cli_usage_error(
        capsys, "solve", "--property", "dominant", "--algo", "level-graph",
        "-i", shared_top_file,
    )
    assert "invalid choice: 'level-graph'" in err


def test_solve_json(shared_top_file, capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--property", "dominant", "--json", "-i", shared_top_file
    )
    assert code == 0
    assert json.loads(out) == {"matching": [["a1", "b2"], ["a2", "b1"]]}


class Writes(list):
    """A stdout that keeps each write apart."""

    def write(self, text):
        self.append(text)


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 12])
def test_solve_writes_its_matching_a_block_at_a_time(tmp_path, monkeypatch, block):
    # a block of at most `block` pairs per write, reading together as
    # `serialize_matching`; an empty matching is still one "{}" line
    inst = generate_random(9, 9, 0.4, 5)
    path, empty = tmp_path / "i.pref", tmp_path / "e.pref"
    path.write_text(serialize_instance(inst))
    empty.write_text("men: a1\nwomen: b1\na1:\nb1:\n")
    monkeypatch.setattr(instance, "_BLOCK", block)
    for levels, prop in ((1, "stable"), (2, "dominant")):
        want = serialize_matching(run(inst, levels=levels))
        for source, text in ((path, want), (empty, "{}\n")):
            monkeypatch.setattr(sys, "stdout", Writes())
            assert main(["solve", "--property", prop, "-i", str(source)]) == 0
            assert "".join(sys.stdout) == text
            assert len(sys.stdout) == -(-text.count("\n") // block)


# Every golden instance has an edge, so these pin what an empty answer
# prints: (instance, command, exit code, text stdout, --json stdout,
# stderr).  "bare" has no edge; in "beside", a2 and b2 have empty lists
# beside the edge (a1,b1).
EMPTY_CASES = [
    ("bare", "solve --property stable", 0, "{}\n", '{"matching": []}\n', ""),
    ("bare", "solve --property dominant", 0, "{}\n", '{"matching": []}\n', ""),
    ("bare", "verify --property stable -m none.match", 0,
     "true\n", '{"verdict": true, "certificate": null}\n', ""),
    ("bare", "verify --property popular -m none.match", 0,
     "true\n", '{"verdict": true, "certificate": null}\n', ""),
    ("bare", "verify --property dominant -m none.match", 0,
     "true\n", '{"verdict": true, "certificate": null}\n', ""),
    ("bare", "verify --property popular -m one.match", 2, "", "",
     "error: line 1: pair (a1,b1) is not an edge of the instance\n"),
    ("bare", "popular-edge --edge a1,b1", 2, "", "",
     "error: (a1,b1) is not an edge of the instance\n"),
    ("bare", "popular-vs-stable", 0,
     "all popular matchings are stable\n", '{"all_stable": true}\n', ""),
    ("bare", "min-cost-dominant --costs none.costs", 0, "{}\ncost: 0 (0.0)\n",
     '{"matching": [], "cost": {"numerator": 0, "denominator": 1, "decimal": "0.0"}}\n', ""),
    ("bare", "enumerate --what matchings", 0, "{}\n", '{"matchings": [[]]}\n', ""),
    ("bare", "enumerate --what stable", 0, "{}\n", '{"matchings": [[]]}\n', ""),
    ("bare", "enumerate --what popular", 0, "{}\n", '{"matchings": [[]]}\n', ""),
    ("bare", "enumerate --what dominant", 0, "{}\n", '{"matchings": [[]]}\n', ""),
    ("bare", "enumerate --what popular-edges", 0, "", '{"edges": []}\n', ""),
    ("beside", "solve --property stable", 0, "a1 b1\n", '{"matching": [["a1", "b1"]]}\n', ""),
    ("beside", "solve --property dominant", 0, "a1 b1\n", '{"matching": [["a1", "b1"]]}\n', ""),
    ("beside", "verify --property stable -m none.match", 1,
     "false\ncertificate: blocking-pair a1 b1\n",
     '{"verdict": false, "certificate": {"kind": "blocking-pair", "path": ["a1", "b1"], '
     '"pp_edges": [["a1", "b1"]]}}\n', ""),
    ("beside", "verify --property popular -m none.match", 1,
     "false\ncertificate: pp-path-from-unmatched a1 b1\n",
     '{"verdict": false, "certificate": {"kind": "pp-path-from-unmatched", "path": ["a1", "b1"], '
     '"pp_edges": [["a1", "b1"]]}}\n', ""),
    ("beside", "verify --property dominant -m one.match", 0,
     "true\n", '{"verdict": true, "certificate": null}\n', ""),
    ("beside", "popular-edge --edge a1,b1", 0,
     "a1 b1\n", '{"found": true, "matching": [["a1", "b1"]]}\n', ""),
    ("beside", "popular-edge --edge a2,b2", 2, "", "",
     "error: (a2,b2) is not an edge of the instance\n"),
    ("beside", "popular-vs-stable", 0,
     "all popular matchings are stable\n", '{"all_stable": true}\n', ""),
    ("beside", "min-cost-dominant --costs one.costs", 0, "a1 b1\ncost: 3 (3.0)\n",
     '{"matching": [["a1", "b1"]], "cost": {"numerator": 3, "denominator": 1, "decimal": "3.0"}}\n',
     ""),
    ("beside", "enumerate --what matchings", 0,
     "{}\na1,b1\n", '{"matchings": [[], [["a1", "b1"]]]}\n', ""),
    ("beside", "enumerate --what stable", 0, "a1,b1\n", '{"matchings": [[["a1", "b1"]]]}\n', ""),
    ("beside", "enumerate --what popular", 0, "a1,b1\n", '{"matchings": [[["a1", "b1"]]]}\n', ""),
    ("beside", "enumerate --what dominant", 0, "a1,b1\n", '{"matchings": [[["a1", "b1"]]]}\n', ""),
    ("beside", "enumerate --what popular-edges", 0, "a1 b1\n", '{"edges": [["a1", "b1"]]}\n', ""),
    (None, "gen --men 0 --women 0 --density 0.5 --seed 1 -o g.pref", 0,
     "", '{"written": "g.pref", "men": 0, "women": 0, "edges": 0}\n', ""),
]


def test_every_command_prints_an_empty_answer(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    files = {
        "bare.pref": "men: a1\nwomen: b1\na1:\nb1:\n",
        "beside.pref": "men: a1 a2\nwomen: b1 b2\na1: b1\na2:\nb1: a1\nb2:\n",
        "none.match": "", "one.match": "a1 b1\n", "none.costs": "", "one.costs": "a1 b1 3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for inst, command, code, text, as_json, err in EMPTY_CASES:
        argv = command.split() + (["-i", f"{inst}.pref"] if inst else [])
        for extra, out in (([], text), (["--json"], as_json)):
            assert run_cli(capsys, *argv, *extra) == (code, out, err), (argv, extra)


def test_solve_rejects_algo_mismatch(shared_top_file, capsys):
    code, out, err = run_cli(
        capsys, "solve", "--property", "dominant", "--algo", "gs",
        "-i", shared_top_file,
    )
    assert code == 2 and out == ""
    assert err == "error: --property dominant needs --algo two-level\n"


def test_verify_exit_codes(shared_top_file, tmp_path, capsys):
    mfile = tmp_path / "m.match"
    mfile.write_text("a1 b2\na2 b1\n")
    code, out, _ = run_cli(
        capsys, "verify", "--property", "popular", "-i", shared_top_file,
        "-m", str(mfile),
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(
        capsys, "verify", "--property", "stable", "-i", shared_top_file,
        "-m", str(mfile),
    )
    assert code == 1
    assert out.splitlines() == ["false", "certificate: blocking-pair a1 b1"]


def test_verify_json_certificate(shared_top_file, tmp_path, capsys):
    mfile = tmp_path / "m.match"
    mfile.write_text("a1 b1\n")
    code, out, _ = run_cli(
        capsys, "verify", "--property", "dominant", "--json",
        "-i", shared_top_file, "-m", str(mfile),
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["certificate"]["kind"] == "augmenting-path"
    assert doc["certificate"]["path"] == ["a2", "b1", "a1", "b2"]


def test_popular_edge_command(shared_top_file, capsys):
    code, out, _ = run_cli(
        capsys, "popular-edge", "--edge", "a1,b2", "-i", shared_top_file
    )
    assert code == 0 and out == "a1 b2\na2 b1\n"
    code, out, _ = run_cli(
        capsys, "popular-edge", "--edge", "a1,b2", "--json", "-i", shared_top_file
    )
    assert json.loads(out) == {"found": True, "matching": [["a1", "b2"], ["a2", "b1"]]}


def test_popular_edge_not_found(tmp_path, capsys):
    # (a3,b1) is in no popular matching: a3 is everyone's last resort
    path = tmp_path / "inst.pref"
    path.write_text(
        "men: a1 a2 a3\nwomen: b1 b2\n"
        "a1: b1 b2\na2: b1 b2\na3: b1\nb1: a1 a2 a3\nb2: a1 a2\n"
    )
    code, out, _ = run_cli(capsys, "popular-edge", "--edge", "a3,b1", "-i", str(path))
    assert code == 1 and "no popular matching" in out


def test_popular_edge_bad_edge_syntax(shared_top_file, capsys):
    code, _, err = run_cli(capsys, "popular-edge", "--edge", "a1", "-i", shared_top_file)
    assert code == 2 and "error:" in err


def test_popular_vs_stable(shared_top_file, contested_hub_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "popular-vs-stable", "-i", shared_top_file)
    assert code == 1
    assert "blocking pair: a1 b1" in out
    err = run_cli_usage_error(capsys, "popular-vs-stable", "--cubic", "-i", shared_top_file)
    assert "unrecognized arguments: --cubic" in err
    single = tmp_path / "single.pref"
    single.write_text("men: a1\nwomen: b1\na1: b1\nb1: a1\n")
    code, out, _ = run_cli(capsys, "popular-vs-stable", "-i", str(single))
    assert code == 0 and out == "all popular matchings are stable\n"
    code, out, _ = run_cli(
        capsys, "popular-vs-stable", "--json", "-i", contested_hub_file
    )
    doc = json.loads(out)
    assert doc["all_stable"] is False
    assert doc["blocking_pair"] == ["a1", "b1"]


def test_min_cost_dominant_command(shared_top_file, tmp_path, capsys):
    costs = tmp_path / "c.costs"
    costs.write_text("a1 b1 0\na1 b2 10\na2 b1 10\n")
    code, out, _ = run_cli(
        capsys, "min-cost-dominant", "-i", shared_top_file, "--costs", str(costs)
    )
    assert code == 0
    assert out.splitlines() == ["a1 b2", "a2 b1", "cost: 20 (20.0)"]
    code, out, _ = run_cli(
        capsys, "min-cost-dominant", "--json", "-i", shared_top_file,
        "--costs", str(costs),
    )
    doc = json.loads(out)
    assert doc["cost"] == {"numerator": 20, "denominator": 1, "decimal": "20.0"}


@pytest.mark.parametrize("sign", ["", "-"])
def test_min_cost_dominant_total_beyond_float(tmp_path, capsys, sign):
    inst = tmp_path / "one.pref"
    inst.write_text("men: a\nwomen: b\na: b\nb: a\n")
    costs = tmp_path / "c.costs"
    costs.write_text(f"a b {sign}1e400\n")
    exact = int(f"{sign}1" + "0" * 400)
    code, out, err = run_cli(
        capsys, "min-cost-dominant", "-i", str(inst), "--costs", str(costs)
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["a b", f"cost: {exact} ({sign}inf)"]
    code, out, err = run_cli(
        capsys, "min-cost-dominant", "--json", "-i", str(inst), "--costs", str(costs)
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["cost"] == {"numerator": exact, "denominator": 1, "decimal": f"{sign}inf"}


@pytest.mark.parametrize("cost", ["1e5000", "1e-5000", "1e999999999"])
def test_min_cost_dominant_cost_too_long(tmp_path, capsys, cost):
    # Python prints no int of more than sys.get_int_max_str_digits()
    # digits, and expanding the last exponent alone would not finish
    inst = tmp_path / "one.pref"
    inst.write_text("men: a1\nwomen: b1\na1: b1\nb1: a1\n")
    costs = tmp_path / "c.costs"
    costs.write_text(f"a1 b1 {cost}\n")
    digits = sys.get_int_max_str_digits()
    for extra in ([], ["--json"]):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "min-cost-dominant", *extra, "-i", str(inst), "--costs", str(costs)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: line 1: cost '{cost}' exceeds {digits} digits\n"


def test_min_cost_dominant_total_too_long(tmp_path, capsys):
    # each cost prints, but their sum's denominator has about 8,000 digits
    inst = tmp_path / "two.pref"
    inst.write_text("men: a1 a2\nwomen: b1 b2\na1: b1\na2: b2\nb1: a1\nb2: a2\n")
    costs = tmp_path / "c.costs"
    costs.write_text(f"a1 b1 1/{10**4000 + 1}\na2 b2 1/{10**4000 + 3}\n")
    digits = sys.get_int_max_str_digits()
    for extra in ([], ["--json"]):
        code, out, err = run_cli(
            capsys, "min-cost-dominant", *extra, "-i", str(inst), "--costs", str(costs)
        )
        assert code == 2 and out == ""
        assert err == f"error: the total cost has more than {digits} digits, too many to print\n"


def test_min_cost_dominant_missing_cost(shared_top_file, tmp_path, capsys):
    costs = tmp_path / "c.costs"
    costs.write_text("a1 b1 0\na2 b1 10\n")
    code, out, err = run_cli(
        capsys, "min-cost-dominant", "-i", shared_top_file, "--costs", str(costs)
    )
    assert code == 2 and out == ""
    assert err == "error: missing cost for edge (a1,b2)\n"


def test_min_cost_dominant_ignores_guard_env(tmp_path, capsys, monkeypatch):
    # two blocks: 16 stable matchings of G', all of cost 4; the minimum
    # cut lists none of them, so only enumerate reads the guard
    inst = tmp_path / "blocks.pref"
    inst.write_text(blocks_text(2))
    costs = tmp_path / "c.costs"
    costs.write_text("".join(f"{m} {w} 1\n" for m, w in parse_instance(blocks_text(2)).edges))
    monkeypatch.setenv("POPMATCH_MAX_ENUM", "1")
    code, out, err = run_cli(capsys, "min-cost-dominant", "-i", str(inst), "--costs", str(costs))
    assert code == 0 and err == "" and out.endswith("cost: 4 (4.0)\n")
    code, out, err = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(inst))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_public_names_resolve():
    namespace = {}
    exec("from popmatch import *", namespace)
    assert all(namespace[name] is getattr(popmatch, name) for name in popmatch.__all__)
    # every public name, so that adding or removing one shows in a diff
    assert sorted(popmatch.__all__) == [
        "Certificate", "Decomposition", "ElectionResult", "EnumerationGuardError",
        "Instance", "InstanceError", "LabeledGraph", "LevelledMatching", "Matching",
        "ParseError", "Partition", "classify", "compare", "decompose", "defeats",
        "dominant_set", "dominant_two_level", "dominant_with_edge",
        "enumerate_matchings", "exists_unstable_popular", "generate_random",
        "inverse_map", "is_dominant", "is_popular", "is_stable", "label_edges",
        "lift_to_dominant", "lower_to_stable", "min_cost_dominant", "parse_costs",
        "parse_instance", "parse_matching", "partition", "popular_edge",
        "popular_edges", "popular_set", "run", "serialize_instance",
        "serialize_matching", "stable_matchings", "stable_set", "stable_with_edge",
        "vote",
    ]


def test_enumerate_variants(shared_top_file, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--what", "matchings", "-i", shared_top_file)
    assert code == 0
    assert out.splitlines()[0] == "{}"
    assert len(out.splitlines()) == 5
    code, out, _ = run_cli(capsys, "enumerate", "--what", "stable", "-i", shared_top_file)
    assert out == "a1,b1\n"
    code, out, _ = run_cli(capsys, "enumerate", "--what", "dominant", "-i", shared_top_file)
    assert out == "a1,b2 a2,b1\n"
    code, out, _ = run_cli(
        capsys, "enumerate", "--what", "popular-edges", "--json", "-i", shared_top_file
    )
    assert json.loads(out) == {
        "edges": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"]]
    }


def listed(family, js):
    """What `enumerate` prints for a list of matchings."""
    if js:
        return json.dumps({"matchings": [[list(e) for e in m.sorted_pairs()] for m in family]}) + "\n"
    return "".join((" ".join(f"{a},{b}" for a, b in m.sorted_pairs()) or "{}") + "\n" for m in family)


def test_enumerate_matches_the_oracle(small_ensemble, tmp_path, capsys):
    # stable, dominant and popular-edges read the rotation posets and
    # popular runs the linear verifier; the brute-force classification
    # is the reference for all four
    extra = [parse_instance(blocks_text(k)) for k in range(1, 4)]
    extra += [parse_instance(cyclic_text(n)) for n in range(2, 6)]
    path = tmp_path / "inst.pref"
    for inst, report in small_ensemble + [(inst, classify(inst)) for inst in extra]:
        path.write_text(serialize_instance(inst))
        edges = sorted(popular_edges(inst))
        for js in (False, True):
            want = {
                "stable": listed(report.stable_set(), js),
                "dominant": listed(report.dominant_set(), js),
                "popular": listed(report.popular_set(), js),
                "popular-edges": json.dumps({"edges": [list(e) for e in edges]}) + "\n"
                if js else "".join(f"{a} {b}\n" for a, b in edges),
            }
            for what, out in want.items():
                argv = ["enumerate", "--what", what, "-i", str(path)] + ["--json"] * js
                assert run_cli(capsys, *argv) == (0, out, ""), (serialize_instance(inst), argv)


def test_enumerate_guards_count_the_family(tmp_path, capsys, monkeypatch):
    # stable and dominant are bounded by the number of stable matchings
    # they list, not by the edge guard of the exhaustive listings
    monkeypatch.setenv("POPMATCH_MAX_ENUM", "1")
    path = tmp_path / "blocks.pref"
    path.write_text(blocks_text(10))
    code, out, err = run_cli(capsys, "enumerate", "--what", "stable", "-i", str(path))
    assert code == 0 and err == "" and len(out.splitlines()) == 2**10
    path.write_text(blocks_text(9))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--what", "dominant", "-i", str(path))
    assert time.perf_counter() - start < 2.0
    assert (code, out, err) == (2, "", "error: more than 100000 stable matchings\n")


# Bounds on one listing CLI run, start-up included: about five times the
# wall time (0.13-0.43 s on a 2-vCPU VM) and twice the peak RSS (18-19
# MB) measured for the runs below.
LISTING_WALL_S = 2.0
LISTING_RSS_MB = 40

def measured_cli(*argv: str, **env: str):
    # exit code, stdout line count, stderr, wall seconds, peak RSS in MB
    code, out, err, seconds, rss = measured_child("-m", "popmatch.cli", *argv, **env)
    return code, len(out.splitlines()), err, seconds, rss


def test_dominant_listing_holds_no_family(tmp_path):
    # 8 blocks: 4**8 stable matchings of G', 256 dominant matchings; the
    # listing keeps each closed set as a bitmask and each set of pairs
    # once, where holding every stable matching of G' peaked near 290 MB
    path = tmp_path / "blocks.pref"
    path.write_text(blocks_text(8))
    argv = ["enumerate", "--what", "dominant", "-i", str(path)]
    code, lines, err, seconds, rss = measured_cli(*argv)
    assert (code, lines, err) == (0, 256, "")
    assert seconds < LISTING_WALL_S and rss < LISTING_RSS_MB, (seconds, rss)


def test_refusals_come_before_memory_fills(tmp_path):
    # 9 blocks: 4**9 stable matchings of G', refused at the count guard
    path = tmp_path / "blocks.pref"
    path.write_text(blocks_text(9))
    argv = ["enumerate", "--what", "dominant", "-i", str(path)]
    code, lines, err, seconds, rss = measured_cli(*argv)
    assert (code, lines, err) == (2, 0, "error: more than 100000 stable matchings\n")
    assert seconds < LISTING_WALL_S and rss < LISTING_RSS_MB, (seconds, rss)
    # 40 disjoint pairs: 2**40 matchings, inside a raised edge guard
    pairs = [(f"a{i}", f"b{i}") for i in range(40)]
    path.write_text(serialize_instance(Instance(
        [a for a, _ in pairs], [b for _, b in pairs],
        {**{a: (b,) for a, b in pairs}, **{b: (a,) for a, b in pairs}},
    )))
    for what in ("matchings", "popular"):
        code, lines, err, seconds, rss = measured_cli(
            "enumerate", "--what", what, "-i", str(path), POPMATCH_MAX_ENUM="100"
        )
        assert (code, lines, err) == (2, 0, "error: more than 100000 matchings\n"), what
        assert seconds < LISTING_WALL_S and rss < LISTING_RSS_MB, (what, seconds, rss)


def test_enumerate_guard_env(tmp_path, capsys, monkeypatch):
    # 39 edges and 40,470 matchings: over the default edge guard, under
    # the family guard
    path = tmp_path / "big.pref"
    code, _, _ = run_cli(
        capsys, "gen", "--men", "7", "--women", "7", "--density", "0.8",
        "--seed", "0", "-o", str(path),
    )
    assert code == 0
    code, _, err = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(path))
    assert code == 2 and "error:" in err
    monkeypatch.setenv("POPMATCH_MAX_ENUM", "39")
    code, out, _ = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(path))
    assert code == 0 and out
    for raw in ("nope", "-3"):
        monkeypatch.setenv("POPMATCH_MAX_ENUM", raw)
        code, _, err = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(path))
        assert code == 2 and "POPMATCH_MAX_ENUM" in err, raw


def test_out_of_memory_is_exit_2(shared_top_file, capsys, monkeypatch):
    # an exponential family can exhaust memory before any guard trips;
    # that is an input too large for the machine, not a crash
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(popmatch.oracles, "enumerate_matchings", exhausted)
    code, out, err = run_cli(capsys, "enumerate", "--what", "matchings", "-i", shared_top_file)
    assert code == 2 and out == ""
    assert err == "error: out of memory running enumerate\n"


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "gen.pref"
    code, out, _ = run_cli(
        capsys, "gen", "--men", "4", "--women", "3", "--density", "0.8",
        "--seed", "5", "-o", str(path), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["written"] == str(path)
    assert doc["men"] == 4 and doc["women"] == 3
    code, out, _ = run_cli(capsys, "solve", "--property", "dominant", "-i", str(path))
    assert code == 0


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--property", "stable", "-i", "/nonexistent.pref"
    )
    assert code == 2 and "error:" in err


def test_bad_instance_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.pref"
    path.write_text("men: a1\nwomen: b1\na1: b9\nb1: a1\n")
    code, _, err = run_cli(capsys, "solve", "--property", "stable", "-i", str(path))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "text",
    [
        "men: a1 a2\nwomen: b1\na1: a2\n",
        "men: a1\nwomen: b1\na1: b1\nb1:\n",
        "men: a1:x\nwomen: b1\n",
    ],
    ids=["own-side", "asymmetric", "colon-in-id"],
)
def test_invalid_instance_file_is_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.pref"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--property", "stable", "-i", str(path))
    assert code == 2 and out == "" and err.startswith("error: line ")


def test_gen_bad_density_is_exit_2(tmp_path, capsys):
    path = tmp_path / "gen.pref"
    code, _, err = run_cli(
        capsys, "gen", "--men", "3", "--women", "3", "--density", "2",
        "--seed", "1", "-o", str(path),
    )
    assert code == 2 and "error:" in err and "density" in err
    assert not path.exists()


def test_gen_negative_size_is_exit_2(tmp_path, capsys):
    path = tmp_path / "gen.pref"
    code, _, err = run_cli(
        capsys, "gen", "--men", "-3", "--women", "3", "--density", "0.5",
        "--seed", "1", "-o", str(path),
    )
    assert code == 2 and "error:" in err and "negative" in err
    assert not path.exists()


def test_non_utf8_instance_is_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.pref"
    path.write_bytes(b"men: a\xff\n")
    code, _, err = run_cli(capsys, "solve", "--property", "stable", "-i", str(path))
    assert code == 2 and "error:" in err and "UTF-8" in err


def whole_text_parse(path, parse, *args):
    """The reader the streamed one replaced: the whole file decoded, then
    its text parsed."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})")
    return parse(text, *args)


# A format fault on line 4, and an invalid UTF-8 byte on the last line, 8.
FAULT_THEN_BAD_BYTE = SHARED_TOP_TEXT.replace("a2: b1", "a2 b1").encode() + b"# \xc3\x28\n"


def streamed_read_files(big):
    """Instance, matching and cost files, as bytes, that a streamed read
    could get wrong: every line break `str.splitlines` knows, a BOM, bad
    lines, and invalid UTF-8 at the end or after a format fault; with
    `big`, a '\\r\\n' split across the default chunk boundary."""
    lines = SHARED_TOP_TEXT.splitlines()
    instances = []
    for base in (SHARED_TOP_TEXT, CONTESTED_HUB_TEXT, NESTED_FAN_TEXT):
        rows = base.splitlines()
        for bad in BAD_LINES:
            for at in (0, 2, len(rows)):
                instances.append("\n".join(rows[:at] + [bad] + rows[at:]) + "\n")
    for brk in ("\v", "\f", "\x1c", "\x85", "\u2028", "\r", "\r\n"):
        # a fault at the end shows the line count in its message
        instances += [brk.join(lines) + brk, brk.join(lines), brk.join(lines + ["zz"]) + brk]
    instances.append("\ufeff" + SHARED_TOP_TEXT)
    instances = [text.encode() for text in instances]
    instances += [
        SHARED_TOP_TEXT.rstrip("\n").encode() + b"\xff",  # on a last line without newline
        SHARED_TOP_TEXT.encode() + b"a2: \xe2\x82",  # cut off at the end
        FAULT_THEN_BAD_BYTE,
    ]
    if big:
        # the '\\r' ends the first chunk, the '\\n' starts the second
        pad = b"#" + b"x" * (cli._CHUNK - 2)
        instances.append(pad + b"\r\n" + (SHARED_TOP_TEXT + "zz\n").replace("\n", "\r\n").encode())
        instances.append(pad + b"\xc3\xa9\xff\n" + SHARED_TOP_TEXT.encode())
    matchings = [
        b"a1 b2\r\na2 b1\r\n", b"a1 b2\x0ba2 b1", "a1 b2\u2028a2 b1".encode(), b"a1 b1 b2\n# \xff\n",
        b"# \xe2\x82\xac\na1 b2\na2 b1", b"a1 b2\na1 b1\n", b"a1 b2\n\xff",
    ]
    costs = [b"a1 b1 1\ra1 b2 2\ra2 b1 3\r", b"a1 b1 1\na1 b1 x\n\xff", b"a1 b1 1\x1ca1 b2 2\x1ca2 b1 3"]
    return instances, matchings, costs


@pytest.mark.parametrize("chunk", [1, 3, cli._CHUNK])
def test_streamed_read_matches_the_whole_text_read(tmp_path, capsys, monkeypatch, chunk):
    instances, matchings, costs = streamed_read_files(big=chunk == cli._CHUNK)
    good = tmp_path / "good.pref"
    good.write_text(SHARED_TOP_TEXT)
    matching = tmp_path / "m.txt"
    matching.write_text("a1 b2\na2 b1\n")
    runs = []
    for k, data in enumerate(instances):
        (tmp_path / f"i{k}").write_bytes(data)
        i = ["-i", str(tmp_path / f"i{k}")]
        runs += [["solve", "--property", "stable"] + i,
                 ["verify", "--property", "dominant", "-m", str(matching)] + i]
    for k, data in enumerate(matchings):
        (tmp_path / f"m{k}").write_bytes(data)
        runs += [["verify", "--property", p, "-m", str(tmp_path / f"m{k}"), "-i", str(good)]
                 for p in ("stable", "popular", "dominant")]
    for k, data in enumerate(costs):
        (tmp_path / f"c{k}").write_bytes(data)
        runs.append(["min-cost-dominant", "--costs", str(tmp_path / f"c{k}"), "-i", str(good)])
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for argv in runs:
        streamed = run_cli(capsys, *argv)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_parse_file", whole_text_parse)
            assert run_cli(capsys, *argv) == streamed, argv
    # the invalid byte after a format fault is what the file is refused
    # for, at its offset in the whole file
    faulty = tmp_path / "fault.pref"
    faulty.write_bytes(FAULT_THEN_BAD_BYTE)
    at = FAULT_THEN_BAD_BYTE.index(b"\xc3")
    assert run_cli(capsys, "solve", "--property", "stable", "-i", str(faulty)) == (
        2, "", f"error: {faulty}: not valid UTF-8 (invalid continuation byte at byte {at})\n"
    )


# Every line break `str.splitlines` knows, '\r' and '\n' the likeliest.
BREAKS = ["\r", "\n"] * 4 + list("\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@settings(max_examples=500, deadline=None)
@given(
    text=st.text(st.sampled_from(["a", ":", " ", "é"] + BREAKS), max_size=24),
    bad=st.none() | st.tuples(st.integers(0, 60), st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])),
    chunk=st.integers(1, 8),
)
def test_read_lines_are_the_lines_of_the_whole_text(text, bad, chunk):
    # blocks cut anywhere, inside a '\r\n' or a UTF-8 sequence too, give
    # the lines of the whole file's decode, or its error at its offset
    data = text.encode()
    if bad is not None:
        at = min(bad[0], len(data))
        data = data[:at] + bad[1] + data[at:]
    try:
        want = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        want = f"f: not valid UTF-8 ({exc.reason} at byte {exc.start})"
    with mock.patch.object(cli, "_CHUNK", chunk):
        try:
            got = list(cli._lines(io.BytesIO(data), "f"))
        except InstanceError as exc:
            got = str(exc)
    assert got == want


def test_a_line_longer_than_a_block_is_read_in_linear_time(tmp_path, monkeypatch):
    # a reader that searched or copied the bytes held since the last line
    # end once per block would take seconds on this one 2 MB line
    path = tmp_path / "long.pref"
    path.write_bytes(b"x" * 2_000_000 + b"\r\n")
    monkeypatch.setattr(cli, "_CHUNK", 64)
    start = time.process_time()
    with open(path, "rb") as fh:
        lines = list(cli._lines(fh, str(path)))
    assert time.process_time() - start < 2
    assert lines == ["x" * 2_000_000]


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # numpy is imported on first use: gen and the oracles; parsing, the
    # proposal engine, the rotation poset and the verifiers, which label
    # edges off the int lists, never load it
    path = tmp_path / "inst.pref"
    path.write_text(CONTESTED_HUB_TEXT)
    costs = tmp_path / "c.costs"
    edges = sorted(parse_instance(CONTESTED_HUB_TEXT).edges)
    costs.write_text("".join(f"{m} {w} {k}\n" for k, (m, w) in enumerate(edges)))
    matching = tmp_path / "m.txt"
    matching.write_text("a1 b1\na2 b2\n")
    src = str(Path(popmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import contextlib, io, sys, popmatch.cli\n"
        "i = ['-i', sys.argv[1]]\n"
        "m = ['-m', sys.argv[3]]\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for argv in (['solve', '--property', 'stable'], ['solve', '--property', 'dominant'],\n"
        "             ['popular-vs-stable'], ['min-cost-dominant', '--costs', sys.argv[2]],\n"
        "             ['verify', '--property', 'stable'] + m,\n"
        "             ['verify', '--property', 'popular'] + m,\n"
        "             ['verify', '--property', 'dominant'] + m,\n"
        "             ['popular-edge', '--edge', 'a2,b1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = popmatch.cli.main(argv + i)\n"
        "    loaded.append((code, 'numpy' in sys.modules))\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path), str(costs), str(matching)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[False, (0, False), (0, False), (1, False), (0, False),"
        " (1, False), (1, False), (1, False), (0, False)]\n"
    )


def test_cli_paths_build_no_name_view(tmp_path, monkeypatch, capsys):
    # the CLI reads instances as int lists; pref, rank and edges are
    # views for library callers and the oracles
    files = []
    for k, inst in enumerate(
        [parse_instance(SHARED_TOP_TEXT), parse_instance(blocks_text(2)),
         generate_random(8, 7, 0.4, 3)]
    ):
        d = tmp_path / str(k)
        d.mkdir()
        (d / "inst.pref").write_text(serialize_instance(inst))
        edges = sorted(inst.edges)
        matchings = [run(inst), dominant_two_level(inst), Matching(), Matching(edges[:1])]
        for j, m in enumerate(matchings):
            (d / f"m{j}").write_text(serialize_matching(m))
        (d / "costs").write_text("".join(f"{a} {b} {len(a + b) % 3}\n" for a, b in edges))
        files.append((d, len(matchings), edges))
    built = []
    for view in ("pref", "rank", "edges"):

        def recording(self, view=view, fget=getattr(Instance, view).func):
            built.append(view)
            return fget(self)

        monkeypatch.setattr(Instance, view, property(recording))
    for d, count, edges in files:
        i = ["-i", str(d / "inst.pref")]
        for prop in ("stable", "dominant"):
            assert main(["solve", "--property", prop] + i) == 0
        for j in range(count):
            for prop in ("stable", "popular", "dominant"):
                assert main(["verify", "--property", prop, "-m", str(d / f"m{j}")] + i) in (0, 1)
        for a, b in edges:
            assert main(["popular-edge", "--edge", f"{a},{b}"] + i) in (0, 1)
        assert main(["popular-vs-stable"] + i) in (0, 1)
        assert main(["min-cost-dominant", "--costs", str(d / "costs")] + i) == 0
    capsys.readouterr()
    assert built == []


def run_fresh(code: str, *argv: str) -> str:
    """stdout of `code` run in a fresh interpreter on this checkout."""
    src = str(Path(popmatch.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


BASE_MODULES = ["popmatch", "popmatch.cli", "popmatch.gale_shapley", "popmatch.instance",
                "popmatch.popular_edge"]


def test_each_command_imports_only_what_it_runs(tmp_path):
    # start-up is most of a CLI call on small inputs, so each command
    # loads only its own modules: no dataclasses (which loads inspect),
    # no numpy (no enumerate runs the numpy oracle), and fractions only
    # for the exact costs of min-cost-dominant
    path = tmp_path / "inst.pref"
    path.write_text(CONTESTED_HUB_TEXT)
    costs = tmp_path / "c.costs"
    edges = sorted(parse_instance(CONTESTED_HUB_TEXT).edges)
    costs.write_text("".join(f"{m} {w} {k}/3\n" for k, (m, w) in enumerate(edges)))
    matching = tmp_path / "m.txt"
    matching.write_text("a1 b1\na2 b2\n")
    i, m = ["-i", str(path)], ["-m", str(matching)]
    verify = BASE_MODULES + ["popmatch.elections", "popmatch.verify"]
    cases = [
        (["--help"], BASE_MODULES),
        (["solve", "--property", "stable"] + i, BASE_MODULES),
        (["solve", "--property", "dominant"] + i, BASE_MODULES),
        (["verify", "--property", "stable"] + m + i, verify),
        (["verify", "--property", "popular"] + m + i, verify),
        (["verify", "--property", "dominant"] + m + i, verify),
        (["popular-edge", "--edge", "a2,b1"] + i, BASE_MODULES),
        (["popular-vs-stable"] + i, BASE_MODULES + ["popmatch.rotations"]),
        (["min-cost-dominant", "--costs", str(costs)] + i,
         BASE_MODULES + ["popmatch.min_cost", "popmatch.rotations"]),
        (["enumerate", "--what", "matchings"] + i, BASE_MODULES + ["popmatch.oracles"]),
        (["enumerate", "--what", "popular"] + i, verify + ["popmatch.oracles"]),
    ] + [
        (["enumerate", "--what", what] + i, BASE_MODULES + ["popmatch.rotations"])
        for what in ("stable", "dominant", "popular-edges")
    ]
    code = (
        "import contextlib, io, sys, popmatch.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        popmatch.cli.main(sys.argv[1:])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'popmatch')))\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'numpy', 'fractions')"
        " if m in sys.modules))\n"
    )
    for argv, modules in cases:
        loaded, heavy = run_fresh(code, *argv).split("\n")[:2]
        assert loaded.split() == sorted(modules), argv
        assert heavy == ("fractions" if argv[0] == "min-cost-dominant" else ""), argv


def test_lazy_name_table_covers_the_package():
    # dir() reads the name table, so it cannot see a name left pointing
    # at a module that is gone: resolve every name in a fresh interpreter,
    # and check the table names every submodule but the CLI
    code = (
        "import pkgutil, popmatch\n"
        "for name in popmatch.__all__:\n"
        "    getattr(popmatch, name)\n"
        "found = {m.name for m in pkgutil.iter_modules(popmatch.__path__)}\n"
        "print(sorted(found - set(popmatch._NAMES) - {'cli'}))\n"
    )
    assert run_fresh(code) == "[]\n"


def test_lazy_package_keeps_its_names():
    # popular_edge names the function whichever import binds the
    # submodule first, and every other public name resolves on first use
    for first in ("import popmatch.popular_edge",
                  "from popmatch.popular_edge import NotPopularError", "import popmatch"):
        code = f"{first}\nimport inspect, popmatch\nprint(inspect.isfunction(popmatch.popular_edge))\n"
        assert run_fresh(code) == "True\n", first
    code = (
        "import popmatch\n"
        "print(sorted(set(popmatch.__all__) - set(dir(popmatch))))\n"
        "print(popmatch.oracles.EnumerationGuardError is popmatch.EnumerationGuardError)\n"
        "print(hasattr(popmatch, 'no_such_name'), hasattr(popmatch, 'is_popular'))\n"
        "print(popmatch.is_popular is popmatch.verify.is_popular)\n"
    )
    assert run_fresh(code) == "[]\nTrue\nFalse True\nTrue\n"
    with pytest.raises(AttributeError, match="no_such_name"):
        popmatch.no_such_name


def test_answers_do_not_depend_on_declaration_order(tmp_path, capsys):
    # the same instance declared as generated and shuffled (every line
    # moved) gets the same answers, byte for byte, certificates included
    rng = random.Random(23)
    for seed in range(100):
        base = generate_random(3 + seed % 10, 3 + seed // 10, (0.3, 0.5)[seed % 2], seed)
        shuffled = Instance(
            rng.sample(base.men, len(base.men)), rng.sample(base.women, len(base.women)), base.pref
        )
        paths = []
        for k, inst in enumerate((base, shuffled)):
            paths.append(tmp_path / f"{seed}-{k}.pref")
            paths[-1].write_text(serialize_instance(inst))
        edges = sorted(base.edges)
        costs = tmp_path / f"{seed}.costs"
        costs.write_text("".join(f"{m} {w} {rng.randrange(4)}/{rng.randrange(1, 3)}\n" for m, w in edges))
        matchings = []
        for k, m in enumerate([run(base), run(base, levels=2), random_matching(base, rng)]):
            matchings.append(str(tmp_path / f"{seed}-m{k}"))
            Path(matchings[-1]).write_text(serialize_matching(m))
        json_flag = ("--json",) * (seed % 2)
        commands = [
            ("solve", "--property", "stable"),
            ("solve", "--property", "dominant"),
            ("popular-vs-stable",),
            ("min-cost-dominant", "--costs", str(costs)),
            ("enumerate", "--what", "stable"),
            ("enumerate", "--what", "dominant"),
            ("enumerate", "--what", "popular-edges"),
        ]
        commands += [("popular-edge", "--edge", f"{m},{w}") for m, w in rng.sample(edges, min(2, len(edges)))]
        commands += [
            ("verify", "--property", prop, "-m", m)
            for prop in ("stable", "popular", "dominant")
            for m in matchings
        ]
        for command in commands:
            got = [run_cli(capsys, *command, *json_flag, "-i", str(p)) for p in paths]
            assert got[0] == got[1], (seed, command)
