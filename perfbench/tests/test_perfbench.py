"""Self-tests for the benchmark's generators, checks and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import popmatch  # noqa: E402
from popmatch import (  # noqa: E402
    Matching,
    dominant_two_level,
    generate_random,
    min_cost_dominant,
    oracles,
    serialize_instance,
    serialize_matching,
)
from popmatch import run as gale_shapley_run  # noqa: E402


def small_instances(count):
    for seed in range(count):
        inst = generate_random(2 + seed % 4, 2 + (seed // 4) % 4, (0.5, 0.8, 1.0)[seed % 3], seed)
        if inst.edges:
            yield inst


def test_generators_are_deterministic():
    shape = (60, 50, 0.1)
    a = generate_random(*shape, 3)
    b = generate_random(*shape, 3)
    assert serialize_instance(a) == serialize_instance(b)
    stable, dominant = gale_shapley_run(a), dominant_two_level(a)
    assert gen.edge_queries(a, stable, dominant, 5, 3) == gen.edge_queries(b, stable, dominant, 5, 3)
    assert serialize_matching(gen.non_popular_swap(a, stable, 3)) == serialize_matching(
        gen.non_popular_swap(b, stable, 3)
    )
    x, bx = gen.blocks(20, 9)
    y, by = gen.blocks(20, 9)
    assert serialize_instance(x) == serialize_instance(y) and bx == by
    assert gen.serialize_costs(gen.block_costs(x, 9)) == gen.serialize_costs(gen.block_costs(y, 9))
    assert serialize_instance(gen.blocks(20, 10)[0]) != serialize_instance(x)


def test_self_time_arithmetic():
    # root [0,10] has children a [1,4], b [4.5,6] and c [8,9.5], one after
    # another as the recorder opens them; a has child d [2,3], which has a
    # nested "a" [2.2,2.7].
    tree = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "d", 2.0, 3.0],
        [3, 2, "a", 2.2, 2.7],
        [4, 0, "b", 4.5, 6.0],
        [5, 0, "c", 8.0, 9.5],
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10 - 3 - 1.5 - 1.5)
    assert selfs[1] == pytest.approx(3 - 1)
    assert selfs[2] == pytest.approx(1 - 0.5)
    assert selfs[5] == pytest.approx(1.5)
    t = spans.totals(tree)
    # The nested "a" span lies inside the outer one: counted once.
    assert t["a"]["calls"] == 2 and t["a"]["total_s"] == pytest.approx(3)
    assert t["a"]["self_s"] == pytest.approx(2 + 0.5)
    assert spans.calls_under(tree, "a", "d") == 1
    assert spans.calls_under(tree, "d", "root") == 1


def test_times_are_scaled_by_the_probe_units_beside_them():
    ref = probe.REF_S
    # One sample ran beside units twice as slow as the reference; the
    # other beside none, so it takes the whole run's units.
    tally = run.Tally(probe_s=[ref, 3 * ref])
    tally.record("a", 4.0, None, probe.factor([2 * ref, 2 * ref]))
    tally.record("a", 6.0, None, probe.factor([]))
    prep = run.Prepared([0.3, 0.1, 0.2], [run.Op("a", "a_s", [], None)], probe_s=[ref / 2])
    m = run.named_metrics(prep, tally)
    assert m["wall_a_s"] == (5.0, "s", 2)
    assert m["a_s"][0] == pytest.approx((2.0 + 3.0) / 2)
    assert m["setup_s"] == (pytest.approx(0.4), "s", 3)
    assert m["probe_unit_ms"][0] == pytest.approx(1000 * 2 * ref)


def test_corrupted_matching_counts_as_failure():
    inst = generate_random(40, 40, 0.15, 5)
    stable = gale_shapley_run(inst)
    checks.check_stable(inst, stable)
    text = serialize_matching(stable)
    m, w = stable.sorted_pairs()[0]
    other = next(x for x in inst.pref[m] if x != w)
    corrupted = text.replace(f"{m} {w}\n", f"{m} {other}\n")
    tally = run.Tally()

    def check(out, rc):
        checks.check_exit(rc, 0)
        checks.check_stable(inst, checks.matching_from_text(inst, out.decode()))

    tally.record("solve", 0.1, run._run_check(check, text.encode(), 0))
    tally.record("solve", 0.1, run._run_check(check, corrupted.encode(), 0))
    tally.record("solve", 0.1, run._run_check(check, text.encode(), 2))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_certificate_replay_rejects_a_wrong_certificate():
    inst = generate_random(300, 300, 0.03, 2)
    stable = gale_shapley_run(inst)
    perturbed = gen.non_popular_swap(inst, stable, 2)
    ok, cert = popmatch.is_popular(inst, perturbed)
    assert not ok
    checks.replay_certificate(inst, perturbed, cert)
    with pytest.raises(checks.CheckFailed):
        checks.replay_certificate(inst, stable, cert)


def test_reference_popular_edges_match_the_oracle():
    for inst in small_instances(120):
        assert reference.popular_edges(inst) == oracles.popular_edges(inst)
    blocks, _ = gen.blocks(3, 1)
    assert reference.popular_edges(blocks) == oracles.popular_edges(blocks, 64)


def test_popularity_check_matches_the_oracle():
    for inst in small_instances(120):
        popular = set(oracles.classify(inst).popular_set())
        for matching in oracles.enumerate_matchings(inst):
            assert (checks.popularity_violation(inst, matching) is None) == (matching in popular)


def test_non_popular_swap_is_not_popular():
    inst = generate_random(300, 300, 0.03, 4)
    perturbed = gen.non_popular_swap(inst, gale_shapley_run(inst), 4)
    assert checks.popularity_violation(inst, perturbed) is not None


def test_block_closed_form_matches_the_library():
    inst, blocks = gen.blocks(3, 8)
    costs = gen.block_costs(inst, 8)
    _matching, total = min_cost_dominant(inst, costs)
    assert total == gen.block_min_cost(blocks, costs)
    assert oracles.popular_set(inst) == oracles.stable_set(inst)


def test_wrappers_cover_every_binding_and_restore():
    recorder = spans.Recorder()
    installed = spans.Installed(recorder, popmatch)
    original = popmatch.elections.label_edges
    assert {"popmatch.verify.label_edges", "popmatch.cli.parse_instance", "popmatch.run"} <= set(
        installed.bindings
    )
    inst = generate_random(30, 30, 0.2, 1)
    installed.apply()
    try:
        assert popmatch.verify.label_edges is not original
        popmatch.verify.is_popular(inst, Matching())
    finally:
        installed.remove()
    assert popmatch.verify.label_edges is original and popmatch.elections.label_edges is original
    names = {s[2]: s for s in recorder.spans}
    assert names["elections.label_edges"][1] == names["verify.is_popular"][0]


def test_fails_without_program_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "blocks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
