"""popmatch benchmark: time-to-answer on five workloads, plus a traced
per-module run.

Run from the root of a checkout (the program is imported from `src/`):

    python3 perfbench/run.py --workload acceptance-stable --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10 --trace 0
    python3 -m pytest perfbench/tests -q        # the benchmark's self-tests

One client sends one operation at a time (a closed loop).  CLI
operations run as one subprocess each, timed from spawn to exit by a
small launcher process (see launcher.py); the edge-queries loop calls
the library from a child process.  A run repeats rounds of its
workload's operations until `--seconds` have passed, and always
finishes at least one round.  Outputs are checked outside the timed
region; a crash, a wrong exit code or a failed check counts as a failed
operation.

Everything runs on one CPU.  A shared machine's speed drifts by tens of
percent over seconds and minutes, so a probe (see probe.py) runs on that
CPU beside the program all through the run, and each time is scaled by
the mean time of the probe units that ran while it was measured.  The
measured times are reported beside the scaled ones, with `wall_` in
front of their names.

The report lists every metric with its unit and sample count; the last
line is one JSON object with `correct`, `attempted`, `failed` and the
metrics that BENCHMARK.json declares (end-to-end with `--trace 0`,
per-layer with `--trace 1`).  The declared end-to-end metrics are the
ones every workload has: the sum and the geometric mean of the per-kind
median times, the peak RSS, and the set-up time.

`--trace 1` runs one round, each operation once untraced and once
traced, both in-process through `popmatch.cli.main(argv)`, and derives
per-layer metrics from spans recorded around every public `popmatch`
function.  A layer the workload never calls reports zero.  Spans and
the full report go to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = (
    "acceptance-stable",
    "acceptance-dominant",
    "acceptance-verify",
    "edge-queries",
    "blocks",
)
WORK_DIR = ".perfbench_work"

# Set-up repeats at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_SECONDS, so that short set-ups still give a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 400
SETUP_MIN_SECONDS = 2.0
QUERIES_PER_CLASS = 40
# p90 needs at least ten samples beyond it.
MIN_QUERIES = 110
# A query time is scaled by the probe units that ended within this many
# seconds of the query (about 15 units beside a 0.1 s query).
QUERY_PROBE_MARGIN_S = 0.2
TRACE_QUERIES_PER_CLASS = 10
SCAN_BLOCKS = 300
MIN_COST_BLOCKS = 6
STARTUP_CALLS = 3


@dataclass
class Op:
    """One CLI operation: `kind` names its timing, `metric` the reported
    metric it feeds (several kinds may feed one metric)."""

    kind: str
    metric: str
    argv: List[str]
    check: Callable[[bytes, int], None]


@dataclass
class Prepared:
    setup_s: List[float]
    ops: List[Op] = field(default_factory=list)
    queries: Optional[dict] = None
    # Program outputs used as inputs that failed their check in set-up.
    setup_failures: List[str] = field(default_factory=list)
    # The probe unit times recorded during set-up.
    probe_s: List[float] = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    # Per sample, the probe factor measured while it ran (None: unknown).
    factors: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    # Every probe unit time of the run, set-up included.
    probe_s: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    processes: int = 0

    def program_exited(self, rss_mb: float) -> None:
        self.processes += 1
        self.rss_mb = max(self.rss_mb, rss_mb)

    def record(
        self,
        label: str,
        seconds: Optional[float],
        error: Optional[str],
        factor: Optional[float] = None,
    ) -> None:
        """One attempted operation; `seconds` is None when it gave no time,
        and `factor` is the probe factor measured beside it."""
        self.attempted += 1
        if seconds is not None:
            self.samples.setdefault(label, []).append(seconds)
            self.factors.setdefault(label, []).append(factor)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {error}")


def _run_check(check: Callable, *args) -> Optional[str]:
    """The check's complaint, or None.  Any exception a check raises on
    malformed output counts as a failed operation."""
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------- setup


def _timed_setup(build: Callable[[], tuple], out_dir: Path):
    """Run `build` (returning file name -> bytes, and a context) repeatedly,
    writing its files each time, and return the last context plus the
    per-repeat times.  Every repeat must produce byte-identical files."""
    times: List[float] = []
    digest = None
    ctx = None
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        # Each repeat starts from the same heap: the previous result is
        # dropped and collected first.
        ctx = files = None
        gc.collect()
        t0 = time.perf_counter()
        files, ctx = build()
        for name, data in files.items():
            (out_dir / name).write_bytes(data)
        times.append(time.perf_counter() - t0)
        d = hashlib.sha256(b"".join(files[k] for k in sorted(files))).hexdigest()
        if digest is not None and d != digest:
            raise RuntimeError("workload generation is not deterministic")
        digest = d
    return ctx, times


def _acceptance_instance(seed: int, d: Path):
    """The seeded acceptance-size instance, written to d/inst.pref, and
    its set-up times."""
    from popmatch import generate_random, serialize_instance

    import gen

    def build():
        inst = generate_random(*gen.ACCEPTANCE, seed)
        return {"inst.pref": serialize_instance(inst).encode()}, inst

    inst, times = _timed_setup(build, d)
    return inst, str(d / "inst.pref"), times


def _same_as_before() -> Callable[[str, bytes], None]:
    """A check that the output stored under a key never changes."""
    import checks

    seen: Dict[str, bytes] = {}

    def check(key: str, out: bytes) -> None:
        checks.require(seen.setdefault(key, out) == out, f"{key} output changed between runs")

    return check


def setup_acceptance_stable(seed: int, d: Path) -> Prepared:
    import checks

    inst, ipath, times = _acceptance_instance(seed, d)
    spath = d / "stable.txt"
    same_as_before = _same_as_before()

    def check_stable(out: bytes, rc: int) -> None:
        checks.check_exit(rc, 0)
        checks.check_stable(inst, checks.matching_from_text(inst, out.decode()))
        same_as_before("stable", out)
        if not spath.exists():
            spath.write_bytes(out)

    def check_verify(out: bytes, rc: int) -> None:
        matching = checks.matching_from_text(inst, spath.read_text())
        checks.check_verdict(inst, matching, out, rc, True)

    return Prepared(
        times,
        [
            Op("solve_stable", "solve_stable_s",
               ["solve", "--property", "stable", "-i", ipath], check_stable),
            Op("verify_stable", "verify_stable_s",
               ["verify", "--property", "stable", "-i", ipath, "-m", str(spath), "--json"],
               check_verify),
        ],
    )


def setup_acceptance_dominant(seed: int, d: Path) -> Prepared:
    from popmatch import run

    import checks

    inst, ipath, times = _acceptance_instance(seed, d)
    stable_size = len(run(inst))
    same_as_before = _same_as_before()
    popular_checked = []

    def check_dominant(key: str) -> Callable[[bytes, int], None]:
        def check(out: bytes, rc: int) -> None:
            checks.check_exit(rc, 0)
            matching = checks.matching_from_text(inst, out.decode())
            checks.require(len(matching) >= stable_size, "dominant matching smaller than the stable one")
            same_as_before(key, out)
            # Both algorithms must print identical bytes.
            same_as_before("dominant", out)
            if not popular_checked:
                # Every later output is byte-identical to this one, so one
                # popularity test covers them all.
                why = checks.popularity_violation(inst, matching)
                checks.require(why is None, f"dominant output is not popular: {why}")
                popular_checked.append(True)

        return check

    dom = ["solve", "--property", "dominant", "-i", ipath]
    return Prepared(
        times,
        [
            Op("solve_dominant", "solve_dominant_s", dom, check_dominant("level-graph")),
            Op("solve_dominant_two_level", "solve_dominant_two_level_s",
               dom + ["--algo", "two-level"], check_dominant("two-level")),
        ],
    )


def setup_acceptance_verify(seed: int, d: Path) -> Prepared:
    from popmatch import (
        dominant_two_level,
        generate_random,
        run,
        serialize_instance,
        serialize_matching,
    )

    import checks
    import gen

    def build():
        inst = generate_random(*gen.ACCEPTANCE, gen.ACCEPTANCE_SEED)
        stable = run(inst)
        dominant = dominant_two_level(inst)
        perturbed = gen.non_popular_swap(inst, stable, seed)
        files = {
            "inst.pref": serialize_instance(inst).encode(),
            "stable.txt": serialize_matching(stable).encode(),
            "dominant.txt": serialize_matching(dominant).encode(),
            "perturbed.txt": serialize_matching(perturbed).encode(),
        }
        return files, (inst, stable, dominant, perturbed)

    (inst, stable, dominant, perturbed), times = _timed_setup(build, d)
    ipath = str(d / "inst.pref")
    failures = []
    if checks.popularity_violation(inst, dominant) is not None:
        failures.append("the library's dominant matching is not popular")
    if checks.blocking_pair(inst, stable) is not None:
        failures.append("the library's stable matching is not stable")

    def verify(prop: str, name: str, matching, expected: bool):
        argv = ["verify", "--property", prop, "-i", ipath, "-m", str(d / name), "--json"]
        return argv, lambda out, rc: checks.check_verdict(inst, matching, out, rc, expected)

    # The stable matching is dominant only when no popular matching is larger.
    stable_is_dominant = len(stable) == len(dominant)
    # `verify --property popular` on the dominant matching is left out: it
    # repeats the full scan that `verify --property dominant` makes first,
    # and the two together take 25-55 s per round on a 2-vCPU machine.
    return Prepared(
        times,
        [
            Op("refute_dominant", "verify_refute_s",
               *verify("dominant", "stable.txt", stable, stable_is_dominant)),
            Op("verify_dominant", "verify_dominant_s",
               *verify("dominant", "dominant.txt", dominant, True)),
            Op("refute_popular", "verify_refute_s",
               *verify("popular", "perturbed.txt", perturbed, False)),
        ],
        setup_failures=failures,
    )


def setup_edge_queries(seed: int, d: Path) -> Prepared:
    from popmatch import dominant_two_level, generate_random, run, serialize_instance

    import gen
    import reference

    def build():
        inst = generate_random(*gen.EDGE_QUERIES, seed)
        stable = run(inst)
        dominant = dominant_two_level(inst)
        queries = gen.edge_queries(inst, stable, dominant, QUERIES_PER_CLASS, seed)
        files = {
            "inst.pref": serialize_instance(inst).encode(),
            "queries.json": json.dumps(queries).encode(),
        }
        return files, (inst, stable, dominant, queries)

    (inst, stable, dominant, queries), times = _timed_setup(build, d)
    popular = reference.popular_edges(inst)
    failures = []
    if not (stable.pairs <= popular and dominant.pairs <= popular):
        failures.append("the library's stable or dominant matching has a non-popular edge")
    return Prepared(
        times,
        queries={
            "inst": inst,
            "queries": queries,
            "expected": [tuple(e) in popular for _cls, e in queries],
            "instance_path": str(d / "inst.pref"),
            "queries_path": str(d / "queries.json"),
        },
        setup_failures=failures,
    )


def setup_blocks(seed: int, d: Path) -> Prepared:
    from popmatch import serialize_instance

    import checks
    import gen

    def build():
        scan, _ = gen.blocks(SCAN_BLOCKS, seed)
        small, blocks = gen.blocks(MIN_COST_BLOCKS, seed)
        costs = gen.block_costs(small, seed)
        files = {
            "scan.pref": serialize_instance(scan).encode(),
            "mincost.pref": serialize_instance(small).encode(),
            "costs.txt": gen.serialize_costs(costs).encode(),
        }
        return files, (small, costs, gen.block_min_cost(blocks, costs))

    (small, costs, expected_cost), times = _timed_setup(build, d)

    def check_scan(out: bytes, rc: int) -> None:
        checks.check_exit(rc, 0)
        checks.require(checks.parse_json(out) == {"all_stable": True}, "expected all stable")

    return Prepared(
        times,
        [
            Op("popular_vs_stable", "popular_vs_stable_s",
               ["popular-vs-stable", "-i", str(d / "scan.pref"), "--json"], check_scan),
            Op("min_cost_dominant", "min_cost_dominant_s",
               ["min-cost-dominant", "-i", str(d / "mincost.pref"),
                "--costs", str(d / "costs.txt"), "--json"],
               lambda out, rc: checks.check_min_cost(small, costs, out, rc, expected_cost)),
        ],
    )


SETUPS = {
    "acceptance-stable": setup_acceptance_stable,
    "acceptance-dominant": setup_acceptance_dominant,
    "acceptance-verify": setup_acceptance_verify,
    "edge-queries": setup_edge_queries,
    "blocks": setup_blocks,
}


# ------------------------------------------------------------ execution


class Runner:
    """Runs the program: CLI subprocesses and the query child through the
    launcher, or the CLI in-process."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: List[str]):
        """(exit code, stdout bytes, wall seconds, peak RSS in MB, the probe
        units recorded while the program ran)."""
        out_path = self.work / "stdout.bin"
        r = self._ask({"argv": argv, "stdout": str(out_path), "stderr": str(self.work / "stderr.txt")})
        return r["rc"], out_path.read_bytes(), r["seconds"], r["maxrss_kb"] / 1024, r["probe"]

    def _ask(self, request: dict) -> dict:
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def take_probe(self) -> List[List[float]]:
        """The probe units recorded since the previous call."""
        return self._ask({"probe": True})["probe"]

    def cli(self, args: List[str]):
        return self.spawn([sys.executable, "-m", "popmatch.cli"] + args)

    @staticmethod
    def in_process(args: List[str]):
        """(exit code, stdout bytes, wall seconds) of popmatch.cli.main."""
        import popmatch.cli

        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = popmatch.cli.main(args)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue().encode(), time.perf_counter() - t0


def measure_cli(runner: Runner, ops: List[Op], seconds: float, tally: Tally) -> None:
    import probe

    start = time.perf_counter()
    while True:
        for op in ops:
            rc, out, secs, rss, units = runner.cli(op.argv)
            tally.program_exited(rss)
            probe_s = [u for _end, u in units]
            tally.probe_s += probe_s
            tally.record(op.kind, secs, _run_check(op.check, out, rc), probe.factor(probe_s))
        if time.perf_counter() - start >= seconds:
            return


def check_queries(
    q: dict, records: List[list], witnesses: List[list], tally: Tally, units: List[list] = ()
) -> None:
    """Every answer must match the reference answer for its query, and
    every witness must be a popular matching containing the edge.  Each
    query time is scaled by the probe `units` that ended within
    QUERY_PROBE_MARGIN_S of the query."""
    import checks
    import probe

    tally.probe_s += [u for _end, u in units]
    inst = q["inst"]
    verdicts: Dict[int, Optional[str]] = {}

    def check_witness(wid: int) -> None:
        matching = checks.matching_from_pairs(inst, witnesses[wid])
        why = checks.popularity_violation(inst, matching)
        checks.require(why is None, f"witness is not popular: {why}")

    def witness_ok(wid: int) -> Optional[str]:
        if wid not in verdicts:
            verdicts[wid] = _run_check(check_witness, wid)
        return verdicts[wid]

    for idx, secs, wid, start in records:
        cls, edge = q["queries"][idx]
        expected = q["expected"][idx]
        if (wid is not None) != expected:
            error = f"answer {'yes' if wid is not None else 'no'} for {edge}, expected the opposite"
        elif wid is None:
            error = None
        elif [edge[0], edge[1]] not in witnesses[wid]:
            error = f"witness misses {edge}"
        else:
            error = witness_ok(wid)
        lo, hi = start - QUERY_PROBE_MARGIN_S, start + secs + QUERY_PROBE_MARGIN_S
        tally.record(cls, secs, error, probe.factor([u for end, u in units if lo <= end <= hi]))


def measure_queries(runner: Runner, q: dict, seconds: float, tally: Tally) -> None:
    out_path = runner.work / "queries_out.json"
    rc, _, _, rss, units = runner.spawn([
        sys.executable, str(HERE / "query_loop.py"),
        "--src", str(runner.root / "src"),
        "--instance", q["instance_path"], "--queries", q["queries_path"],
        "--seconds", str(seconds), "--min-count", str(MIN_QUERIES), "--out", str(out_path),
    ])
    tally.program_exited(rss)
    if rc != 0:
        tally.record("query_loop", None, f"exited {rc}")
        return
    data = json.loads(out_path.read_text())
    check_queries(q, data["records"], data["witnesses"], tally, units)


# --------------------------------------------------------------- metrics


def _nearest_rank(xs: List[float], pct: float) -> float:
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def named_metrics(prep: Prepared, tally: Tally):
    """Every end-to-end metric of the workload: name -> (value, unit, n).
    Each time is scaled by the probe units that ran beside it, or by all
    of the run's units where none did; each time metric is also reported
    as measured, under its name with `wall_` in front."""
    import probe

    out = {}
    run_factor = probe.factor(tally.probe_s)
    scaled = {
        k: [x * (f or run_factor) for x, f in zip(xs, tally.factors[k])]
        for k, xs in tally.samples.items()
    }
    setup_factor = probe.factor(prep.probe_s) or run_factor
    for prefix, samples, setup_scale in (("", scaled, setup_factor), ("wall_", tally.samples, 1.0)):
        if prep.queries is not None:
            all_q = [s for cls in ("stable", "dominant", "uniform") for s in samples.get(cls, [])]
            if all_q:
                n = len(all_q)
                out[prefix + "edge_query_p50_ms"] = (1000 * statistics.median(all_q), "ms", n)
                out[prefix + "edge_query_p90_ms"] = (1000 * _nearest_rank(all_q, 90), "ms", n)
                out[prefix + "edge_queries_per_s"] = (n / sum(all_q), "1/s", n)
        else:
            by_metric: Dict[str, List[float]] = {}
            for op in prep.ops:
                by_metric.setdefault(op.metric, []).extend(samples.get(op.kind, []))
            for name, xs in by_metric.items():
                if xs:
                    out[prefix + name] = (statistics.median(xs), "s", len(xs))
        kinds = [statistics.median(xs) for xs in samples.values()]
        if kinds:
            # One of each operation kind answered in turn, and the geometric
            # mean, in which a slowdown of a short operation weighs as much
            # as one of a long operation.
            n = min(len(xs) for xs in samples.values())
            out[prefix + "time_to_answer_s"] = (sum(kinds), "s", n)
            out[prefix + "op_geomean_s"] = (math.exp(sum(map(math.log, kinds)) / len(kinds)), "s", n)
        out[prefix + "setup_s"] = (
            setup_scale * statistics.median(prep.setup_s), "s", len(prep.setup_s))
    out["probe_unit_ms"] = (1000 * probe.REF_S / run_factor, "ms", len(tally.probe_s))
    out["peak_rss_mb"] = (tally.rss_mb, "MB", tally.processes)
    out["fail_ratio"] = (tally.failed / max(1, tally.attempted), "ratio", tally.attempted)
    return out


def layer_metrics(recorder, startup: List[float], untraced_s: float, traced_s: float):
    """Every per-layer metric: name -> (value, unit, n)."""
    import spans as sp

    t = sp.totals(recorder.spans)
    c = recorder.counters

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def self_(name):
        return t.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    swe = calls("gale_shapley.stable_with_edge")
    pe = calls("popular_edge.popular_edge")
    m = {
        "instance.parse_instance_s": (total("instance.parse_instance"), "s"),
        "instance.parse_matching_s": (total("instance.parse_matching"), "s"),
        "instance.edges": (c.get("instance.edges", 0), "count"),
        "cli.startup_s": (statistics.median(startup), "s"),
        "cli.self_s": (self_("cli.main"), "s"),
        "level_graph.build_level_graph_s": (total("level_graph.build_level_graph"), "s"),
        "level_graph.build_level_graph_calls": (calls("level_graph.build_level_graph"), "count"),
        "level_graph.gprime_edges": (c.get("level_graph.gprime_edges", 0), "count"),
        "level_graph.map_T_s": (total("level_graph.map_T"), "s"),
        "level_graph.dominant_two_level_s": (total("level_graph.dominant_two_level"), "s"),
        "gale_shapley.run_s": (total("gale_shapley.run"), "s"),
        "gale_shapley.run_calls": (calls("gale_shapley.run"), "count"),
        "gale_shapley.is_stable_s": (total("gale_shapley.is_stable"), "s"),
        "gale_shapley.is_stable_calls": (calls("gale_shapley.is_stable"), "count"),
        "gale_shapley.stable_with_edge_calls": (swe, "count"),
        "gale_shapley.stable_with_edge_hit_ratio": (
            ratio(c.get("gale_shapley.stable_with_edge_hits", 0), swe), "ratio"),
        "elections.label_edges_s": (total("elections.label_edges"), "s"),
        "elections.label_edges_calls": (calls("elections.label_edges"), "count"),
        "elections.pp_edges": (c.get("elections.pp_edges", 0), "count"),
        "verify.is_popular_self_s": (self_("verify.is_popular"), "s"),
        "verify.is_dominant_self_s": (self_("verify.is_dominant"), "s"),
        "verify.is_popular_calls": (calls("verify.is_popular"), "count"),
        "popular_edge.popular_edge_self_s": (self_("popular_edge.popular_edge"), "s"),
        "popular_edge.dominant_with_edge_calls": (calls("popular_edge.dominant_with_edge"), "count"),
        "popular_edge.yes_ratio": (ratio(c.get("popular_edge.yes", 0), pe), "ratio"),
        "unstable_popular.exists_unstable_popular_self_s": (
            self_("unstable_popular.exists_unstable_popular"), "s"),
        "unstable_popular.probe_runs": (
            sp.calls_under(recorder.spans, "gale_shapley.run",
                           "unstable_popular.exists_unstable_popular"), "count"),
        "min_cost.stable_matchings_s": (total("min_cost.stable_matchings"), "s"),
        "min_cost.stable_matchings_count": (c.get("min_cost.stable_matchings_count", 0), "count"),
        "min_cost.min_cost_dominant_self_s": (self_("min_cost.min_cost_dominant"), "s"),
        "trace.overhead_pct": (100 * (traced_s / untraced_s - 1) if untraced_s else 0.0, "%"),
    }
    return {k: (v, u, 1) for k, (v, u) in m.items()}


# ------------------------------------------------------------ traced run


def traced_run(runner: Runner, prep: Prepared, tally: Tally):
    """One round of the workload, each operation once untraced and once
    traced in-process, alternating which goes first; the traced output
    must be byte-identical to the untraced one."""
    import popmatch
    import spans as sp

    startup = []
    for _ in range(STARTUP_CALLS):
        rc, _, secs, _, _ = runner.cli(["--help"])
        if rc != 0:
            raise RuntimeError(f"popmatch --help exited {rc}")
        startup.append(secs)

    recorder = sp.Recorder()
    installed = sp.Installed(recorder, popmatch)
    elapsed = {False: 0.0, True: 0.0}

    def call(traced: bool, fn, *args):
        gc.collect()
        if traced:
            installed.apply()
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            elapsed[traced] += time.perf_counter() - t0
        finally:
            installed.remove()
        return result

    def both(k: int, fn, *args):
        """(untraced result, traced result), traced first on odd k."""
        first = bool(k % 2)
        a = call(first, fn, *args)
        b = call(not first, fn, *args)
        return (b, a) if first else (a, b)

    for k, op in enumerate(prep.ops):
        (rc_u, out_u, _), (rc_t, out_t, secs) = both(k, runner.in_process, op.argv)
        error = _run_check(op.check, out_t, rc_t)
        if error is None and (rc_t, out_t) != (rc_u, out_u):
            error = "traced output differs from the untraced output"
        tally.record(op.kind, secs, error)

    if prep.queries is not None:
        q = prep.queries
        text = Path(q["instance_path"]).read_text(encoding="utf-8")
        _, inst = both(0, lambda: popmatch.parse_instance(text))
        picked = []
        for cls in ("stable", "dominant", "uniform"):
            picked += [i for i, (c, _) in enumerate(q["queries"]) if c == cls][:TRACE_QUERIES_PER_CLASS]
        records, witnesses = [], []
        for k, i in enumerate(sorted(picked)):
            edge = tuple(q["queries"][i][1])
            before = elapsed[True]
            # Looked up at call time, so the traced call goes through the wrapper.
            want, got = both(k, lambda: popmatch.popular_edge(inst, edge))
            secs = elapsed[True] - before
            if got != want:
                tally.record(q["queries"][i][0], secs, "traced answer differs")
                continue
            wid = None
            if got is not None:
                wid = len(witnesses)
                witnesses.append([list(p) for p in got.sorted_pairs()])
            records.append([i, secs, wid, 0.0])
        check_queries(q, records, witnesses, tally)
    return recorder, layer_metrics(recorder, startup, elapsed[False], elapsed[True])


# ------------------------------------------------------------- reporting


def environment(root: Path) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def declared_metrics(trace: bool) -> Dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, runner: Runner, seed: int, seconds: float, trace: bool):
    d = runner.work / name
    d.mkdir(parents=True, exist_ok=True)
    runner.take_probe()
    prep = SETUPS[name](seed, d)
    prep.probe_s = [u for _end, u in runner.take_probe()]
    tally = Tally(probe_s=list(prep.probe_s))
    for message in prep.setup_failures:
        tally.record("setup", None, message)
    recorder = None
    if trace:
        recorder, metrics = traced_run(runner, prep, tally)
    else:
        if prep.ops:
            measure_cli(runner, prep.ops, seconds, tally)
        if prep.queries is not None:
            measure_queries(runner, prep.queries, seconds, tally)
        metrics = named_metrics(prep, tally)
    return metrics, tally, recorder


def run_workloads(names, runner: Runner, args) -> dict:
    """Run each workload, print its metrics, return the report entries."""
    results = {}
    for name in names:
        metrics, tally, recorder = run_workload(name, runner, args.seed, args.seconds, bool(args.trace))
        results[name] = {
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
            "spans": recorder.spans if recorder else None,
        }
        for k, (v, u, n) in metrics.items():
            print(f"{name}  {k} = {v:.6g} {u}  (n={n})")
        for msg in tally.failures:
            print(f"{name}  FAILED {msg}")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="popmatch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    # The benchmark, the program and the probe share one CPU, so that the
    # probe runs at the speed the program ran at.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = root / "src"
    if not (src / "popmatch" / "cli.py").is_file():
        print(f"error: no popmatch sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = root / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    # Started before any instance is built, so that the launcher stays small.
    runner = Runner(root, work)
    try:
        sys.path.insert(0, str(src))
        import popmatch

        if not Path(popmatch.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported popmatch from {popmatch.__file__}", file=sys.stderr)
            return 2
        env = environment(root)
        print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
        results = run_workloads(names, runner, args)
    finally:
        runner.close()
        shutil.rmtree(work)
    report = root / WORK_DIR / f"report-{'-'.join(names)}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"environment": env, "seed": args.seed, "workloads": results}))

    declared = declared_metrics(bool(args.trace))
    final = {}
    for mname, unit in declared.items():
        values = [r["metrics"][mname]["value"] for r in results.values() if mname in r["metrics"]]
        if len(values) != len(results):
            continue
        # For several workloads: times and counts add up, the rest take the maximum.
        value = sum(values) if unit in ("s", "ms", "count") else max(values)
        final[mname] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0 and len(final) == len(declared),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
