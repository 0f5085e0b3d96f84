"""Golden CLI transcripts: every subcommand's exit code, stdout and
stderr on a fixed set of inputs, run in-process through `cli.main` and
compared with the committed transcript.

The inputs are the three fixtures, `blocks_text(1..3)`,
`cyclic_text(2..5)`, 40 `ensemble_instance` seeds and copies of five of
them declared in a shuffled order, numbered by id all the same, so that
the id-order tie-breaks and certificates are pinned too.  Each command
runs in text and with --json.  The matchings `verify` reads are the
ones `solve` prints, a seeded random matching and three faulty files; a
faulty or any other changed output shows as the first command whose
record differs.

Regenerating the transcript is an output change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from popmatch import Instance, cli, parse_instance, serialize_instance
from conftest import (
    CONTESTED_HUB_TEXT, NESTED_FAN_TEXT, SHARED_TOP_TEXT, blocks_text, cyclic_text,
    ensemble_instance,
)

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")

# the instances `enumerate --what matchings|popular` runs on: its
# transcript grows with the number of matchings
SMALL = ("shared_top", "contested_hub", "nested_fan", "blocks1", "cyclic2", "cyclic3")


def instances():
    """(name, PREF v1 text) of every input instance."""
    texts = {
        "shared_top": SHARED_TOP_TEXT,
        "contested_hub": CONTESTED_HUB_TEXT,
        "nested_fan": NESTED_FAN_TEXT,
    }
    texts.update((f"blocks{k}", blocks_text(k)) for k in (1, 2, 3))
    texts.update((f"cyclic{n}", cyclic_text(n)) for n in (2, 3, 4, 5))
    texts.update(
        (f"ensemble{seed:02d}", serialize_instance(ensemble_instance(seed))) for seed in range(40)
    )
    rng = random.Random(26)
    for name in ("blocks3", "cyclic5", "ensemble14", "ensemble19", "ensemble24"):
        base = parse_instance(texts[name])
        men, women = rng.sample(base.men, len(base.men)), rng.sample(base.women, len(base.women))
        texts[f"shuffled_{name}"] = serialize_instance(Instance(men, women, base.pref))
    return texts.items()


def call(argv):
    """The record of one command: [the command line, exit code, stdout,
    stderr]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return [" ".join(argv), code, out.getvalue(), err.getvalue()]


def matching_files(name, inst, records, rng):
    """Write the matchings `verify` reads and return their file names:
    those `solve` printed, a random one and three faulty ones (a pair
    that is not an edge, a repeated vertex and a malformed line)."""
    solved = {}
    for cmd, _, out, _ in records:
        for prop in ("stable", "dominant"):
            if cmd == f"solve --property {prop} -i {name}.pref":
                solved[prop] = "" if out == "{}\n" else out
    used, pairs = set(), []
    for m in rng.sample(inst.men, len(inst.men)):
        free = [w for w in inst.pref[m] if w not in used]
        if free and rng.random() < 0.75:
            w = rng.choice(free)
            used.add(w)
            pairs.append(f"{m} {w}\n")
    non_edge = next(
        ((m, w) for m in inst.men for w in inst.women if not inst.has_edge(m, w)),
        inst.men[:2],
    )
    lines = solved["stable"].splitlines(keepends=True)
    files = {
        "stable": solved["stable"],
        "dominant": solved["dominant"],
        "random": "".join(pairs),
        "non_edge": "".join(lines) + "{} {}\n".format(*non_edge),
        "repeat": "".join(lines + lines[:1]),
        "malformed": "".join(lines) + f"{inst.men[0]}\n",
    }
    for kind, text in files.items():
        Path(f"{name}.{kind}").write_text(text, encoding="utf-8")
    return [f"{name}.{kind}" for kind in files]


def costs_text(inst, rng):
    """Seeded costs for every edge: integers, decimals and fractions."""
    lines = []
    for m in inst.men:
        for w in inst.pref[m]:
            cost = rng.choice(
                [str(rng.randint(0, 9)), f"{rng.randint(0, 99) / 10}",
                 f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"]
            )
            lines.append(f"{m} {w} {cost}\n")
    return "".join(lines)


def transcript():
    """The records of every command, run in a scratch directory."""
    records = []

    def both(*argv):
        for extra in ((), ("--json",)):
            records.append(call([*argv, *extra]))

    here = os.getcwd()
    env = os.environ.pop("POPMATCH_MAX_ENUM", None)
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            for name, text in instances():
                path = f"{name}.pref"
                Path(path).write_text(text, encoding="utf-8")
                inst = parse_instance(text)
                rng = random.Random(name)
                for prop in ("stable", "dominant"):
                    both("solve", "--property", prop, "-i", path)
                for mfile in matching_files(name, inst, records, rng):
                    for prop in ("stable", "popular", "dominant"):
                        both("verify", "--property", prop, "-i", path, "-m", mfile)
                for m in inst.men:
                    for w in inst.pref[m]:
                        both("popular-edge", "-i", path, "--edge", f"{m},{w}")
                both("popular-vs-stable", "-i", path)
                Path(f"{name}.costs").write_text(costs_text(inst, rng), encoding="utf-8")
                both("min-cost-dominant", "-i", path, "--costs", f"{name}.costs")
                whats = ["stable", "dominant", "popular-edges"]
                if name in SMALL:
                    whats += ["matchings", "popular"]
                for what in whats:
                    both("enumerate", "--what", what, "-i", path)
            both("gen", "--men", "3", "--women", "4", "--density", "0.5", "--seed", "1",
                 "-o", "gen.pref")
        finally:
            os.chdir(here)
            if env is not None:
                os.environ["POPMATCH_MAX_ENUM"] = env
    return records


def test_cli_matches_the_golden_transcript():
    want = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    got = transcript()
    for old, new in zip(want, got):
        assert new == old, f"first command that differs: popmatch {old[0]}"
    assert len(got) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (regenerates {GOLDEN.name})")
    lines = [json.dumps(rec) + "\n" for rec in transcript()]
    GOLDEN.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} commands written to {GOLDEN}")
