"""The package under the oldest Python that pyproject.toml declares.

The smoke script imports every public name, reads a fixture, an
instance with 40-entry lists and one declared in reverse from files in
small blocks, and runs the proposal engine at both levels, the verifiers on
the matchings it finds, written in small blocks and read into vertex
numbers, and the rotation poset of G'.  On the reversed declaration, whose numbers follow the ids and
not the declared order, it runs every id-order tie-break too: the
stability and dominance checks on matchings that fail them, `exists_unstable_popular`, `min_cost_dominant`, the
listing of G''s stable matchings and `popular_edges`.  Its output under
the floor Python must equal its output under this one.  The test skips
only where no Python of the floor's minor version starts.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import popmatch
from popmatch import (
    Instance, generate_random, is_dominant, is_stable, parse_instance, run, serialize_instance,
)
from conftest import NESTED_FAN_TEXT

ROOT = Path(__file__).resolve().parents[1]

SMOKE = """\
import os, sys, tempfile
from fractions import Fraction
import popmatch
from popmatch import (
    cli, exists_unstable_popular, is_dominant, is_popular, is_stable, min_cost_dominant,
    parse_instance, parse_matching, popular_edges, run, serialize_matching, stable_matchings,
)
from popmatch.rotations import rotation_poset

print(sys.version_info[:2] >= tuple(map(int, sys.argv[1].split("."))))
print([type(getattr(popmatch, name)).__name__ for name in popmatch.__all__])
cli._CHUNK = 7  # blocks shorter than most lines, each decoded to its last line end
popmatch.instance._BLOCK = 2  # matchings written two pairs a block
for text in sys.argv[2:]:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "inst.pref")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        inst = cli._load_instance(path)
    print(inst == parse_instance(text), inst, inst.back[: inst.first[1]][:5])
    for levels in (1, 2):
        found = run(inst, levels=levels)
        print(levels, found.sorted_pairs()[:5], sum(found.level.values()))
        read = parse_matching(serialize_matching(found), inst)
        print(is_popular(inst, read), is_dominant(inst, read))
    poset = rotation_poset(inst, 2)
    print(len(poset.preds), poset.partners(0)[:5], is_dominant(inst, run(inst, levels=2))[0])

def levelled(m):
    return m.sorted_pairs(), sorted(m.level.items())

# the last instance is declared in reverse: the id-order tie-breaks
print(is_stable(inst, run(inst, levels=2)), is_dominant(inst, run(inst)))
found = exists_unstable_popular(inst)
print(levelled(found[0]), found[1])
best, cost = min_cost_dominant(inst, dict.fromkeys(inst.edges, Fraction(1)))
print(levelled(best), cost)
print([levelled(m) for m in stable_matchings(inst, levels=2)])
print(sorted(popular_edges(inst)))
"""


def floor_version():
    text = (ROOT / "pyproject.toml").read_text()
    return re.search(r'requires-python\s*=\s*">=(\d+\.\d+)', text).group(1)


def floor_python(version):
    """The path of a Python of the given minor version that starts, or
    None: `pythonX.Y` on PATH, else through a pyenv shim with each pyenv
    version of that minor selected."""
    tries = [{}]
    if shutil.which("pyenv"):
        listed = subprocess.run(
            ["pyenv", "versions", "--bare"], capture_output=True, text=True
        ).stdout.split()
        tries += [{"PYENV_VERSION": v} for v in listed if v.startswith(version + ".")]
    probe = "import sys; print('.'.join(map(str, sys.version_info[:2])), sys.executable)"
    for env in tries:
        try:
            proc = subprocess.run(
                [f"python{version}", "-c", probe], env=dict(os.environ, **env),
                capture_output=True, text=True, timeout=30,
            )
        except OSError:
            return None
        got = proc.stdout.split()
        if proc.returncode == 0 and got and got[0] == version:
            return got[1]
    return None


def long_lists_text():
    # 40 men and 40 women, every list complete: man i ranks women from
    # b(i) on, and woman j ranks men from a(3j) on
    n = 40
    lines = [
        "men: " + " ".join(f"a{i}" for i in range(n)),
        "women: " + " ".join(f"b{j}" for j in range(n)),
    ]
    lines += [f"a{i}: " + " ".join(f"b{(i + k) % n}" for k in range(n)) for i in range(n)]
    lines += [f"b{j}: " + " ".join(f"a{(3 * j + k) % n}" for k in range(n)) for j in range(n)]
    return "\n".join(lines) + "\n"


def test_smoke_runs_under_the_declared_floor():
    version = floor_version()
    python = floor_python(version)
    if python is None:
        pytest.skip(f"no Python {version} starts here")
    src = str(Path(popmatch.__file__).resolve().parents[1])
    base = generate_random(13, 12, 0.3, 0)
    reversed_text = serialize_instance(Instance(base.men[::-1], base.women[::-1], base.pref))
    inst = parse_instance(reversed_text)  # whose matchings fail the checks the smoke runs
    assert not is_stable(inst, run(inst, levels=2))[0] and not is_dominant(inst, run(inst))[0]
    argv = ["-c", SMOKE, version, NESTED_FAN_TEXT, long_lists_text(), reversed_text]
    outputs = {}
    for exe in (python, sys.executable):
        proc = subprocess.run(
            [exe, *argv], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), (exe, proc.stderr)
        outputs[exe] = proc.stdout
    assert outputs[python].startswith("True\n")
    assert outputs[python] == outputs[sys.executable]
