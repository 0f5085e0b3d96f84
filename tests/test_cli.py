import json

import pytest

from popmatch.cli import main
from conftest import CONTESTED_HUB_TEXT, SHARED_TOP_TEXT


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


def test_solve_dominant_both_algos(shared_top_file, capsys):
    for algo in ("level-graph", "two-level"):
        code, out, _ = run_cli(
            capsys, "solve", "--property", "dominant", "--algo", algo,
            "-i", shared_top_file,
        )
        assert code == 0
        assert out == "a1 b2\na2 b1\n"


def test_solve_json(shared_top_file, capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--property", "dominant", "--json", "-i", shared_top_file
    )
    assert code == 0
    assert json.loads(out) == {"matching": [["a1", "b2"], ["a2", "b1"]]}


def test_solve_rejects_algo_mismatch(shared_top_file, capsys):
    code, _, err = run_cli(
        capsys, "solve", "--property", "dominant", "--algo", "gs",
        "-i", shared_top_file,
    )
    assert code == 2 and "error:" in err


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
    for extra in ([], ["--cubic"]):
        code, out, _ = run_cli(
            capsys, "popular-vs-stable", "-i", shared_top_file, *extra
        )
        assert code == 1
        assert "blocking pair: a1 b1" in out
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


def test_enumerate_guard_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.pref"
    code, _, _ = run_cli(
        capsys, "gen", "--men", "7", "--women", "7", "--density", "1.0",
        "--seed", "0", "-o", str(path),
    )
    assert code == 0
    code, _, err = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(path))
    assert code == 2 and "error:" in err
    monkeypatch.setenv("POPMATCH_MAX_ENUM", "49")
    code, out, _ = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(path))
    assert code == 0 and out
    monkeypatch.setenv("POPMATCH_MAX_ENUM", "nope")
    code, _, err = run_cli(capsys, "enumerate", "--what", "matchings", "-i", str(path))
    assert code == 2 and "POPMATCH_MAX_ENUM" in err


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
