import argparse
import csv
import json

import numpy as np
import pytest

from lyubich_lab.cli import build_parser, main, parse_test_function, ConfigError
from lyubich_lab.preimage_solver import sampled_tree
from lyubich_lab.rational_map import builtin_map
from lyubich_lab.transfer_operator import apply_transfer


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_malformed_coefficients_exit_2(capsys):
    assert main(["tree", "--num", "bogus", "--den", "1,0"]) == 2


def test_missing_map_exit_2(capsys):
    assert main(["preimages", "--w", "1,0"]) == 2


def test_unknown_identity_exit_2(capsys):
    assert main(["verify", "nonsense", "--map", "quad"]) == 2


@pytest.mark.parametrize("identity", ["isometry", "covariance", "all"])
def test_verify_depth_0_exit_2(capsys, identity):
    # Each identity compares level m with level m - 1; at m = 0 there is
    # no level below, which once read level 0 in its place.
    assert main(["verify", identity, "--map", "quad", "--depth", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "depth m >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "covariance", "--map", "quad", "--depth", "3", "--trials", "0"],
    ["verify", "all", "--map", "quad", "--depth", "3", "--trials", "0"],
    ["verify", "representation", "--map", "quad", "--depth", "3", "--pairs", "0"],
])
def test_verify_without_trials_exit_2(capsys, argv):
    # With no trial a check has no residual: it once passed at 0.0, or
    # failed on the max of an empty sequence.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials >= 1 and pairs >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--map", "basilica", "--depth", "3", "--basis-count", "0"],
    ["verify", "all", "--map", "basilica", "--depth", "3", "--basis-count", "-3"],
    ["basis", "--map", "basilica", "--basis-count", "0"],
    ["basis", "--map", "basilica", "--count-cap", "0"],
    ["basis", "--map", "basilica", "--radius", "0.1", "--count-cap", "-3"],
])
def test_basis_count_below_one_exit_2(capsys, argv):
    # Such counts once ran as a count of 1, or failed as numerics (exit 3).
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and ">= 1, got" in captured.err


def test_basis_count_beyond_the_sample_exit_2(capsys):
    # A net of 32 centres covers 16 points at radius 0: no basis radius.
    argv = ["verify", "all", "--map", "basilica", "--depth", "3",
            "--sample-size", "16", "--basis-count", "32"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a basis of 32 elements needs a sample of more than 32 points; " \
           "this one has 16 points" in captured.err


def test_exceptional_root_exit_2(capsys):
    assert main(["tree", "--map", "quad", "--w", "0,0", "--depth", "2"]) == 2


def test_budget_exceeded_exit_3(capsys):
    assert main(["tree", "--map", "quad", "--w", "1,0", "--depth", "40"]) == 3


def test_preimages_command(capsys):
    code, data = _run_json(capsys, ["preimages", "--map", "quad", "--w", "4,0"])
    assert code == 0
    atoms = {tuple(a["point"]): a["mult"] for a in data["atoms"]}
    assert atoms == {(-2.0, 0.0): 1, (2.0, 0.0): 1}


def test_custom_map_semicolon_syntax(capsys):
    code, data = _run_json(capsys, [
        "preimages", "--num=-2,0;0,0;1,0", "--den", "1,0", "--w", "2,0"])
    assert code == 0
    assert len(data["atoms"]) == 2


def test_tree_csv_output(tmp_path, capsys):
    path = tmp_path / "tree.csv"
    code = main(["tree", "--map", "chebyshev", "--w", "2,0", "--depth", "3",
                 "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["level", "re", "im", "cumulative_mult", "parent_index"]
    assert sum(int(r[3]) for r in rows[1:] if r[0] == "3") == 8


def test_julia_csv_output(tmp_path, capsys):
    path = tmp_path / "julia.csv"
    code = main(["julia", "--map", "quad", "--size", "64", "--seed", "3",
                 "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["re", "im"]
    assert 2 <= len(rows) - 1 <= 64
    for r in rows[1:]:
        assert abs(abs(complex(float(r[0]), float(r[1]))) - 1) < 1e-6


def test_measure_command_values(capsys):
    code, data = _run_json(capsys, [
        "measure", "--map", "chebyshev", "--w", "2,0", "--depth", "12",
        "--f", "x2", "x4"])
    assert code == 0
    assert abs(data["integrals"]["x2"][0] - 2.0) < 0.05
    assert abs(data["integrals"]["x4"][0] - 6.0) < 0.3


def test_measure_csv(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    code = main(["measure", "--map", "quad", "--depth", "4", "--out", str(path),
                 "--json"])
    assert code == 0
    capsys.readouterr()
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["re", "im", "weight_num", "weight_depth"]
    assert sum(int(r[2]) for r in rows[1:]) == 16


def test_transfer_command(capsys):
    code, data = _run_json(capsys, [
        "transfer", "--map", "quad", "--w", "0.5,0.5", "--f", "one"])
    assert code == 0
    assert data["value"] == [1.0, 0.0]


def test_transfer_power_one_is_one_application(capsys):
    code, data = _run_json(capsys, [
        "transfer", "--map", "basilica", "--w", "0.3,-0.4", "--f", "abs2", "--power", "1"])
    assert code == 0
    want = apply_transfer(builtin_map("basilica"), parse_test_function("abs2"), 0.3 - 0.4j)
    assert abs(complex(*data["value"]) - want) <= 1e-14


def test_converge_command(capsys):
    code, data = _run_json(capsys, [
        "converge", "--map", "quad", "--roots", "1,0", "2,0",
        "--depths", "2", "4", "--f", "one", "rez2"])
    assert code == 0
    assert len(data["records"]) == 2 * 2 * 2


@pytest.mark.parametrize("argv", [
    ["transfer", "--map", "quad", "--w", "0.5,0.5"],
    ["converge", "--map", "quad", "--depths", "2"],
    ["preimages", "--map", "quad", "--w", "4,0"],
    ["verify", "isometry", "--map", "quad", "--depth", "2"],
], ids=lambda argv: argv[0])
def test_csv_out_without_a_csv_export_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "x.csv"
    assert main(argv + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert "tree, julia, measure" in captured.err


def test_csv_suffix_is_matched_without_case(tmp_path, capsys):
    argv = ["measure", "--map", "quad", "--depth", "2", "--out"]
    assert main(argv + [str(tmp_path / "m.csv")]) == 0
    assert main(argv + [str(tmp_path / "M.CSV")]) == 0
    assert capsys.readouterr().out == ""
    data = (tmp_path / "M.CSV").read_bytes()
    assert data.startswith(b"re,im,weight_num,weight_depth\r\n")
    assert data == (tmp_path / "m.csv").read_bytes()
    path = tmp_path / "x.CSV"
    assert main(["verify", "isometry", "--map", "quad", "--depth", "2",
                 "--out", str(path)]) == 2
    assert "has no CSV export" in capsys.readouterr().err and not path.exists()


def test_basis_command(tmp_path, capsys):
    path = tmp_path / "basis.json"
    code = main(["basis", "--map", "quad", "--size", "128", "--basis-count",
                 "8", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert len(data) >= 8
    assert {"center", "radius", "profile", "scale"} <= set(data[0])


def test_verify_single_identity(capsys):
    code, data = _run_json(capsys, [
        "verify", "isometry", "--map", "quad", "--depth", "5",
        "--trials", "5", "--sample-size", "64"])
    assert code == 0
    assert data["all_pass"]
    assert [r["identity"] for r in data["results"]] == ["isometry"]


def test_verify_all_exit_zero(capsys):
    code, data = _run_json(capsys, [
        "verify", "all", "--map", "quad", "--depth", "6", "--trials", "10",
        "--pairs", "5", "--basis-count", "8", "--sample-size", "96"])
    assert code == 0
    assert data["all_pass"]
    assert all(r["residual"] <= r["tolerance"] for r in data["results"])


def test_verify_deterministic_reports(tmp_path, capsys):
    argv = ["verify", "all", "--map", "quad", "--depth", "5", "--seed", "7",
            "--trials", "5", "--pairs", "3", "--basis-count", "8",
            "--sample-size", "64"]
    _, first = _run_json(capsys, argv)
    _, second = _run_json(capsys, argv)
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "map": "chebyshev", "w": [2, 0], "depth": 3, "f": ["one"]}))
    code, data = _run_json(capsys, [
        "measure", "--config", str(config), "--depth", "2"])
    assert code == 0
    assert data["m"] == 2                      # flag wins over config
    assert data["map"]["name"] == "chebyshev"


def test_an_abbreviated_flag_wins_over_the_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"map": "quad", "depth": 3}))
    _, data = _run_json(capsys, ["tree", "--config", str(config), "--dep", "1"])
    assert data["level_sizes"] == [1, 2]


def test_config_unknown_key_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mystery": 1}))
    assert main(["measure", "--config", str(config), "--map", "quad"]) == 2


@pytest.mark.parametrize("config, message", [
    ({"map": {"num": [[-1, 0], [0, 0], [1, 0]]}}, "both --num and --den"),
    ({"map": "basilica", "depth": "four"}, "argument --depth: invalid int value: 'four'"),
    ({"map": "basilica", "w": [0.5]}, "expected 're,im', got '0.5'"),
])
def test_malformed_config_exits_2_as_its_flag_would(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["tree", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        line for line in err.splitlines() if message in line]
    assert "Traceback" not in err


def test_config_takes_a_report_map_block_and_negative_items(tmp_path, capsys):
    _, report = _run_json(capsys, ["tree", "--map", "chebyshev", "--depth", "1"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"map": report["map"], "w": [-1.5, 0], "depth": 2,
                                  "json": True}))
    code, data = _run_json(capsys, ["tree", "--config", str(config)])
    assert code == 0
    assert data["map"]["num"] == report["map"]["num"] == [[-2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert data["w"] == [-1.5, 0.0]
    assert data["level_sizes"] == [1, 2, 4]


@pytest.mark.parametrize("argv, name", [
    (["tree", "--map", "quad", "--depth", "2"], "x.csv"),
    (["tree", "--map", "quad", "--depth", "2"], "x.json"),
    (["verify", "--map", "quad", "--depth", "3", "--trials", "2", "--pairs", "2",
      "--basis-count", "8", "--sample-size", "64"], "x.json"),
    (["basis", "--map", "quad", "--size", "64", "--basis-count", "8"], "x.json"),
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "missing" / name
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]


def test_a_repeated_poly_term_adds():
    # The spec is sum c * z^j * conj(z)^k: a repeated term once replaced
    # the one before it, so this read 2 where it is 3.
    repeated = parse_test_function("poly:0,0,1,0;1,1,0.5,0;0,0,2,0;1,1,0,-1")
    once = parse_test_function("poly:0,0,3,0;1,1,0.5,-1")
    assert repeated.batch.keys == once.batch.keys == ((0, 0), (1, 1))
    points = np.array([0.0, 0.3 - 0.2j, 2j, -1.5])
    assert repeated.evaluate(points).tobytes() == once.evaluate(points).tobytes()


def test_a_repeated_poly_term_adds_in_measure(capsys):
    code, report = _run_json(capsys, ["measure", "--map", "quad", "--w", "1,0", "--depth", "3",
                                      "--f", "poly:0,0,1,0;0,0,2,0"])
    assert code == 0
    assert report["integrals"] == {"poly:0,0,1,0;0,0,2,0": [3.0, 0.0]}


def test_parse_test_function_forms():
    assert parse_test_function("one")(2.0) == 1.0
    assert parse_test_function("x2")(3.0) == pytest.approx(9.0)
    f = parse_test_function("poly:1,0,2,0;0,0,1,0")     # 2z + 1
    assert f(1j) == pytest.approx(1 + 2j)
    assert f.batch.keys == ((1, 0), (0, 0)) and f.batch.coeffs.tolist() == [[2, 1]]
    g = parse_test_function("absdist:1,0")
    assert g(1 + 1j) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_test_function("nope")


class _ReadLog(argparse.Namespace):
    """A namespace that records the names of the values read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# Each command on both sides of every flag that is read only under
# another: --branches (tree, measure) and --radius or --basis-count (basis).
_TRACED = {
    "preimages": [["--map", "quad", "--w", "4,0", "--out", "x.json", "--json"]],
    "tree": [["--map", "quad", "--w", "1,0", "--depth", "3", "--budget", "64",
              "--out", "x.csv", "--json"],
             ["--num=0,0;0,0;1,0", "--den=1,0", "--depth", "3", "--branches", "1",
              "--seed", "3"]],
    "julia": [["--map", "quad", "--size", "16", "--seed", "1", "--out", "x.csv", "--json"]],
    "measure": [["--map", "quad", "--depth", "3", "--budget", "64", "--f", "x2"],
                ["--map", "quad", "--depth", "3", "--branches", "1", "--seed", "2",
                 "--out", "x.csv", "--json"]],
    "converge": [["--map", "quad", "--roots", "1,0", "--depths", "2", "3", "--f", "one",
                  "--out", "x.json", "--json"]],
    "transfer": [["--map", "quad", "--w", "0.5,0.5", "--f", "x2", "--power", "2",
                  "--out", "x.json", "--json"]],
    "basis": [["--map", "quad", "--size", "64", "--seed", "1", "--basis-count", "8",
               "--count-cap", "64", "--out", "x.json"],
              ["--map", "quad", "--size", "64", "--radius", "0.5"]],
    "verify": [["isometry", "--map", "quad", "--w", "1,0", "--depth", "3", "--seed", "1",
                "--trials", "2", "--pairs", "2", "--basis-count", "8", "--sample-size", "64",
                "--out", "x.json", "--json"]],
}


@pytest.mark.parametrize("command", sorted(_TRACED))
def test_every_flag_a_command_takes_is_read(tmp_path, monkeypatch, capsys, command):
    # main reads --config (and the command) itself; the handler reads the rest.
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    sub = parser._command_parsers[command]
    values = {action.dest for action in sub._actions
              if not isinstance(action, argparse._HelpAction)} - {"config"}
    defaults = vars(sub.parse_args([]))
    read = set()
    for argv in _TRACED[command]:
        args = parser.parse_args([command] + argv, namespace=_ReadLog(_reads=set()))
        args._reads.clear()
        assert parser._command_table[command](args) == 0
        given = {dest for dest in values if vars(args)[dest] != defaults[dest]}
        assert given <= args._reads, argv
        read |= args._reads
    capsys.readouterr()
    assert values <= read


# The (command, flag) pairs that commands once took and never read.
_REMOVED = [("preimages", "depth"), ("preimages", "seed"), ("preimages", "budget"),
            ("julia", "w"), ("julia", "depth"), ("julia", "budget"),
            ("converge", "w"), ("converge", "depth"), ("converge", "seed"),
            ("converge", "budget"),
            ("transfer", "depth"), ("transfer", "seed"), ("transfer", "budget"),
            ("basis", "w"), ("basis", "depth"), ("basis", "budget"), ("basis", "json"),
            ("verify", "budget")]
_VALUES = {"w": "1,0", "depth": "3", "seed": "1", "budget": "64", "json": True}


def _one_error_line(err):
    assert "Traceback" not in err
    return len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("command, key", _REMOVED, ids=[f"{c}-{k}" for c, k in _REMOVED])
def test_a_removed_flag_exits_2(tmp_path, capsys, command, key):
    value = _VALUES[key]
    flag = [f"--{key}"] + ([] if value is True else [value])
    assert main([command, "--map", "quad"] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"unrecognized arguments: --{key}" in captured.err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"map": "quad", key: value}))
    assert main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert f"unknown config key '{key}'" in captured.err


def test_tree_seed_needs_branches(tmp_path, capsys):
    for command in ("tree", "measure"):
        assert main([command, "--map", "quad", "--depth", "2", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --seed needs --branches: only a sampled tree is drawn at random"]
    rmap = builtin_map("basilica")
    for seed, flags in ((3, ["--seed", "3"]), (0, [])):
        path = tmp_path / f"tree{seed}.csv"
        assert main(["tree", "--map", "basilica", "--w", "0.5,0.25", "--depth", "6",
                     "--branches", "2", "--out", str(path)] + flags) == 0
        want = tmp_path / f"want{seed}.csv"
        sampled_tree(rmap, 0.5 + 0.25j, 6, 2, seed=seed).to_csv(want)
        assert path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--radius", "0.1", "--basis-count", "0"],
    ["--radius", "0.1", "--basis-count", "32"],
    ["--config", "{config}"],
], ids=["flags", "default-count", "config"])
def test_basis_takes_a_radius_or_a_count(tmp_path, capsys, argv):
    # --radius once ignored --basis-count: a count of 0 passed unseen.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"radius": 0.1, "basis_count": 8}))
    argv = [token.format(config=config) for token in argv]
    assert main(["basis", "--map", "basilica"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "argument --basis-count: not allowed with argument --radius" in captured.err


def test_converge_default_depths(capsys):
    # The default list once read --depth (default 8) after 4 and 8, so
    # depth 8 came twice, the second time with diff_prev_m 0.0.
    code, data = _run_json(capsys, ["converge", "--map", "quad", "--roots", "1,0", "2,0",
                                    "--f", "one", "x2"])
    assert code == 0
    assert data["depths"] == [4, 8]
    keys = [(r["f"], tuple(r["w"]), r["m"]) for r in data["records"]]
    assert len(keys) == len(set(keys)) == 2 * 2 * 2
