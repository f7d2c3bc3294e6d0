import csv
import json

import pytest

from lyubich_lab.cli import main, parse_test_function, ConfigError
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


def test_config_unknown_key_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mystery": 1}))
    assert main(["measure", "--config", str(config), "--map", "quad"]) == 2


def test_parse_test_function_forms():
    assert parse_test_function("one")(2.0) == 1.0
    assert parse_test_function("x2")(3.0) == pytest.approx(9.0)
    f = parse_test_function("poly:1,0,2,0;0,0,1,0")     # 2z + 1
    assert f(1j) == pytest.approx(1 + 2j)
    g = parse_test_function("absdist:1,0")
    assert g(1 + 1j) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_test_function("nope")
