import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entspec
from entspec.cli import main, parse_model
from entspec.spectra import IID, MaxEnt, Mixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_model_forms(tmp_path):
    m = parse_model("iid:0.9,0.1")
    assert isinstance(m, IID)
    assert m.base.atoms == ((0.9, 1), (0.1, 1))
    m = parse_model("maxent:R=0.25")
    assert isinstance(m, MaxEnt) and m.rate == 0.25
    m = parse_model("mix:0.5*iid:0.9,0.1+0.5*maxent:R=0.3")
    assert isinstance(m, Mixture) and len(m.components) == 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "maxent", "rate": 0.4}))
    m = parse_model(f"file:{path}")
    assert isinstance(m, MaxEnt) and m.rate == 0.4


def test_parse_model_rejections():
    for bad in ("iid:", "maxent:0.3", "mix:iid:0.5,0.5", "spam:1", "mix:0.5*mix:1.0*iid:1.0+0.5*iid:1.0"):
        with pytest.raises(ValueError):
            parse_model(bad)


def test_schmidt_stdout(tmp_path, capsys):
    path = tmp_path / "amp.json"
    r = 1.0 / math.sqrt(2.0)
    path.write_text(json.dumps([[r, 0.0], [0.0, r]]))
    code, out, err = run_cli(capsys, "schmidt", str(path))
    assert code == 0
    atoms = json.loads(out)["atoms"]
    assert len(atoms) == 1 and atoms[0][1] == 2
    assert abs(atoms[0][0] - 0.5) < 1e-14
    assert err.startswith("entropy ")
    assert abs(float(err.split()[1]) - math.log(2.0)) < 1e-12


def test_schmidt_out_file_moves_entropy_line(tmp_path, capsys):
    path = tmp_path / "amp.json"
    path.write_text(json.dumps({"amplitudes": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}))
    dest = tmp_path / "spec.json"
    code, out, err = run_cli(capsys, "schmidt", str(path), "--out", str(dest), "--units", "bits")
    assert code == 0
    assert err == ""
    assert out == "entropy 0.0\n"
    assert json.loads(dest.read_text())["atoms"] == [[1.0, 1]]


def test_schmidt_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2 and "cannot read" in err
    missing = tmp_path / "missing.json"
    code, _, _ = run_cli(capsys, "schmidt", str(missing))
    assert code == 2
    path2 = tmp_path / "scalar.json"
    path2.write_text("3.0")
    code, _, err = run_cli(capsys, "schmidt", str(path2))
    assert code == 2 and "matrix" in err


def test_rates_csv_exact(capsys):
    code, out, err = run_cli(capsys, "rates", "maxent:R=0.2", "--n", "10", "--eps", "0.1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,epsilon,underline_H,overline_H"
    n, eps, lo, hi = lines[1].split(",")
    assert n == "10" and eps == "0.1"
    assert abs(float(lo) - math.log(8.0) / 10.0) < 1e-15  # rank ceil(e^2) = 8
    assert float(lo) == float(hi)


def test_rates_bits_units(capsys):
    _, out_nats, _ = run_cli(capsys, "rates", "maxent:R=0.2", "--n", "10", "--eps", "0.1")
    _, out_bits, _ = run_cli(capsys, "rates", "maxent:R=0.2", "--n", "10", "--eps", "0.1", "--units", "bits")
    lo_nats = float(out_nats.splitlines()[1].split(",")[2])
    lo_bits = float(out_bits.splitlines()[1].split(",")[2])
    assert abs(lo_bits - lo_nats / math.log(2.0)) < 1e-15
    assert abs(lo_bits - 0.3) < 1e-12  # log2(8)/10


def test_rates_grid_is_sorted_and_deduplicated(capsys):
    code, out, _ = run_cli(capsys, "rates", "iid:0.9,0.1", "--n", "4,2,4", "--eps", "0.2,0.1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("2", "0.1"), ("2", "0.2"), ("4", "0.1"), ("4", "0.2")]


def test_rates_json_format(tmp_path, capsys):
    dest = tmp_path / "rates.json"
    code, out, _ = run_cli(
        capsys, "rates", "iid:0.9,0.1", "--n", "3", "--eps", "0.25", "--format", "json", "--out", str(dest)
    )
    assert code == 0 and out == ""
    data = json.loads(dest.read_text())
    assert data["units"] == "nats"
    assert data["rows"][0]["n"] == 3
    # sorted keys, trailing newline
    text = dest.read_text()
    assert text.endswith("\n")
    assert text.index('"rows"') < text.index('"units"')


def test_rates_budget_truncates_with_code_3(capsys):
    code, out, err = run_cli(
        capsys,
        "rates", "iid:0.6,0.3,0.1",
        "--n", "2,100",
        "--eps", "0.1",
        "--budget-max-type-classes", "10",
    )
    assert code == 3
    assert "budget exceeded" in err
    lines = out.splitlines()
    assert lines[0] == "n,epsilon,underline_H,overline_H"
    assert len(lines) == 2  # the n=2 row survives, the n=100 row does not
    assert lines[1].startswith("2,")


def test_convert_csv_row(capsys):
    code, out, _ = run_cli(capsys, "convert", "iid:0.5,0.5", "iid:0.8,0.2", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,error,fidelity,nielsen_ok"
    n, err_v, fid, ok = lines[1].split(",")
    assert n == "1" and ok == "true"
    assert abs(float(err_v) - 0.44721359549995804) < 1e-15
    assert abs(float(fid) - math.sqrt(0.8)) < 1e-12


def test_convert_json_reports(capsys):
    code, out, _ = run_cli(capsys, "convert", "iid:0.5,0.5", "iid:0.5,0.5", "--n", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 1
    assert reports[0]["fidelity"] == 1.0
    assert reports[0]["nielsen_ok"] is True


def test_concentrate_json(capsys):
    code, out, _ = run_cli(
        capsys, "concentrate", "iid:0.9,0.1", "--rate", "0.2", "--n", "50,100", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["task"] == "concentration"
    errs = [row["error"] for row in data["series"]]
    assert errs[1] < errs[0]


def test_dilute_csv(capsys):
    code, out, _ = run_cli(capsys, "dilute", "maxent:R=0.6931471805599453", "--rate", str(math.log(2.0)), "--n", "10")
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "0.0"


def test_experiment_budget_is_fatal(capsys):
    code, out, err = run_cli(
        capsys,
        "concentrate", "iid:0.6,0.3,0.1",
        "--rate", "0.2",
        "--n", "100",
        "--budget-max-type-classes", "10",
    )
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


def test_greedy_fiber_budget_follows_type_class_flag(capsys):
    # each 10-atom spectrum fits the budget of 15; the 20 fibers of their
    # greedy map do not
    code, out, err = run_cli(
        capsys,
        "convert", "iid:0.5,0.3,0.2", "iid:0.5,0.3,0.2",
        "--n", "3",
        "--budget-max-type-classes", "15",
    )
    assert code == 3
    assert "max_greedy_fibers" in err
    assert out == "n,error,fidelity,nielsen_ok\n"
    code, out, err = run_cli(
        capsys,
        "concentrate", "iid:0.5,0.3,0.2",
        "--rate", "0.5",
        "--n", "3",
        "--budget-max-type-classes", "10",
    )
    assert code == 3
    assert "max_greedy_fibers" in err
    assert out == ""


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "np", "bd", "--trials", "20")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 7
    assert [s["suite"] for s in data["suites"]] == ["np", "bd"]
    assert all(s["ok"] for s in data["suites"])


def test_verify_all_expands_in_canonical_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--trials", "5")
    assert code == 0
    names = [s["suite"] for s in json.loads(out)["suites"]]
    assert names == ["np", "bdm", "bd", "continuity", "product", "monotonicity", "kh", "transfer", "greedy-vs-brute"]


def test_verify_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for dest in (a, b):
        code, _, _ = run_cli(capsys, "verify", "kh", "transfer", "--seed", "3", "--trials", "40", "--out", str(dest))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_rates_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for dest in (a, b):
        code, _, _ = run_cli(
            capsys, "rates", "mix:0.5*iid:0.9,0.1+0.5*maxent:R=0.6931471805599453",
            "--n", "50,100", "--eps", "0.1,0.25", "--out", str(dest)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_return_2(capsys):
    assert run_cli(capsys, "rates", "iid:0.9,0.1", "--n", "abc", "--eps", "0.1")[0] == 2
    assert run_cli(capsys, "rates", "iid:0.9,0.1", "--n", "5", "--eps", "2.0")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "rates", "nope:1", "--n", "5", "--eps", "0.1")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "verify", "--help")[0] == 0


@pytest.mark.parametrize("module", ["entspec", "entspec.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    argv = ["rates", "iid:0.9,0.1", "--n", "10", "--eps", "0.1"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    src = str(Path(entspec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ok = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env)
    assert (ok.returncode, ok.stdout) == (0, expected)
    # the removed --budget-brute-force-cap flag is now an unknown argument
    bad = subprocess.run(
        [sys.executable, "-m", module, *argv, "--budget-brute-force-cap", "5"], capture_output=True, env=env
    )
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert b"unrecognized arguments" in bad.stderr
