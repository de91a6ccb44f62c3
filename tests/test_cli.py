import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import entspec
from entspec import cli
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


@pytest.mark.parametrize("text, field", [
    ('{"amplitudes": [[true, 0], [0, false]]}', "amplitude real part"),
    ('[["0.6", "0"], ["0", "0.8"]]', "amplitude real part"),
    ('[[[0.6, "0"], [0, 0]], [[0, 0], [0.8, 0]]]', "amplitude imaginary part"),
    ('[[0.6, [0, true]], [0, 0.8]]', "amplitude imaginary part"),
    ('[[NaN, 0], [0, 1]]', "amplitude matrix is not normalized"),
])
def test_schmidt_rejects_non_numeric_amplitudes(tmp_path, capsys, text, field):
    # the first four exited 0 and the NaN matrix failed inside the SVD
    path = tmp_path / "amp.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2 and out == ""
    assert field in err


def test_schmidt_overflowing_norm_is_only_the_named_error(tmp_path, capsys):
    # squaring 1e200 overflows; NumPy's RuntimeWarning used to reach stderr first
    path = tmp_path / "amp.json"
    path.write_text("[[1e200, 0], [0, 0]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "schmidt", str(path))
    assert (code, out) == (2, "")
    assert err == "error: amplitude matrix is not normalized: squared norm inf\n"


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


@pytest.mark.parametrize("eps, rows", [("-0", ["0.0"]), ("-0,0.1,0", ["0.0", "0.1"]), ("-0.0", ["0.0"])])
def test_rates_negative_zero_epsilon_reads_as_zero(eps, rows, capsys):
    code, out, _ = run_cli(capsys, "rates", "iid:0.6,0.4", "--n", "3", f"--eps={eps}")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == rows


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


def test_rates_underflow_exits_3_with_header(capsys):
    code, out, err = run_cli(capsys, "rates", "iid:0.9,0.1", "--n", "2000", "--eps", "0.1")
    assert code == 3
    assert "iid_underflow_mass" in err
    assert out == "n,epsilon,underline_H,overline_H\n"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "base,code,rows,err",
    [
        ("iid:1", 0, "1000000000,0.1,0.0,0.0\n", b""),
        # merges to one atom (0.2, 5), whose 10**9-th power underflows to 0.0
        ("iid:0.2,0.2,0.2,0.2,0.2", 3, "", b"iid_underflow_mass"),
    ],
)
def test_rates_one_atom_base_at_a_billion_copies(base, code, rows, err):
    # a one-atom base used to cost memory linear in n; the 1 GiB address-space
    # cap of the child process turns a regression into a MemoryError
    src = str(Path(entspec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "entspec", "rates", base, "--n", "1000000000", "--eps", "0.1"],
        capture_output=True, env=env, timeout=60, preexec_fn=_cap_address_space,
    )
    assert (done.returncode, done.stdout.decode()) == (code, "n,epsilon,underline_H,overline_H\n" + rows)
    assert err in done.stderr


def test_rates_maxent_rank_beyond_doubles_exits_3_with_header(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "maxent_explicit", "ranks": [10**400]}))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert code == 3
    assert "max_maxent_rank" in err
    assert out == "n,epsilon,underline_H,overline_H\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "iid:0.9,0.1", "--n", "5", "--eps", "0.1"],
        ["convert", "iid:0.5,0.5", "iid:0.8,0.2", "--n", "1"],
        ["concentrate", "iid:0.9,0.1", "--rate", "0.2", "--n", "5"],
        ["dilute", "iid:0.9,0.1", "--rate", "0.6", "--n", "5"],
    ],
)
def test_removed_expanded_dim_flag_is_a_usage_error(argv, capsys):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--budget-max-expanded-dim", "5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


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


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ("rates", "iid:0.9,0.1", "--n", "4", "--eps", "0.1"),
    ("convert", "iid:0.5,0.5", "iid:0.8,0.2", "--n", "1"),
    ("concentrate", "iid:0.9,0.1", "--rate", "0.2", "--n", "4"),
])
def test_non_positive_type_class_budget_is_a_usage_error(capsys, command, value):
    # a budget of 0 used to exit 3 ("need 1, limit 0") after rates printed a bare header
    code, out, err = run_cli(capsys, *command, "--budget-max-type-classes", value)
    assert (code, out) == (2, "")
    assert "--budget-max-type-classes: must be a positive integer" in err


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


def _cell(value) -> str:
    """A JSON value as the CSV writer prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else repr(value)


def _json_rows(command, data):
    if command == "rates":
        return data["rows"]
    if command == "convert":
        return [dict(r, error=r["trace_distance_upper"]) for r in data["reports"]]
    return data["series"]


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "mix:0.5*iid:0.7,0.3+0.5*maxent:R=0.2", "--n", "3,8", "--eps", "0,0.1,0.5", "--units", "bits"],
        ["convert", "iid:0.6,0.3,0.1", "maxent:R=0.4", "--n", "2,5"],
        ["concentrate", "iid:0.8,0.2", "--rate", "0.3", "--n", "4,9"],
        ["dilute", "iid:0.8,0.2", "--rate", "0.7", "--n", "4,9"],
    ],
)
def test_csv_cells_are_the_json_values(argv, capsys):
    code, csv_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    header, *lines = csv_out.splitlines()
    keys = header.split(",")
    rows = _json_rows(argv[0], json.loads(json_out))
    assert len(lines) == len(rows) >= 2
    for line, row in zip(lines, rows):
        assert line.split(",") == [_cell(row[k]) for k in keys]


def test_rates_json_budget_keeps_finished_rows(capsys):
    code, out, err = run_cli(capsys, "rates", "maxent:R=0.3", "--n", "10,2400", "--eps", "0.1", "--format", "json")
    assert code == 3
    assert "max_maxent_exponent" in err
    assert [r["n"] for r in json.loads(out)["rows"]] == [10]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_convert_budget_keeps_finished_rows(fmt, capsys):
    code, out, err = run_cli(capsys, "convert", "iid:0.6,0.4", "maxent:R=0.3", "--n", "10,2400", "--format", fmt)
    assert code == 3
    assert "iid_underflow_mass" in err
    if fmt == "csv":
        assert [line.split(",")[0] for line in out.splitlines()] == ["n", "10"]
    else:
        assert [r["n"] for r in json.loads(out)["reports"]] == [10]


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


# stdout SHA-256 recorded before the suites became one table; any change to
# an instance's draws, checks, margins or payloads changes these
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["--seed", "7", "--trials", "40"], "6d1ea6c1fc27e2d7f3ececf62c70854b35cd32f00803b93828ac024644d5bf5b"),
        (["--seed", "3", "--trials", "40", "--dim", "5"], "ca28a89d39469ee69ed83f2ffe3ad36743dfc4b787bba88981917192c1a7b779"),
    ],
)
def test_verify_all_matches_golden_digest(argv, sha256, capsys):
    code, out, _ = run_cli(capsys, "verify", "all", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


# stdout SHA-256 recorded with the histogram-based greedy kernel; the JSON
# reports list every fiber's target, assigned mass and count in codomain
# order, so any change to the greedy's assignments changes these
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["iid:0.6,0.3,0.1", "maxent:R=0.5", "--n", "20,30"],
            "d3d15b9d825ba28f889d5c3afe8578138a168c0fee33def749bad060208ae001",
        ),
        (
            ["maxent:R=1.2", "iid:0.6,0.3,0.1", "--n", "40"],
            "2bfa64f62ac28fb401fe3b3e63cae4de711d6028bfce7cc4839d585ea10746a6",
        ),
        (
            ["iid:0.5,0.3,0.2", "iid:0.4,0.4,0.2", "--n", "12"],
            "fe64a503956553efb4d395abaa2e25e44a3c631a416e052fee408a4964b36936",
        ),
    ],
)
def test_convert_json_matches_golden_digest(argv, sha256, capsys):
    code, out, _ = run_cli(capsys, "convert", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


# stdout SHA-256 recorded before the conversion reports stopped storing their
# error series and trace-distance bounds: the RateVerdict JSON of both
# experiments and the convert CSV, which read those values
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["concentrate", "iid:0.6,0.3,0.1", "--rate", "0.5", "--n", "20,30", "--format", "json"],
            "1ec187998e003d52ee612543efb7c59cd7b60771984bc0549d09fa2986178c3f",
        ),
        (
            ["dilute", "iid:0.6,0.3,0.1", "--rate", "1.2", "--n", "20,30", "--format", "json"],
            "6c4100c8060989c95e6f42a846f8da75f9fc35faa7849a4c605640cb36986dbc",
        ),
        (
            ["convert", "iid:0.5,0.3,0.2", "iid:0.4,0.4,0.2", "--n", "4,12"],
            "7c284b8f883a34df7a7fb3bc34c56698900afa5662183097ac9fb534a5429ace",
        ),
    ],
)
def test_conversion_outputs_match_golden_digest(argv, sha256, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_rates_on_merging_type_classes_matches_golden_digest(capsys):
    # stdout SHA-256 recorded before Spectrum.from_atoms summed in input order.
    # At n = 60, the 39,711 type classes of this base merge into 3,721 atoms,
    # so the printed proxies pin from_atoms' merge branch
    code, out, _ = run_cli(capsys, "rates", "iid:0.4,0.2,0.1,0.3", "--n", "40,60", "--eps", "0.01,0.1,0.25")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "0d161c60d5033b803171f4d5823b6eff2047aabcefadd9873a5f40f3417da54b"
    )


@pytest.mark.parametrize(
    "model, message",
    [
        ({"atoms": [[0.25, 2.5], [0.5, 1]]}, "multiplicity must be a positive integer, got 2.5"),
        ({"atoms": [[0.5, True], [0.5, 1]]}, "multiplicity must be a positive integer, got True"),
        ({"kind": "maxent_explicit", "ranks": [2.7, 4]}, "rank must be a positive integer, got 2.7"),
    ],
)
def test_model_file_non_integer_counts_are_usage_errors(model, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "model, message",
    [
        ({"atoms": [[True, 1]]}, "probability must be a real number, got True"),
        ({"kind": "mixture", "components": [[True, {"kind": "maxent", "rate": 0.1}]]}, "mixture weight must be a real number, got True"),
        ({"kind": "maxent", "rate": "0.5"}, "rate must be a real number, got '0.5'"),
    ],
)
def test_model_file_non_real_numbers_are_usage_errors(model, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "explicit", "spectra": [{"atoms": [[2**1070, 1]]}]}, "probability must lie in the double range"),
        ({"kind": "maxent", "rate": 2**1070}, "rate must lie in the double range"),
        (
            {"kind": "mixture", "components": [[10**400, {"kind": "maxent", "rate": 0.1}]]},
            "mixture weight must lie in the double range",
        ),
    ],
)
def test_model_file_integers_beyond_the_double_range_are_usage_errors(model, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert message in err


def test_model_file_multiplicity_beyond_the_double_range_is_a_usage_error(tmp_path, capsys):
    # its mass term p * m has no double value, so the mass check rejects it
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"atoms": [[0.5, 10**400]]}))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert "spectrum mass inf deviates from 1" in err


@pytest.mark.parametrize(
    "model, shown",
    [
        ({"kind": "iid"}, "'iid' model needs a 'base' key"),
        ({"kind": "maxent"}, "'maxent' model needs a 'rate' key"),
        ({"kind": "maxent_explicit"}, "'maxent_explicit' model needs a 'ranks' key"),
        ({"kind": "mixture"}, "'mixture' model needs a 'components' key"),
        ({"kind": "explicit"}, "'explicit' model needs a 'spectra' key"),
        ({"kind": "mixture", "components": [[0.5]]}, "mixture component [0.5] is not a [weight, model] pair"),
        ({"kind": "mixture", "components": {"ab": 1}}, "mixture component 'ab' is not a [weight, model] pair"),
    ],
)
def test_model_file_missing_field_is_named(model, shown, tmp_path, capsys):
    # these used to print a bare KeyError ("error: 'base'") or an unpacking error
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert err == f"error: {shown}\n"


def test_deeply_nested_model_file_is_a_usage_error(tmp_path, capsys):
    # written as a string: json.dump itself recurses once per level; this
    # file used to end in an uncaught RecursionError, exit 1
    text = '{"kind": "maxent", "rate": 0.1}'
    for _ in range(600):
        text = '{"kind": "mixture", "components": [[1.0, ' + text + ']]}'
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert err.startswith("error: model file nests too deeply: maximum recursion depth exceeded")


def test_model_file_integral_float_counts_are_accepted(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "maxent_explicit", "ranks": [4.0]}))
    code, out, _ = run_cli(capsys, "rates", f"file:{path}", "--n", "1", "--eps", "0.1")
    assert code == 0
    assert out.splitlines()[1] == f"1,0.1,{math.log(4.0)!r},{math.log(4.0)!r}"


def test_nan_mixture_weight_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "rates", "mix:nan*iid:0.5,0.5+1*maxent:R=0.1", "--n", "10", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert "mixture weights" in err


@pytest.mark.parametrize("command", ["concentrate", "dilute"])
def test_nan_rate_is_a_named_usage_error(command, capsys):
    code, out, err = run_cli(capsys, command, "iid:0.6,0.4", "--rate", "nan", "--n", "10")
    assert (code, out) == (2, "")
    assert "rate must be a number, got nan" in err


@pytest.mark.parametrize(
    "argv,shown",
    [
        (["concentrate", "iid:0.6,0.3,0.1", "--rate=inf", "--n", "10"], "inf"),
        (["concentrate", "iid:0.6,0.3,0.1", "--rate=-5", "--n", "10"], "-5.0"),
        (["dilute", "iid:0.6,0.3,0.1", "--rate=-inf", "--n", "10"], "-inf"),
        (["rates", "maxent:R=inf", "--n", "5", "--eps", "0.1"], "inf"),
        (["rates", "maxent:R=-1", "--n", "5", "--eps", "0.1"], "-1.0"),
        (["rates", "mix:0.5*iid:0.5,0.5+0.5*maxent:R=-0.5", "--n", "3", "--eps", "0.1"], "-0.5"),
    ],
)
def test_infinite_or_negative_rate_is_a_named_usage_error(argv, shown, capsys):
    # +inf used to exceed max_maxent_exponent (exit 3, rates after a CSV
    # header) and a negative rate used to run at rank 1 (exit 0)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"rate must be finite and nonnegative, got {shown}" in err


@pytest.mark.parametrize("rate", [-2.0, 1e999])
def test_infinite_or_negative_rate_in_a_model_file_is_a_usage_error(rate, tmp_path, capsys):
    path = tmp_path / "maxent.json"
    path.write_text(json.dumps({"kind": "maxent", "rate": rate}))
    code, out, err = run_cli(capsys, "rates", f"file:{path}", "--n", "3", "--eps", "0.1")
    assert (code, out) == (2, "")
    assert f"rate must be finite and nonnegative, got {rate!r}" in err


def test_finite_rate_beyond_the_exponent_budget_still_exits_3(capsys):
    code, out, err = run_cli(capsys, "concentrate", "iid:0.6,0.3,0.1", "--rate=100", "--n", "10")
    assert (code, out) == (3, "")
    assert "max_maxent_exponent" in err and "need 1000.0" in err


def test_verify_dim_bounds(capsys):
    # kh never samples a dimension; it is checked all the same
    for suite in ("np", "kh"):
        for dim in ("1", "0", "-3"):
            code, out, err = run_cli(capsys, "verify", suite, "--trials", "1", "--dim", dim)
            assert (code, out) == (2, "") and "--dim" in err
        code, out, err = run_cli(capsys, "verify", suite, "--trials", "1", "--dim", "65")
        assert (code, out) == (3, "") and "max_verify_dim" in err


def test_verify_rejects_zero_trials(capsys):
    code, out, err = run_cli(capsys, "verify", "np", "--trials", "0")
    assert (code, out) == (2, "") and "trials must be positive" in err


def test_verify_rejects_trials_beyond_the_seed_word(capsys):
    code, out, err = run_cli(capsys, "verify", "np", "--trials", "4294967297")
    assert (code, out) == (2, "") and "trials must be at most 4294967296" in err


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


@pytest.mark.parametrize(
    "model, n, eps, shown",
    [
        ("iid:0.9,0.1", "2000", "1.5", "1.5"),
        ("maxent:R=800", "1", "2", "2.0"),
        ("iid:0.6,0.3,0.1", "10", "1.5", "1.5"),
        ("iid:0.6,0.3,0.1", "10", "0.1,nan", "nan"),
        ("iid:0.6,0.3,0.1", "10", "inf", "inf"),
        ("iid:0.6,0.3,0.1", "10", "0.1,-inf", "-inf"),
        ("iid:0.6,0.3,0.1", "10", "-0.5,0.1", "-0.5"),
    ],
)
def test_out_of_range_epsilon_is_a_usage_error_before_generation(model, n, eps, shown, monkeypatch, capsys):
    # an invalid --eps used to surface only after the first spectrum was
    # generated, so a block length over budget turned it into exit 3
    def no_generation(*args, **kwargs):
        raise AssertionError("generated a spectrum before validating --eps")

    monkeypatch.setattr(cli, "generate", no_generation)
    code, out, err = run_cli(capsys, "rates", model, "--n", n, f"--eps={eps}")
    assert (code, out) == (2, "")
    assert f"epsilon must lie in [0, 1], got {shown}" in err


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
