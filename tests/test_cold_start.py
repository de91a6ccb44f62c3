"""The scalar layer starts without the dense one.

`rates`, `convert`, `concentrate` and `dilute` work on compressed spectra
and never load NumPy or `entspec.hermitian`; `schmidt` and `verify` load
them when they run.  `cli` and the package hold the few facts of the dense
layer they need at import as copies, checked here against the originals.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import entspec
from entspec import cli, hermitian

SRC = str(Path(entspec.__file__).resolve().parent.parent)

# each step, then the dense modules loaded so far; argv steps run cli.main
STEPS = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
steps = []
def record(step, code=None):
    steps.append([step, code, [m for m in ("numpy", "entspec.hermitian") if m in sys.modules]])
import entspec
record("import entspec")
import entspec.cli as cli
record("import entspec.cli")
cli.build_parser()
record("build_parser")
for op in sys.argv[3:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.replace("AMP", sys.argv[2]).split())
    record(op, code)
if not entspec.__file__.startswith(sys.argv[1]):
    sys.exit("entspec was imported from outside " + sys.argv[1])
print(json.dumps(steps))
"""

SCALAR_OPS = [
    "rates iid:0.6,0.3,0.1 --n 10 --eps 0.1",
    "convert iid:0.6,0.3,0.1 maxent:R=0.5 --n 5",
    "concentrate iid:0.6,0.3,0.1 --rate 0.5 --n 10",
    "dilute iid:0.6,0.3,0.1 --rate 1.2 --n 10",
]


def test_scalar_subcommands_load_no_dense_module(tmp_path):
    amp = tmp_path / "amp.json"
    amp.write_text(json.dumps([[0.6, 0.0], [0.0, 0.8]]))
    ops = [*SCALAR_OPS, "schmidt AMP", "verify kh --trials 2"]
    done = subprocess.run(
        [sys.executable, "-c", STEPS, SRC, str(amp), *ops], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        ["import entspec", None, []],
        ["import entspec.cli", None, []],
        ["build_parser", None, []],
        *([op, 0, []] for op in SCALAR_OPS),
        ["schmidt AMP", 0, ["numpy"]],
        ["verify kh --trials 2", 0, ["numpy", "entspec.hermitian"]],
    ]


def test_cli_copies_of_the_suite_table_match_hermitian():
    assert cli.SUITE_NAMES == tuple(hermitian.SUITES)
    assert cli.MAX_VERIFY_DIM == hermitian.MAX_VERIFY_DIM


# digests of the help texts before `cli` held its own copies (argparse of
# Python 3.11 at 80 columns)
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["--help"], "f9d9259bda5c306cf64beb8bc2ce1a6d1af2b42029869e8d40a8003d80dee1ff"),
        (["verify", "--help"], "730ecb1a845736d110db10485b6444d17958692aece38d89e7a47736419c256e"),
    ],
)
def test_help_text_is_unchanged(argv, sha256, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256


def test_every_public_name_resolves():
    for name in entspec.__all__:
        assert getattr(entspec, name) is not None, name
    assert set(entspec.__all__) <= set(dir(entspec))
    assert entspec.run_suite is hermitian.run_suite
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        entspec.nonesuch


def test_lazy_name_table_matches_the_hermitian_names_of_all():
    defined_in_hermitian = [
        name for name in entspec.__all__ if getattr(getattr(entspec, name), "__module__", None) == hermitian.__name__
    ]
    assert sorted(entspec._HERMITIAN) == sorted(defined_in_hermitian)
    for name in ("jordan", "trace_plus", "apply_tp"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(entspec, name)
