"""Seeded fuzz of the model-file reader through the command line.

Model files of every kind (bare spectrum, iid, maxent, maxent_explicit,
nested mixture, explicit) start from valid values, and some of their fields
are replaced with values at or past the edges of what the reader accepts:
zero, negatives, subnormals, doubles near the top of the range, integers
beyond it, booleans, strings and null.  Each file runs through `rates` and
`concentrate`; every run must end in exit 0, 2 or 3, with no exception
escaping and no output on an input error.
"""

import json
import random

from entspec.cli import main

EDGE_VALUES = [0, -0.1, 5e-324, 2.0**-1070, 1e-300, 1e308, True, "0.5", None, 2.5, 10**400, 2**1070]
VALID_ATOMS = [[[0.5, 2]], [[0.9, 1], [0.1, 1]], [[0.6, 1], [0.3, 1], [0.1, 1]]]
KINDS = ["bare", "iid", "maxent", "maxent_explicit", "mixture", "explicit"]
MODELS = 400


def _value(rng, valid):
    return rng.choice(EDGE_VALUES) if rng.random() < 0.3 else valid


def _atoms(rng):
    atoms = [[_value(rng, p), _value(rng, m)] for p, m in rng.choice(VALID_ATOMS)]
    if rng.random() < 0.2:
        atoms.append([rng.choice(EDGE_VALUES), rng.choice(EDGE_VALUES)])
    return atoms


def _model(rng, depth=0):
    kind = rng.choice(KINDS if depth < 2 else KINDS[:4])
    if kind == "bare":
        return {"atoms": _atoms(rng)}
    if kind == "iid":
        return {"kind": "iid", "base": {"atoms": _atoms(rng)}}
    if kind == "maxent":
        return {"kind": "maxent", "rate": _value(rng, 0.3)}
    if kind == "maxent_explicit":
        return {"kind": "maxent_explicit", "ranks": [_value(rng, 4), _value(rng, 8)]}
    if kind == "mixture":
        return {"kind": "mixture", "components": [[_value(rng, 0.5), _model(rng, depth + 1)] for _ in range(2)]}
    return {"kind": "explicit", "spectra": [{"atoms": _atoms(rng)} for _ in range(rng.randint(1, 2))]}


def test_model_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(7)
    path = tmp_path / "model.json"
    codes = set()
    for _ in range(MODELS):
        text = json.dumps(_model(rng))
        path.write_text(text)
        for argv in (
            ["rates", f"file:{path}", "--n", "1,2", "--eps", "0.1"],
            ["concentrate", f"file:{path}", "--rate", "0.3", "--n", "2"],
        ):
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 2, 3), (text, argv, code)
            assert code != 2 or out == "", (text, argv, out)
            codes.add(code)
    assert codes == {0, 2, 3}
