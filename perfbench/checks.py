"""Output checks for one benchmark op.

`check(argv, code, stdout, recorded)` returns the problems found in what the
op printed; an empty list means the output is right.  An op that exits
non-zero has failed whether or not it printed anything, but only printed
output that breaks a check makes the run incorrect.

`recorded` maps the op's command line to the exit code and stdout SHA-256
that the seed commit produced (see expected.json).  When the seed commit
exited 0, the digest must match byte for byte: the CLI promises identical
output for identical arguments across versions unless a documented bug fix
changes it.  Ops that failed at the seed commit have no digest.
"""

from __future__ import annotations

import hashlib
import json
import math

RATES_HEADER = "n,epsilon,underline_H,overline_H"
CONVERT_HEADER = "n,error,fidelity,nielsen_ok"
# (trials, checks) of each suite under its default trial count
SUITES = {
    "np": (1000, 5000),
    "bdm": (1000, 1000),
    "bd": (1000, 2000),
    "continuity": (1000, 2000),
    "product": (1000, 2000),
    "monotonicity": (1000, 1000),
    "kh": (500, 1500),
    "transfer": (500, 1000),
    "greedy-vs-brute": (500, 1000),
}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def op_key(argv) -> str:
    return " ".join(argv)


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header.split(",")) for r in rows):
        raise ValueError("row with the wrong number of fields")
    return rows


def _check_rates(argv, code: int, stdout: str) -> list[str]:
    ns = sorted({int(t) for t in _flag(argv, "--n").split(",")})
    eps = sorted({float(t) for t in _flag(argv, "--eps").split(",")})
    want = [(n, e) for n in ns for e in eps]
    rows = [(int(n), float(e), float(lo), float(hi)) for n, e, lo, hi in _csv_rows(stdout, RATES_HEADER)]
    problems = []
    got = [(n, e) for n, e, _, _ in rows]
    # exit 3 truncates the grid on a budget overrun; the rows printed must
    # still be its prefix
    if got != want[: len(got)] or (code == 0 and len(got) != len(want)):
        problems.append(f"rows cover {got}, expected {want}")
    for n, e, lo, hi in rows:
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
            problems.append(f"n={n} eps={e}: need 0 <= underline_H {lo!r} <= overline_H {hi!r}")
    for prev, cur in zip(rows, rows[1:]):
        if prev[0] == cur[0] and (cur[2] < prev[2] or cur[3] > prev[3]):
            problems.append(f"n={cur[0]}: proxies not monotone in eps between {prev[1]} and {cur[1]}")
    return problems


def _check_conversion(argv, code: int, stdout: str) -> list[str]:
    ns = sorted({int(t) for t in _flag(argv, "--n").split(",")})
    rows = _csv_rows(stdout, CONVERT_HEADER)
    problems = []
    if [int(r[0]) for r in rows] != ns:
        problems.append(f"rows cover n={[r[0] for r in rows]}, expected {ns}")
    for n, err_s, fid_s, ok in rows:
        err, fid = float(err_s), float(fid_s)
        if ok != "true":
            problems.append(f"n={n}: nielsen_ok is {ok!r}")
        if not 0.0 <= fid <= 1.0:
            problems.append(f"n={n}: fidelity {fid!r} outside [0, 1]")
        elif abs(err - math.sqrt(1.0 - fid * fid)) > 1e-12:
            problems.append(f"n={n}: error {err!r} is not sqrt(1 - F^2) for F={fid!r}")
    return problems


def _check_verify(argv, code: int, stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems = []
    if report.get("seed") != int(_flag(argv, "--seed")):
        problems.append(f"report seed {report.get('seed')!r} differs from the requested one")
    suites = report.get("suites", [])
    if [s.get("suite") for s in suites] != list(SUITES):
        problems.append(f"suites {[s.get('suite') for s in suites]}, expected {list(SUITES)}")
    for s in suites:
        name = s.get("suite")
        if s.get("ok") is not True or s.get("violations"):
            problems.append(f"suite {name}: not ok, {len(s.get('violations') or [])} violations")
        if name in SUITES and (s.get("trials"), s.get("checks")) != SUITES[name]:
            problems.append(
                f"suite {name}: (trials, checks) = {(s.get('trials'), s.get('checks'))}, expected {SUITES[name]}"
            )
    return problems


_CHECKERS = {
    "rates": _check_rates,
    "concentrate": _check_conversion,
    "dilute": _check_conversion,
    "verify": _check_verify,
}


def check(argv, code: int, stdout: str, recorded: dict) -> list[str]:
    """Problems with what the op printed; [] when it is right."""
    if code != 0 and not stdout:
        return []
    try:
        problems = _CHECKERS[argv[0]](argv, code, stdout)
    except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    reference = recorded.get(op_key(argv))
    if code == 0 and reference is not None and reference["code"] == 0 and reference["sha256"] != digest(stdout):
        problems.append("stdout differs from the seed commit's")
    return problems
