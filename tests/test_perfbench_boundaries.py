"""The benchmark's span tracer rebinds module globals of the package by name.

perfbench/spans.py lists them in BOUNDARIES; a name deleted from the package
would break every traced benchmark run without failing a test here, and a
caller that stopped calling a rebound name would silently drop its spans.
"""

import contextlib
import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

from entspec import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_rebound_name_exists():
    spans = _spans()
    missing = [
        f"entspec.{module}.{attr}"
        for module, attr, *_ in spans.BOUNDARIES
        if not hasattr(importlib.import_module("entspec." + module), attr)
    ]
    assert spans.BOUNDARIES and missing == []


def test_every_layer_reaches_its_rebound_names():
    spans = _spans()
    ops = [
        "verify bd continuity monotonicity product kh transfer greedy-vs-brute --trials 3",
        "concentrate iid:0.6,0.3,0.1 --rate 0.5 --n 10",
        "rates iid:0.6,0.3,0.1 --n 10 --eps 0.1",
    ]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(op.split()) == 0, op
    calls = Counter(r["name"] for r in tracer.spans)
    suites = {name: calls.pop(name) for name in list(calls) if name.startswith("hermitian.suite.")}
    assert suites == {"hermitian.suite." + s: 1 for s in ops[0].split()[1:-2]}
    # one span per call across a rebound name: the tails of bd, continuity,
    # monotonicity and product, the certificates of kh, transfer and
    # greedy-vs-brute, the syntheses of greedy-vs-brute and concentrate.
    # Certificates: 4 per kh instance, 1 per greedy-vs-brute instance, and
    # 1 per distinct expanded size among the transfer instances, which step
    # in lockstep; seed 7's three draw sizes 26, 23 and 5, so 12 + 3 + 3
    assert calls == {
        "infospec.tails": 21,
        "majorize.certificates": 18,
        "randgen.synthesize_map": 4,
        "randgen.brute_force_optimal": 3,
        "majorize.majorizes": 2,
        "spectra.generate": 2,
        "infospec.entropy_proxies": 1,
        "convert.direct_convert": 1,
    }
