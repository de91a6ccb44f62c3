"""The benchmark's span tracer rebinds module globals of the package by name.

perfbench/spans.py lists them in BOUNDARIES; a name deleted from the package
would break every traced benchmark run without failing a test here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_rebound_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"entspec.{module}.{attr}"
        for module, attr, *_ in spans.BOUNDARIES
        if not hasattr(importlib.import_module("entspec." + module), attr)
    ]
    assert spans.BOUNDARIES and missing == []
