"""The benchmark's traced function names exist in the package.

`perfbench/spans.py` wraps each `module.function` in its `TRACED` table by
name, so a renamed or deleted function would only fail a traced benchmark
run. This loads that table (without writing bytecode next to it) and
checks every name here.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve_to_functions(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for qual in spans.TRACED:
        mod_name, fn_name = qual.split(".")
        module = importlib.import_module(f"qrewrite.{mod_name}")
        if not inspect.isfunction(getattr(module, fn_name, None)):
            missing.append(qual)
    assert spans.TRACED and missing == []
