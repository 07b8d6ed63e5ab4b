"""The benchmark tracer's patch list names callables the library still has.

perfbench/spans.py uses the standard library only, so it is loaded by path;
a dropped or renamed name would otherwise fail only when a traced benchmark
run installs its patches.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for where, attr, _name, _counter in spans.PATCHES:
        assert callable(getattr(spans._resolve(where), attr, None)), (where, attr)
