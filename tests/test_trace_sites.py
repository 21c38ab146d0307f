"""The benchmark's trace hooks must find every name they patch.

`benchmarks/tracing.py` wraps functions by module attribute (for example
``ncsa.decoders.rcef``).  A refactor that drops or renames one of those
names breaks only a traced benchmark run, so it is checked here.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    for module_name, attr, _ in tracing.SITES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{attr} is missing"
        assert callable(owner), f"{module_name}.{attr} is not callable"
