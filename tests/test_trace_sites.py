"""The benchmark's trace hooks must find every name they patch.

`benchmarks/tracing.py` wraps functions by module attribute (for example
``ncsa.decoders.rcef``).  A refactor that drops or renames one of those
names breaks only a traced benchmark run, so it is checked here.  A name
that still resolves but is no longer called through that module global
turns its per-layer metric into a silent 0, so the calls are checked too.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

# Sites patched although their module never calls them by that name:
# `frames` encodes outputs with one XOR-reduce and keeps `combine` only as
# the encoding reference (ROADMAP 1a is to retarget this site).
UNCALLED_SITES = {("ncsa.frames", "combine")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def called_names(module_name):
    """Names called as plain ``name(...)`` anywhere in a module's source."""
    source = Path(importlib.util.find_spec(module_name).origin).read_text(encoding="utf-8")
    return {
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_traced_site_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.SITES
    for module_name, attr, _ in tracing.SITES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{attr} is missing"
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_every_traced_module_global_is_called():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in load_tracing().SITES
        if "." not in attr
        and (module_name, attr) not in UNCALLED_SITES
        and attr not in called_names(module_name)
    ]
    assert not missing, f"traced but never called through the module global: {', '.join(missing)}"
    for module_name, attr in UNCALLED_SITES:
        assert attr not in called_names(module_name), f"{module_name}.{attr} is called now; drop its exception"
