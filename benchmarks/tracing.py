"""In-memory span tracing for one traced `ncsa` CLI invocation.

`install` replaces the public functions of each `ncsa` module by timing
wrappers, patching the name where it is looked up: the global of the
importing module (``ncsa.cli.sample_frame``, ``ncsa.decoders.rcef``, ...)
or, for methods, the class attribute.  No file of the package changes.

Spans are aggregated per (name, parent span name) into a call count, total
time and self time, so a run with hundreds of thousands of GF(2) calls keeps
a few dozen records.  Self time is a span's duration minus the time its
direct child spans cover; spans nest strictly because the program is single
threaded, so the covered time is the sum of the children's durations.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module whose attribute is patched, attribute, span name).  A dotted
# attribute names a method on a class of that module.
SITES = (
    ("ncsa.cli", "sample_frame", "frames.sample_frame"),
    ("ncsa.cli", "batched_bp", "decoders.batched_bp"),
    ("ncsa.cli", "ordinary_bp", "decoders.ordinary_bp"),
    ("ncsa.cli", "ge_oracle", "decoders.ge_oracle"),
    ("ncsa.cli", "evolve", "evolution.evolve"),
    ("ncsa.cli", "rate_upper_bound", "evolution.rate_upper_bound"),
    ("ncsa.cli", "optimize", "optimize.optimize"),
    ("ncsa.cli", "sweep", "optimize.sweep"),
    ("ncsa.optimize", "optimize", "optimize.optimize"),
    ("ncsa.optimize", "rate_upper_bound", "evolution.rate_upper_bound"),
    ("ncsa.optimize", "PoissonMixture", "evolution.PoissonMixture"),
    ("ncsa.optimize", "linprog", "optimize.linprog"),
    ("ncsa.evolution", "PoissonMixture", "evolution.PoissonMixture"),
    ("ncsa.frames", "combine", "gf2.combine"),
    ("ncsa.decoders", "rcef", "gf2.rcef"),
    ("ncsa.decoders", "select_rows", "gf2.select_rows"),
    ("ncsa.pnc", "rank", "gf2.rank"),
    ("ncsa.pnc", "in_colspan", "gf2.in_colspan"),
    ("ncsa.pnc", "select_rows", "gf2.select_rows"),
    ("ncsa.pnc", "PncModel.family", "pnc.family"),
    ("ncsa.pnc", "PncModel.gamma_poly", "pnc.gamma_poly"),
    ("ncsa.pnc", "PncModel.expected_rank", "pnc.expected_rank"),
)

# Counters derived from return values; see `_hooks`.
COUNTERS = (
    "frames.batches",
    "frames.transmissions",
    "decoders.batched_bp.iterations",
    "decoders.batched_bp.field_ops",
    "decoders.ordinary_bp.iterations",
    "decoders.ordinary_bp.field_ops",
    "decoders.core_users",
    "decoders.peel_share",
    "pnc.family.members",
)


class Tracer:
    """Aggregating span recorder.  `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, time covered by children]
        self.stats: dict[tuple[str, str | None], list] = {}  # -> [count, total_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a `name` span per call; `after(counters, args, result)`
        runs in a child span `trace.hook` so its cost is not charged to `name`."""
        stack, clock, stats, counters = self.stack, self.clock, self.stats, self.counters
        hook = self.wrap("trace.hook", after) if after is not None else None

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            entry = [name, 0.0]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - entry[1]
            return result

        return traced

    def spans(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in self.stats.items()
        ]


def _hooks() -> dict:
    from ncsa.frames import slot_degree_histogram

    def frame_counts(counters, args, frame):
        hist = slot_degree_histogram(frame)
        counters["frames.batches"] += int(hist[1:].sum())
        counters["frames.transmissions"] += int(sum(d * int(n) for d, n in enumerate(hist)))

    def peel_counts(prefix):
        def hook(counters, args, report):
            counters[f"{prefix}.iterations"] += report.iterations
            counters[f"{prefix}.field_ops"] += report.field_ops
            if prefix == "decoders.batched_bp":
                counters["decoders.users"] += report.users
                counters["decoders.batched_recovered"] += len(report.recovered)
        return hook

    def oracle_counts(counters, args, recovered):
        counters["decoders.oracle_recovered"] += len(recovered)

    seen: set[int] = set()

    def family_members(counters, args, family):
        # count each family object once: later calls are cache hits
        if id(family) not in seen:
            seen.add(id(family))
            counters["pnc.family.members"] += len(getattr(family, "entries", ()))

    return {
        "frames.sample_frame": frame_counts,
        "decoders.batched_bp": peel_counts("decoders.batched_bp"),
        "decoders.ordinary_bp": peel_counts("decoders.ordinary_bp"),
        "decoders.ge_oracle": oracle_counts,
        "pnc.family": family_members,
    }


def install(tracer: Tracer) -> None:
    """Patch every site in SITES to record spans into `tracer`."""
    hooks = _hooks()
    for module_name, attr, span in SITES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(span, getattr(owner, leaf), hooks.get(span)))


def layer_metrics(spans: list[dict], counters: dict, names) -> dict[str, float]:
    """Value of each per-layer metric in `names` for one traced invocation.

    ``<span>.self_s`` and ``<span>.calls`` sum over every parent of that
    span; other names are counters.  A layer the workload never reaches
    reads 0.
    """
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = float(sum(s["self_s"] for s in spans if s["name"] == span))
        elif kind == "calls":
            out[name] = float(sum(s["count"] for s in spans if s["name"] == span))
        elif name == "decoders.core_users":
            out[name] = counters.get("decoders.users", 0.0) - counters.get("decoders.batched_recovered", 0.0)
        elif name == "decoders.peel_share":
            oracle = counters.get("decoders.oracle_recovered", 0.0)
            out[name] = counters.get("decoders.batched_recovered", 0.0) / oracle if oracle else 0.0
        else:
            out[name] = float(counters.get(name, 0.0))
    return out
