"""Tests of the benchmark's own logic: output checks, span accounting, names."""
import json
import re
from pathlib import Path

import checks
import run
import tracing

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def simulate_csv(counts: list[tuple[int, int, int]], users: int = 10, predicted: float = 1.0) -> str:
    lines = [f"# users={users}", f"# predicted_fraction={predicted!r}",
             "trial,seed,decoder,recovered,fraction,iterations,field_ops,seconds"]
    for trial, triple in enumerate(counts):  # (ordinary, batched, oracle)
        for name, n in zip(checks.DECODERS, triple):
            lines.append(f"{trial},{trial},{name},{n},{n / users!r},,,0.0")
    return "\n".join(lines) + "\n"


def test_simulate_check_fails_ordinary_above_batched():
    good = simulate_csv([(8, 9, 10), (10, 10, 10)])
    assert checks.simulate_failures(good, trials=2) == 0
    bad = simulate_csv([(8, 9, 10), (10, 9, 10)])  # trial 1: ordinary > batched
    assert checks.simulate_failures(bad, trials=2) == 3


def test_simulate_check_fails_unparsable_output_and_prediction_gap():
    assert checks.simulate_failures("", trials=2) == 6
    assert checks.simulate_failures(simulate_csv([(10, 10, 10)]), trials=2) == 6
    far = simulate_csv([(9, 9, 10)], predicted=1.0)  # batched mean 0.9
    assert checks.simulate_failures(far, trials=1, max_prediction_gap=0.02) == 1
    assert checks.simulate_failures(far, trials=1, max_prediction_gap=0.2) == 0


def test_sweep_check():
    header = "lam,feasible,rate,rate_star,upper_bound,error\n"
    ok = header + "0.25,true,0.1,0.1,0.2,\n10.0,false,,,nan,boom\n"
    assert checks.sweep_failures(ok, 2, frozenset({0.25})) == 0
    over = header + "0.25,true,0.3,0.3,0.2,\n10.0,false,,,nan,boom\n"
    assert checks.sweep_failures(over, 2, frozenset({0.25})) == 1
    regressed = header + "0.25,false,,,0.2,boom\n10.0,false,,,nan,boom\n"
    assert checks.sweep_failures(regressed, 2, frozenset({0.25})) == 1
    assert checks.sweep_failures(ok, 3, frozenset({0.25})) == 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_parent_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf(cost):
        clock.now += cost

    child = tracer.wrap("child", leaf)

    def body():
        clock.now += 1.0
        child(2.0)
        clock.now += 0.5
        child(3.0)

    tracer.wrap("parent", body)()
    stats = {(s["name"], s["parent"]): s for s in tracer.spans()}
    assert stats[("child", "parent")]["count"] == 2
    assert stats[("child", "parent")]["total_s"] == 5.0
    assert stats[("parent", None)]["total_s"] == 6.5
    assert stats[("parent", None)]["self_s"] == 6.5 - 5.0
    metrics = tracing.layer_metrics(tracer.spans(), tracer.counters, ["parent.self_s", "child.calls"])
    assert metrics == {"parent.self_s": 1.5, "child.calls": 2.0}


def test_hook_cost_is_not_charged_to_its_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def hook(counters, args, result):
        clock.now += 4.0
        counters["n"] += result

    tracer.wrap("work", lambda: 7, after=hook)()
    stats = {(s["name"], s["parent"]): s for s in tracer.spans()}
    assert stats[("work", None)]["self_s"] == 0.0
    assert stats[("trace.hook", "work")]["total_s"] == 4.0
    assert tracer.counters["n"] == 7


def test_metric_names_are_valid_and_produced():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    spans = {span for _, _, span in tracing.SITES} | {"cli.main"}
    for m in SPEC["per_layer"]:
        span, _, kind = m["name"].rpartition(".")
        assert (kind in ("self_s", "calls") and span in spans) or m["name"] in tracing.COUNTERS \
            or m["name"] == "trace.overhead_s", m["name"]
    for w in SPEC["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
