"""Run every workload over several seeds and summarise, as `BENCH_<label>.json`.

    python3 benchmarks/baseline.py --label 0 [--seeds 1 2 ...] [--traced-seeds 1 2]
                                   [--workloads sim-sparse ...] [--seconds S]

The workloads default to those BENCHMARK.json lists, the seconds to its
`run_seconds`.  Runs `run.py` once per (seed, workload), seeds in the outer loop so that
drift on the machine spreads over all workloads, then `--trace 1` for each
traced seed.  For every end-to-end metric it prints and stores the median,
the quartiles (`statistics.quantiles(n=4)`) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json; per-layer
metrics get the median over the traced runs.  When `BENCH_0.json` exists
and the label is another, each median is also given as a ratio to it.
The file goes to `benchmarks/results/`, with the run context, each
workload's argv per seed and the digest of each run's CSV.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

RESULTS = run.HERE / "results"


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = run.OUT / f"{name}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[1, 2])
    parser.add_argument("--workloads", nargs="+", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    base = None
    if args.label != "0" and run.BASELINE.exists():
        base = json.loads(run.BASELINE.read_text(encoding="utf-8"))["workloads"]

    records: dict[str, dict[int, list[dict]]] = {name: {0: [], 1: []} for name in args.workloads}
    for trace, seeds in ((0, args.seeds), (1, args.traced_seeds)):
        for seed in seeds:
            for name in args.workloads:
                rec = one_run(name, seed, seconds, trace)
                records[name][trace].append(rec)
                print(f"  {name} seed {seed} trace {trace}: failed {rec['failed']}/{rec['attempted']}, "
                      f"{rec['elapsed_s']:.1f} s", file=sys.stderr)

    out = {"label": args.label, "context": run.context(), "run_seconds": seconds,
           "seeds": args.seeds, "traced_seeds": args.traced_seeds, "workloads": {}}
    for name in args.workloads:
        plain, traced = records[name][0], records[name][1]
        every = plain + traced
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        entry = {
            "why": run.WORKLOADS[name].why,
            "argv": {str(r["seed"]): r["argv"] for r in every},
            "digests": {str(r["seed"]): r["digest"] for r in every},
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"\n{name}: error_rate {failed / attempted:g} ({failed}/{attempted} items)")
        for kind, recs in (("end_to_end", plain), ("per_layer", traced)):
            for metric in spec[kind]:
                key = metric["name"]
                values = [r["metrics"][key]["value"] for r in recs]
                if not values:
                    continue
                s = summary(values)
                entry[kind][key] = {"unit": metric["unit"], **s}
                line = f"  {key:36s} {s['median']:>14.6f} {metric['unit']:6s}"
                if kind == "end_to_end":
                    line += f" spread {s['spread']:.4f} (bound {metric['bound']})"
                if base is not None and key in base.get(name, {}).get(kind, {}):
                    ref = base[name][kind][key]["median"]
                    line += f"  x{s['median'] / ref:.3f} vs BENCH_0" if ref else ""
                print(line)
        out["workloads"][name] = entry
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
