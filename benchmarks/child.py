"""One cold `ncsa` CLI call in a fresh interpreter, measured from inside.

    python3 benchmarks/child.py ROOT RESULT_JSON MODE [ARGV...]

MODE is `setup` (import `ncsa.cli` and stop), `plain` (call
`ncsa.cli.main(ARGV)`) or `traced` (the same call with every layer wrapped
by `tracing.install`).  The result file gets the CLOCK_MONOTONIC reading
taken once `ncsa.cli` is imported, so the parent can compute set-up time
from its own reading taken before the spawn, and the time of `probe` run
right after it.  Unless MODE is `setup` it also gets the exit code, wall
and CPU seconds of `main`, the peak RSS, and a second `probe` time.
"""
import time
import json
import os
import resource
import sys


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the median of three runs.

    It measures how fast this core runs Python at the moment, so that the
    parent can scale the call's times to the core's undisturbed speed.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(60000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
            table[i & 4095] = table.get(i & 4095, 0) ^ acc
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def main() -> int:
    root, result_path, mode, *argv = sys.argv[1:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import ncsa.cli

    ready = time.monotonic()
    if not os.path.abspath(ncsa.cli.__file__).startswith(src + os.sep):
        print(f"ncsa imported from {ncsa.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    out = {"ready": ready, "probe_before": probe()}
    if mode != "setup":
        call = ncsa.cli.main
        if mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            call = tracer.wrap("cli.main", call)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        out["rc"] = call(argv)
        out["wall_s"] = time.perf_counter() - wall0
        out["cpu_s"] = time.process_time() - cpu0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["probe_after"] = probe()
        if mode == "traced":
            out["spans"] = tracer.spans()
            out["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
