"""Command line front end.

Subcommands:

    simulate   Monte Carlo frame decoding
    evolve     asymptotic iteration trajectory for a fixed load
    optimize   LP degree-distribution design at one load
    sweep      optimize across a load grid, with the rate upper bound
    gamma      per-degree resolution polynomials for a model
    plot       render a CSV produced by the commands above as an SVG

Every option can also come from a JSON config file (``--config``); explicit
command line flags win over file values.  Output is CSV on stdout or
``--out``, with ``# key=value`` metadata lines before the header.  Exit
codes: 0 success, 2 bad configuration or input, 3 optimization infeasible,
4 internal invariant failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Sequence

# Load OpenBLAS with one thread unless the caller chose a count.  Its
# default pool starts a worker per core when numpy loads, about 60 ms of a
# CLI spawn on a 2-vCPU machine whenever a worker shares a core with the
# main thread (`import numpy` 102-123 ms against 53-63 ms), and no command
# can use it: the largest BLAS calls, the LP's solves of at most 31x31 and
# products of about 200x31, are below OpenBLAS's own thresholds for
# threading.  Set here, before the first numpy import, so a library import
# such as `ncsa.frames` leaves BLAS threading alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .decoders import FrameInconsistencyError, RuleTable, batched_bp, ge_oracle, ordinary_bp
from .evolution import InvariantError, evolve, rate_upper_bound
from .frames import DegreeDistribution, SystemConfig, sample_frame
from .optimize import DESIGN_DEFAULTS, optimize, sweep
from .pnc import PncModel, gamma_closed_form, gamma_k_enum

# `simulate` shares one rule table across its trials until it holds this
# many shapes and rules, then starts a new one: small frames reuse almost
# every rule, while large frames add new shapes and keys in every trial
SHARED_RULES_LIMIT = 1 << 14


class ConfigError(ValueError):
    """Bad command line / config file input."""


# ---------------------------------------------------------------------------
# option merging and shared loaders


def _merged(args: argparse.Namespace) -> dict:
    """The subcommand's options: config-file values, overridden by the flags
    given.  The file may hold only option names of the subcommand, each with
    its option's JSON type (`_check_config_value`)."""
    flags = {key: val for key, val in vars(args).items() if key not in ("cmd", "func", "kinds", "config")}
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(flags))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, val in loaded.items():
            _check_config_value(key, val, args.kinds[key])
        cfg.update(loaded)
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    return cfg


def _option_kind(action: argparse.Action) -> str:
    """What a config file must give for an option: ``flag`` (a boolean),
    ``int`` (an integer, not a boolean), ``float`` (a number) or ``str``."""
    if action.nargs == 0:
        return "flag"
    return {int: "int", float: "float"}.get(action.type, "str")


def _check_config_value(key: str, val, kind: str) -> None:
    """Raise ConfigError unless a config-file value has the JSON type its
    option's `kind` asks for; `dist` may also be an object."""
    if kind == "flag":
        ok, want = isinstance(val, bool), "true or false"
    elif kind == "int":
        ok, want = isinstance(val, int) and not isinstance(val, bool), "an integer"
    elif kind == "float":
        ok, want = isinstance(val, (int, float)) and not isinstance(val, bool), "a number"
    elif key == "dist":
        ok, want = isinstance(val, (str, dict)), "a string or an object"
    else:
        ok, want = isinstance(val, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key} must be {want}, got {json.dumps(val)}")


def _load_model(cfg: dict) -> PncModel:
    if cfg.get("model") and cfg.get("cap"):
        raise ConfigError("give either --cap or --model, not both")
    if cfg.get("model"):
        try:
            return PncModel.from_file(cfg["model"])
        except OSError as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        except (json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"bad model file: {exc}") from exc
    return PncModel.example(int(cfg.get("cap", 10)))


def _model_label(cfg: dict, model: PncModel) -> str:
    """The model as the CSV metadata names it: the file, or the stock cap."""
    return cfg.get("model", f"stock cap={model.max_decodable}")


def _design(cfg: dict) -> dict:
    """`optimize`'s design keywords from the merged options, with its defaults."""
    return {
        "eps": float(cfg.get("eps", DESIGN_DEFAULTS["eps"])),
        "eta": float(cfg.get("eta", DESIGN_DEFAULTS["eta"])),
        "max_degree": int(cfg.get("max_degree", DESIGN_DEFAULTS["max_degree"])),
        "grid_points": int(cfg.get("grid", DESIGN_DEFAULTS["grid_points"])),
    }


def _load_dist(cfg: dict) -> DegreeDistribution:
    spec = cfg.get("dist")
    if spec is None:
        raise ConfigError("a degree distribution is required (--dist)")
    if isinstance(spec, dict):  # config-file form {"2": 0.5, ...}
        try:
            return DegreeDistribution({int(k): float(v) for k, v in spec.items()})
        except TypeError:  # e.g. a list as a probability
            raise ConfigError(f"config key dist must map degrees to numbers, got {json.dumps(spec)}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return DegreeDistribution.from_pairs(str(spec))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(dest: str | None, metadata: dict, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    for key, value in metadata.items():
        buf.write(f"# {key}={_fmt_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    text = buf.getvalue()
    if dest in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[dict[str, str]]]:
    """Read back a CSV written by this tool: (metadata, header, row dicts)."""
    metadata: dict[str, str] = {}
    data_lines: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if line.strip():
                data_lines.append(line)
    if not data_lines:
        raise ConfigError(f"{path}: no tabular data found")
    parsed = list(csv.reader(data_lines))
    header = parsed[0]
    rows = [dict(zip(header, row)) for row in parsed[1:]]
    return metadata, header, rows


def _poly_str(coeffs: Sequence[float]) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0 and j > 0:
            continue
        if j == 0:
            terms.append(f"{c:.12g}")
        elif j == 1:
            terms.append(f"{c:+.12g} x")
        else:
            terms.append(f"{c:+.12g} x^{j}")
    return " ".join(terms)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    model = _load_model(cfg)
    dist = _load_dist(cfg)
    if "users" not in cfg:
        raise ConfigError("--users is required")
    users = int(cfg["users"])
    if users < 1:
        raise ConfigError(f"--users must be positive, got {users}")
    if ("slots" in cfg) == ("rate" in cfg):
        raise ConfigError("give exactly one of --slots or --rate")
    if "slots" in cfg:
        slots = int(cfg["slots"])
        if slots < 1:
            raise ConfigError(f"--slots must be positive, got {slots}")
    else:
        rate = float(cfg["rate"])
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigError(f"--rate must be a positive finite number, got {rate!r}")
        # a design rate R maps to ceil(K / R) slots; an overflowing quotient
        # is clamped to a count that SystemConfig rejects
        slots = math.ceil(min(users / rate, sys.float_info.max))
    trials = int(cfg.get("trials", 1))
    if trials < 1:
        raise ConfigError("--trials must be positive")
    seed = int(cfg.get("seed", 0))
    which = str(cfg.get("decoder", "batched"))
    if which not in ("batched", "ordinary", "oracle", "all"):
        raise ConfigError("--decoder must be batched, ordinary, oracle or all")
    decoders = ("batched", "ordinary", "oracle") if which == "all" else (which,)
    max_iters = int(cfg.get("max_iters", 200))
    if max_iters < 1:
        raise ConfigError(f"--max-iters must be positive, got {max_iters}")
    omit_times = bool(cfg.get("omit_times", False))
    payload = int(cfg.get("payload_bytes", 32))
    config = SystemConfig(users=users, slots=slots, dist=dist, model=model, payload_len=payload, seed=seed)
    lam = config.offered_load
    # predicted before any frame is drawn, so a load the recursion rejects fails fast
    predicted = evolve(dist, lam, max_iters, model).z_star if "batched" in decoders else None

    rows = []
    fractions: dict[str, list[float]] = {name: [] for name in decoders}
    rules = RuleTable()  # release rules, shared by the trials and both peelers
    for trial in range(trials):
        if rules.size > SHARED_RULES_LIMIT:
            rules = RuleTable()
        frame = sample_frame(dataclasses.replace(config, seed=seed + trial))
        peel = None  # the batched row's report, which the oracle reuses
        for name in decoders:
            t0 = time.perf_counter()
            if name == "oracle":
                got = ge_oracle(frame, peeled=peel)
                elapsed = time.perf_counter() - t0
                frac = len(got) / users
                row = [trial, seed + trial, name, len(got), frac, None, None]
            else:
                if name == "batched":
                    report = peel = batched_bp(frame, max_iters=max_iters, rules=rules)
                else:
                    report = ordinary_bp(frame, max_iters=max_iters, rules=rules)
                elapsed = time.perf_counter() - t0
                frac = report.decoded_fraction
                row = [
                    trial, seed + trial, name, len(report.recovered), frac,
                    report.iterations, report.field_ops,
                ]
            row.append(0.0 if omit_times else elapsed)
            rows.append(row)
            fractions[name].append(frac)

    meta = {
        "schema": "ncsa-simulate-v5",
        "command": "simulate", "users": users, "slots": slots,
        "rate": users / slots, "lam": lam, "dist": dist.to_pairs(),
        "model": _model_label(cfg, model),
        "payload_bytes": payload, "trials": trials, "seed": seed,
        "max_iters": max_iters,
    }
    for name in decoders:
        arr = np.asarray(fractions[name])
        meta[f"mean_fraction_{name}"] = float(arr.mean())
        meta[f"std_fraction_{name}"] = float(arr.std())
    if predicted is not None:
        meta["predicted_fraction"] = predicted
    header = ["trial", "seed", "decoder", "recovered", "fraction", "iterations", "field_ops", "seconds"]
    _write_csv(cfg.get("out"), meta, header, rows)
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    model = _load_model(cfg)
    dist = _load_dist(cfg)
    if ("lam" in cfg) == ("rate" in cfg):
        raise ConfigError("give exactly one of --lam or --rate")
    lam = float(cfg["lam"]) if "lam" in cfg else float(cfg["rate"]) * dist.mean()
    iters = int(cfg.get("iters", 100))
    result = evolve(dist, lam, iters, model)
    rows = [[i, z, "edge"] for i, z in enumerate(result.trajectory, start=1)]
    rows.append([iters, result.z_star, "node"])
    meta = {
        "schema": "ncsa-evolve-v1",
        "command": "evolve", "lam": lam, "rate": lam / dist.mean(),
        "dist": dist.to_pairs(),
        "model": _model_label(cfg, model),
        "iters": iters, "converged": result.converged,
        "z_star": result.z_star,
    }
    _write_csv(cfg.get("out"), meta, ["iteration", "value", "kind"], rows)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    model = _load_model(cfg)
    if "lam" not in cfg:
        raise ConfigError("--lam is required")
    design = _design(cfg)
    result = optimize(float(cfg["lam"]), model, **design)
    meta = {
        "schema": "ncsa-optimize-v1",
        "command": "optimize", "lam": result.lam, **design,
        "model": _model_label(cfg, model),
        "feasible": result.feasible, "status": result.status,
        "lp_solves": result.lp_solves, "lp_pivots": result.lp_pivots,
    }
    if not result.feasible:
        _write_csv(cfg.get("out"), meta, ["degree", "node_prob", "edge_weight"], [])
        # the status names the cause: "infeasible: …", a pivot limit or an unbounded variable
        print(f"no design at lam={result.lam:g}: {result.status}", file=sys.stderr)
        return 3
    meta.update(
        rate=result.rate, rate_star=result.rate_star,
        upper_bound=rate_upper_bound(result.lam, model),
        certificate_ok=result.certificate_ok,
        grid_violations=len(result.violations),
    )
    if result.dist is None:
        raise InvariantError("a feasible optimum carries no distribution")
    edge = result.dist.edge_weights()
    rows = [
        [d, result.dist.prob(d), edge[d - 1]]
        for d in range(1, result.dist.max_degree + 1)
        if result.dist.prob(d) > 0
    ]
    _write_csv(cfg.get("out"), meta, ["degree", "node_prob", "edge_weight"], rows)
    return 0


def _parse_lam_grid(spec: str) -> list[float]:
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0 or stop < start:
                raise ValueError
            values = np.arange(start, stop + step / 2, step)
            return [float(v) for v in values]
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad load grid {spec!r}; use start:stop:step or v1,v2,...") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    model = _load_model(cfg)
    lams = _parse_lam_grid(str(cfg.get("lam_grid", "0.25:10:0.25")))
    design = _design(cfg)
    points = sweep(lams, model, **design)
    rows = [
        [p.lam, p.feasible, p.rate, p.rate_star, p.upper_bound, p.error or ""]
        for p in points
    ]
    designs = [p.result for p in points if p.result is not None]
    meta = {
        "schema": "ncsa-sweep-v1",
        "command": "sweep",
        "model": _model_label(cfg, model),
        **design, "points": len(points),
        "lp_solves": sum(r.lp_solves for r in designs),
        "lp_pivots": sum(r.lp_pivots for r in designs),
    }
    header = ["lam", "feasible", "rate", "rate_star", "upper_bound", "error"]
    _write_csv(cfg.get("out"), meta, header, rows)
    return 0


def cmd_gamma(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    model = _load_model(cfg)
    enum_limit = int(cfg.get("enum_limit", 6))
    step = float(cfg.get("grid_step", 0.05))
    if not 0 < step <= 0.5:
        raise ConfigError("--grid-step must lie in (0, 0.5]")
    xs = np.arange(0.0, 1.0 + step / 2, step)
    rows = []
    for d in range(1, model.max_decodable + 1):
        k = d - 1
        poly = model.gamma_poly(k)
        table_vals = poly(xs)
        closed_dev: float | None = None
        if model.is_example and d >= 2:
            closed_vals = np.array([gamma_closed_form(d, float(x)) for x in xs])
            closed_dev = float(np.max(np.abs(closed_vals - table_vals)))
        enum_dev: float | None = None
        if d <= enum_limit:
            enum_vals = np.array(gamma_k_enum(model, k, xs))
            enum_dev = float(np.max(np.abs(enum_vals - table_vals)))
        rows.append([d, model.family(d).size, _poly_str(poly.coeffs), closed_dev, enum_dev])
    meta = {
        "schema": "ncsa-gamma-v1",
        "command": "gamma",
        "model": _model_label(cfg, model),
        "enum_limit": enum_limit, "grid_step": step,
        "note": "closed_form_dev compares the compact algebraic form against the enumerated table",
    }
    header = ["degree", "family_size", "poly", "closed_form_dev", "enum_dev"]
    _write_csv(cfg.get("out"), meta, header, rows)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    # imported here, as no other command renders a chart
    from .svg import render_line_chart

    cfg = _merged(args)
    if "input" not in cfg:
        raise ConfigError("an input CSV is required")
    path = str(cfg["input"])
    try:
        _, header, rows = read_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    x_col = str(cfg.get("x", header[0]))
    if x_col not in header:
        raise ConfigError(f"column {x_col!r} not in {header}")
    if "y" in cfg:
        y_cols = [c.strip() for c in str(cfg["y"]).split(",") if c.strip()]
    else:
        y_cols = [c for c in header[1:] if c != x_col and _looks_numeric(rows, c)]
    if not y_cols:
        raise ConfigError("no numeric columns to plot")
    missing = [c for c in y_cols if c not in header]
    if missing:
        raise ConfigError(f"columns {missing} not in {header}")
    series: dict[str, list[tuple[float, float]]] = {}
    for col in y_cols:
        pts = []
        for row in rows:
            try:
                pts.append((float(row[x_col]), float(row[col])))
            except (KeyError, ValueError):
                continue
        if pts:
            series[col] = pts
    if not series:
        raise ConfigError("selected columns hold no numeric data")
    doc = render_line_chart(
        series,
        title=str(cfg.get("title", "")),
        x_label=x_col,
        y_label=y_cols[0] if len(y_cols) == 1 else "",
    )
    dest = str(cfg.get("out") or path.rsplit(".", 1)[0] + ".svg")
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(doc + "\n")
    print(f"wrote {dest}", file=sys.stderr)
    return 0


def _looks_numeric(rows: list[dict[str, str]], col: str) -> bool:
    seen = False
    for row in rows:
        val = row.get(col, "")
        if not val:
            continue
        try:
            float(val)
        except ValueError:
            return False
        seen = True
    return seen


# ---------------------------------------------------------------------------
# parser


def _build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The `ncsa` parser.  Every subcommand is listed, but only the one that
    `argv` names (its first argument that is not an option) gets its
    options, as a call runs one subcommand; with no `argv`, all do."""
    parser = argparse.ArgumentParser(prog="ncsa", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")

    def command(name: str, help: str, func) -> argparse.ArgumentParser | None:
        """Add subcommand `name`; its parser, or None when `argv` names another."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p if named in (None, name) else None

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with option values; flags override")
        p.add_argument("--out", help="output CSV path (default stdout)")

    def model_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=int, help="stock model: largest decodable degree (default 10)")
        p.add_argument("--model", help="JSON file describing a custom per-degree matrix model; "
                                         "a slot places each drawn member at a uniform row order")

    def design_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eps", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--max-degree", dest="max_degree", type=int)
        p.add_argument("--grid", type=int, help="constraint grid resolution")

    if p := command("simulate", "Monte Carlo frame decoding", cmd_simulate):
        p.add_argument("--users", type=int)
        p.add_argument("--slots", type=int)
        p.add_argument("--rate", type=float, help="users per slot; alternative to --slots")
        p.add_argument("--dist", help="degree distribution as d:p pairs, e.g. 2:0.5,3:0.5")
        p.add_argument("--payload-bytes", dest="payload_bytes", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--decoder", choices=["batched", "ordinary", "oracle", "all"])
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--omit-times", dest="omit_times", action="store_true", default=None,
                       help="write 0.0 in the seconds column for byte-reproducible output")
        model_opts(p)
        common(p)

    if p := command("evolve", "asymptotic iteration trajectory", cmd_evolve):
        p.add_argument("--dist")
        p.add_argument("--lam", type=float, help="decodable-load parameter")
        p.add_argument("--rate", type=float, help="users per slot; alternative to --lam")
        p.add_argument("--iters", type=int)
        model_opts(p)
        common(p)

    if p := command("optimize", "LP degree-distribution design", cmd_optimize):
        p.add_argument("--lam", type=float)
        design_opts(p)
        model_opts(p)
        common(p)

    if p := command("sweep", "optimize across a grid of loads", cmd_sweep):
        p.add_argument("--lam-grid", dest="lam_grid",
                       help="start:stop:step or comma list (default 0.25:10:0.25)")
        design_opts(p)
        model_opts(p)
        common(p)

    if p := command("gamma", "per-degree resolution polynomials", cmd_gamma):
        p.add_argument("--enum-limit", dest="enum_limit", type=int,
                       help="largest degree cross-checked by brute enumeration (default 6)")
        p.add_argument("--grid-step", dest="grid_step", type=float)
        model_opts(p)
        common(p)

    if p := command("plot", "render a result CSV as an SVG line chart", cmd_plot):
        p.add_argument("input", nargs="?", help="CSV produced by another subcommand")
        p.add_argument("--x", help="x column (default: first column)")
        p.add_argument("--y", help="comma separated y columns (default: numeric columns)")
        p.add_argument("--title")
        p.add_argument("--config", help="JSON file with option values; flags override")
        p.add_argument("--out", help="output SVG path (default: input with .svg)")

    for p in sub.choices.values():  # each option's config-file type, for `_merged`
        p.set_defaults(kinds={action.dest: _option_kind(action) for action in p._actions})
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, FrameInconsistencyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
