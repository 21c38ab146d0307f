import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ncsa
import ncsa.optimize as optimize_module
from ncsa.cli import _build_parser, main, read_csv
from ncsa.frames import DegreeDistribution, sample_frame
from ncsa.pnc import PncModel, family_size
from ncsa.svg import render_line_chart


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out


def test_simulate_reproducible_bytes(tmp_path):
    args = [
        "simulate", "--users", "40", "--slots", "30", "--dist", "2:0.5,3:0.5",
        "--cap", "4", "--trials", "3", "--seed", "7", "--payload-bytes", "4",
        "--omit-times",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta, header, rows = read_csv(str(a))
    assert meta["schema"] == "ncsa-simulate-v5"
    assert len(rows) == 3
    assert all(row["seconds"] == "0.0" for row in rows)
    assert "predicted_fraction" in meta


# Within its cap, the size-2 family mixes one- and two-column members, and
# the size-3 family has a member that only batched BP can use (the sum of its
# columns isolates the last row) and one that decodes nothing.
SIMULATE_TEST_MODEL = {
    "max_decodable": 3,
    "families": {
        "1": [{"matrix": [[1]], "prob": 1.0}],
        "2": [
            {"matrix": [[1], [1]], "prob": 0.4},
            {"matrix": [[1, 0], [0, 1]], "prob": 0.35},
            {"matrix": [[1, 0], [1, 1]], "prob": 0.25},
        ],
        "3": [
            {"matrix": [[1], [1], [1]], "prob": 0.3},
            {"matrix": [[1, 1], [1, 1], [0, 1]], "prob": 0.4},
            {"matrix": [[1, 0], [1, 0], [0, 1]], "prob": 0.2},
            {"matrix": [[], [], []], "prob": 0.1},
        ],
    },
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (   # the `small-frames` benchmark call, 50 trials
            ["--users", "50", "--slots", "60", "--dist", "1:0.15,2:0.35,3:0.3,4:0.2", "--cap", "5",
             "--payload-bytes", "2", "--trials", "50"],
            "e91fb56b09321d004708b806445d0298e8da8432fef126b4137a2230165d60b3",
        ),
        (   # peeling recovers every user
            ["--users", "2000", "--rate", "0.5", "--dist", "3:1", "--cap", "10", "--trials", "2"],
            "81bc8983575ede42e88a87422ff151fbc16895164baaa1f540738e9b19025e8e",
        ),
        (   # past the peeling threshold: the oracle eliminates a non-empty core
            ["--users", "1000", "--rate", "1.75", "--dist", "3:1", "--cap", "10", "--trials", "2"],
            "f022db10790dded5fe01f8120c1256690405f7503a105a537d79cb64fa3cccf9",
        ),
        (   # the custom model of SIMULATE_TEST_MODEL
            ["--users", "300", "--rate", "1.0", "--dist", "2:0.3,3:0.7", "--model", "model.json",
             "--payload-bytes", "4", "--trials", "3"],
            "17844258db832546ac94187915f26f95565c5a5c87f9db0c36b60573c72e35be",
        ),
    ],
    ids=["small-frames", "peeled", "core", "custom"],
)
def test_simulate_output_is_pinned(tmp_path, monkeypatch, argv, digest):
    """SHA-256 of `simulate --decoder all --omit-times` without its
    `# schema=` line, which covers frame sampling, both peelers with their
    field_ops and the oracle.  The schema line is checked on its own, so a
    schema bump moves only the digests whose output moved.  The custom
    model is passed by a relative path, so that its `# model=` line does not
    depend on the directory.

    A change that alters this output on purpose updates these digests and
    says so, with the old and new output, in CHANGES.md.
    """
    monkeypatch.chdir(tmp_path)
    Path("model.json").write_text(json.dumps(SIMULATE_TEST_MODEL))
    code, out = run(tmp_path, "simulate", *argv, "--decoder", "all", "--omit-times")
    assert code == 0
    lines = out.read_bytes().splitlines(keepends=True)
    assert [line for line in lines if line.startswith(b"# schema=")] == [b"# schema=ncsa-simulate-v5\n"]
    rest = b"".join(line for line in lines if not line.startswith(b"# schema="))
    assert hashlib.sha256(rest).hexdigest() == digest


GAMMA_TEST_MODEL = {
    "max_decodable": 2,
    "families": {
        "1": [{"matrix": [[1]], "prob": 1.0}],
        "2": [
            {"matrix": [[1, 0], [0, 1]], "prob": 0.5},
            {"matrix": [[1], [1]], "prob": 0.5},
        ],
    },
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["evolve", "--dist", "3:1", "--lam", "1.5", "--iters", "100", "--cap", "10"],
            "52394ee149b0bb58fd8ada579861ae57351535624051576af5444714d1c03242",
        ),
        (["gamma", "--cap", "8"], "0584e0bb1fb896d23dac0a4cb9adb63a616908dc7189863f89d715f3705d7f1e"),
        (["gamma", "--model", "model.json"], "baf8ef80c2e1dec6d556941944bbfd8adcb31fbe477b5bbb94501023c037cf6c"),
        (
            ["evolve", "--dist", "3:1", "--lam", "1.2", "--model", "model.json"],
            "f942934d57734d837a2814e5a7bcc6f1946c1ba43ace0db4212f559b2c3068de",
        ),
        (
            ["optimize", "--lam", "1.0", "--cap", "10"],
            "0d810d373da73ab1179a97178351e33f53dd3f261f874ab45d681079ca76b20b",
        ),
        (["sweep", "--cap", "10"], "1377677cde1eaa3647558ce43483a823de819e8b802bd02ac5a8dfbc357ac528"),
    ],
    ids=["evolve-stock", "gamma-stock", "gamma-custom", "evolve-custom", "optimize-stock", "sweep-stock"],
)
def test_analysis_output_is_pinned(tmp_path, monkeypatch, argv, digest):
    """SHA-256 of the analysis outputs: the recursion, the gamma tables and
    the mean ranks, for the stock model and for the two-member custom model
    of `test_gamma_custom_model`, passed by a relative path so that its
    `# model=` line does not depend on the directory; and the LP design of
    one load and of the default load grid, with its refinement rounds.

    A change that alters this output on purpose updates these digests and
    says so, with the old and new output, in CHANGES.md.
    """
    monkeypatch.chdir(tmp_path)
    Path("model.json").write_text(json.dumps(GAMMA_TEST_MODEL))
    code, out = run(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_rejects_a_load_before_drawing_a_frame(tmp_path, monkeypatch, capsys):
    # 800 users in one slot is a load the recursion rejects
    drawn = []

    def counting_sample_frame(config):
        drawn.append(config.seed)
        return sample_frame(config)

    monkeypatch.setattr("ncsa.cli.sample_frame", counting_sample_frame)
    code, out = run(tmp_path, "simulate", "--users", "800", "--slots", "1", "--dist", "1:1", "--cap", "4")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert drawn == []
    assert not out.exists()


def test_simulate_all_decoders_dominance(tmp_path):
    code, out = run(
        tmp_path,
        "simulate", "--users", "50", "--rate", "0.8", "--dist", "2:0.6,3:0.4",
        "--cap", "4", "--trials", "4", "--seed", "3", "--decoder", "all",
        "--payload-bytes", "0",
    )
    assert code == 0
    meta, _, rows = read_csv(str(out))
    # rate 0.8 with 50 users: ceil(50 / 0.8) = 63 slots
    assert meta["slots"] == "63"
    by_trial: dict[str, dict[str, int]] = {}
    for row in rows:
        by_trial.setdefault(row["trial"], {})[row["decoder"]] = int(row["recovered"])
    assert len(by_trial) == 4
    for got in by_trial.values():
        assert got["ordinary"] <= got["batched"] <= got["oracle"]
    for name in ("batched", "ordinary", "oracle"):
        assert f"mean_fraction_{name}" in meta


def test_simulate_rejects_ambiguous_geometry(tmp_path):
    code, _ = run(tmp_path, "simulate", "--users", "10", "--slots", "5",
                  "--rate", "2.0", "--dist", "2:1", "--cap", "3")
    assert code == 2
    code, _ = run(tmp_path, "simulate", "--users", "10", "--dist", "2:1", "--cap", "3")
    assert code == 2


def test_evolve_single_round_anchor(tmp_path):
    code, out = run(tmp_path, "evolve", "--dist", "1:1", "--lam", "1",
                    "--cap", "3", "--iters", "1")
    assert code == 0
    meta, header, rows = read_csv(str(out))
    assert meta["schema"] == "ncsa-evolve-v1"
    assert float(meta["z_star"]) == pytest.approx(0.6315263740109759, abs=1e-15)
    assert len(rows) == 1  # no intermediate values, only the node summary
    assert rows[0]["kind"] == "node"


def test_evolve_rate_is_load_over_mean(tmp_path):
    code, out = run(tmp_path, "evolve", "--dist", "3:1", "--rate", "0.5",
                    "--cap", "10", "--iters", "50")
    assert code == 0
    meta, _, rows = read_csv(str(out))
    assert float(meta["lam"]) == pytest.approx(1.5, abs=1e-12)
    kinds = [r["kind"] for r in rows]
    assert kinds[-1] == "node" and all(k == "edge" for k in kinds[:-1])
    edge_vals = [float(r["value"]) for r in rows[:-1]]
    assert all(b >= a - 1e-12 for a, b in zip(edge_vals, edge_vals[1:]))


def test_optimize_csv_rebuilds_distribution(tmp_path):
    code, out = run(tmp_path, "optimize", "--lam", "1.0", "--cap", "10")
    assert code == 0
    meta, header, rows = read_csv(str(out))
    assert meta["schema"] == "ncsa-optimize-v1"
    assert float(meta["rate"]) == pytest.approx(0.5031744048846979, abs=1e-9)
    assert float(meta["rate_star"]) <= float(meta["upper_bound"]) + 1e-9
    assert meta["certificate_ok"] == "true"
    assert meta["grid_violations"] == "0"
    # one solve, whose pivots are the run's and the status's
    assert meta["lp_solves"] == "1"
    assert meta["status"] == f"optimal after {meta['lp_pivots']} pivots"
    probs = {int(r["degree"]): float(r["node_prob"]) for r in rows}
    rebuilt = DegreeDistribution(probs)  # validates sum and support
    assert rebuilt.prob(2) > 0.9
    for r in rows:
        edge = rebuilt.edge_weights()[int(r["degree"]) - 1]
        assert float(r["edge_weight"]) == pytest.approx(edge, abs=1e-12)


def test_optimize_infeasible_exit_code(tmp_path, capsys):
    code, out = run(tmp_path, "optimize", "--lam", "1.0", "--cap", "10",
                    "--eta", "1.0")
    assert code == 3
    assert capsys.readouterr().err == (
        "no design at lam=1: infeasible: the constraints force the degree-3 weight below zero (found after 3 pivots)\n")
    meta, header, rows = read_csv(str(out))
    assert meta["feasible"] == "false"
    assert meta["lp_solves"] == "1" and int(meta["lp_pivots"]) > 0
    assert rows == []


def test_sweep_default_grid(tmp_path):
    code, out = run(tmp_path, "sweep", "--cap", "10")
    assert code == 0
    meta, _, rows = read_csv(str(out))
    assert meta["schema"] == "ncsa-sweep-v1"
    assert len(rows) == 40
    assert [float(r["lam"]) for r in rows[:3]] == [0.25, 0.5, 0.75]
    feasible = [r for r in rows if r["feasible"] == "true"]
    assert len(feasible) >= 39  # the heaviest load outgrows 30 degrees
    for r in feasible:
        assert float(r["rate_star"]) <= float(r["upper_bound"]) + 1e-9
    for r in rows:
        if r["feasible"] == "false":
            assert r["rate"] == ""
    # the LP telemetry, summed over the loads: each load's first round
    # starts from the last load's
    assert (meta["lp_solves"], meta["lp_pivots"]) == ("60", "95")


def test_design_defaults_agree(tmp_path, monkeypatch):
    # `sweep`'s check, `optimize`'s run and the CLI's metadata all use the
    # one set of design defaults
    checked = []
    check = optimize_module._check_design

    def recording(*args, **kwargs):
        bound = inspect.signature(check).bind(*args, **kwargs)
        bound.apply_defaults()
        checked.append(dict(bound.arguments))
        return check(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "_check_design", recording)
    model, defaults = PncModel.example(4), optimize_module.DESIGN_DEFAULTS
    (point,) = optimize_module.sweep([1.0], model)
    ran = {key: getattr(optimize_module.optimize(1.0, model), key) for key in defaults}
    assert checked[0] == {key: getattr(point.result, key) for key in defaults} == ran == defaults
    for command in (["optimize", "--lam", "1.0"], ["sweep", "--lam-grid", "1"]):
        code, out = run(tmp_path, *command, "--cap", "4")
        assert code == 0
        meta, _, _ = read_csv(str(out))
        assert {key: type(value)(meta[key]) for key, value in ran.items()} == ran


def test_gamma_table(tmp_path):
    code, out = run(tmp_path, "gamma", "--cap", "3")
    assert code == 0
    meta, _, rows = read_csv(str(out))
    assert meta["schema"] == "ncsa-gamma-v1"
    assert [int(r["family_size"]) for r in rows] == [1, 3, 10]
    assert rows[0]["poly"] == "1"
    assert rows[0]["closed_form_dev"] == ""  # no compact form at degree 1
    for r in rows:
        if r["enum_dev"]:
            assert float(r["enum_dev"]) <= 1e-12
    # the compact algebraic form agrees with the enumerated table at every
    # degree it covers
    for r in rows[1:]:
        assert float(r["closed_form_dev"]) <= 1e-12


def test_gamma_table_cap_thirty(tmp_path):
    # the counted stock tables reach collision sizes far beyond enumeration
    code, out = run(tmp_path, "gamma", "--cap", "30")
    assert code == 0
    _, _, rows = read_csv(str(out))
    assert [int(r["degree"]) for r in rows] == list(range(1, 31))
    assert int(rows[-1]["family_size"]) == family_size(30)
    for r in rows[1:]:
        assert float(r["closed_form_dev"]) <= 1e-12


def test_gamma_custom_model(tmp_path):
    model = {
        "max_decodable": 2,
        "families": {
            "1": [{"matrix": [[1]], "prob": 1.0}],
            "2": [
                {"matrix": [[1, 0], [0, 1]], "prob": 0.5},
                {"matrix": [[1], [1]], "prob": 0.5},
            ],
        },
    }
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    code, out = run(tmp_path, "gamma", "--model", str(mpath))
    assert code == 0
    _, _, rows = read_csv(str(out))
    assert len(rows) == 2
    assert int(rows[1]["family_size"]) == 2
    # identity resolves always, the sum needs the partner: 0.5 + 0.5 x
    assert rows[1]["poly"] == "0.5 +0.5 x"
    assert rows[1]["closed_form_dev"] == ""  # stock-only diagnostic
    assert float(rows[1]["enum_dev"]) <= 1e-12


def test_simulate_rejects_a_model_missing_a_key(tmp_path, capsys):
    mpath = tmp_path / "bad.json"
    mpath.write_text(json.dumps({"max_decodable": 2, "families": {"1": [{"matrix": [[1]]}]}}))
    code, _ = run(tmp_path, "simulate", "--users", "10", "--slots", "10", "--dist", "2:1", "--model", str(mpath))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "model",
    [
        {"max_decodable": 1, "families": {"1": [[1]]}},
        {"max_decodable": 1, "families": []},
        {"max_decodable": "2", "families": {"1": [{"matrix": [[1]], "prob": 1.0}]}},
    ],
)
def test_simulate_rejects_a_model_of_the_wrong_json_type(tmp_path, capsys, model):
    mpath = tmp_path / "bad.json"
    mpath.write_text(json.dumps(model))
    code, _ = run(tmp_path, "simulate", "--users", "10", "--slots", "10", "--dist", "2:1", "--model", str(mpath))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad model file:")


def test_simulate_rejects_the_removed_eager_option(tmp_path):
    base = ["simulate", "--users", "10", "--slots", "10", "--dist", "2:1", "--cap", "3"]
    with pytest.raises(SystemExit) as exc:
        main([*base, "--eager"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eager": True}))
    code, _ = run(tmp_path, *base, "--config", str(cfg))
    assert code == 2


def test_plot_sweep(tmp_path):
    code, csv_out = run(tmp_path, "sweep", "--lam-grid", "0.5:3:0.5", "--cap", "6")
    assert code == 0
    svg_out = tmp_path / "chart.svg"
    assert main(["plot", str(csv_out), "--out", str(svg_out),
                 "--y", "rate,rate_star,upper_bound", "--title", "load sweep"]) == 0
    doc = svg_out.read_text()
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3
    assert "load sweep" in doc


def test_chart_escapes_markup_in_its_labels():
    # the bytes `xml.sax.saxutils.escape` gave: `&`, `<` and `>` only, quotes kept
    doc = render_line_chart(
        {"a<b & c>d": [(0, 0.5), (1, 0.75), (2, 1.0)], "R&D": [(0, 1.0), (2, 0.25)]},
        title="x < y & y > z", x_label="load <λ>", y_label="rate & \"quote\" 'apos'",
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == "2a8fd6126a2e5bc70d3f02f814fc038f236a83b036e79fb4a61fc003b18c9652"
    root = ET.fromstring(doc)
    labels = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert {"x < y & y > z", "load <λ>", "rate & \"quote\" 'apos'", "a<b & c>d", "R&D"} <= set(labels)


def test_plot_default_columns_and_output_name(tmp_path):
    code, csv_out = run(tmp_path, "sweep", "--lam-grid", "1,2", "--cap", "4")
    assert code == 0
    assert main(["plot", str(csv_out)]) == 0
    sibling = csv_out.with_suffix(".svg")
    assert sibling.exists()
    root = ET.fromstring(sibling.read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3  # rate, rate_star, upper_bound


def test_plot_missing_column_names_it(tmp_path, capsys):
    code, csv_out = run(tmp_path, "sweep", "--lam-grid", "1,2", "--cap", "4")
    assert code == 0
    assert main(["plot", str(csv_out), "--y", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_plot_rejects_headerless_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# schema=x\n")
    assert main(["plot", str(empty)]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"lam": 2.0, "iters": 5, "dist": {"2": 1.0}, "cap": 4}))
    code, out = run(tmp_path, "evolve", "--config", str(cfgfile), "--lam", "1.0")
    assert code == 0
    meta, _, rows = read_csv(str(out))
    assert float(meta["lam"]) == 1.0  # flag wins
    assert meta["iters"] == "5"  # config fills the rest
    assert len(rows) == 5


def test_config_rejects_unknown_keys(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"lam": 2.0, "bogus": 1}))
    code, _ = run(tmp_path, "evolve", "--config", str(cfgfile), "--dist", "2:1")
    assert code == 2


def test_config_rejects_another_subcommands_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"lam_grid": "1,2"}))
    code, out = run(tmp_path, "optimize", "--config", str(cfgfile), "--lam", "1.0", "--cap", "4")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: unknown config keys: lam_grid\n"


@pytest.mark.parametrize("values, message", [
    ({"users": [1]}, "config key users must be an integer, got [1]"),
    ({"out": 5}, "config key out must be a string, got 5"),
    ({"users": 20.7}, "config key users must be an integer, got 20.7"),
    ({"seed": 1.9}, "config key seed must be an integer, got 1.9"),
    ({"max_iters": 2.9}, "config key max_iters must be an integer, got 2.9"),
    ({"trials": True}, "config key trials must be an integer, got true"),
    ({"omit_times": "no"}, "config key omit_times must be true or false, got \"no\""),
    ({"rate": "0.5"}, "config key rate must be a number, got \"0.5\""),
    ({"rate": False}, "config key rate must be a number, got false"),
    ({"users": None}, "config key users must be an integer, got null"),
    ({"dist": 3}, "config key dist must be a string or an object, got 3"),
    ({"dist": {"3": [1]}}, "config key dist must map degrees to numbers, got {\"3\": [1]}"),
])
def test_config_value_of_the_wrong_json_type_exits_2_with_one_line(tmp_path, capsys, values, message):
    # no --out flag, so a config `out` that named a file descriptor would be used
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"users": 40, "rate": 0.5, "dist": "3:1", "cap": 4, **values}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_config_values_of_each_accepted_json_type(tmp_path):
    # an integer for a float option, a boolean flag, an object distribution
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "users": 40, "rate": 1, "dist": {"3": 1}, "cap": 4, "seed": 2, "trials": 2, "max_iters": 50,
        "omit_times": True, "decoder": "all", "payload_bytes": 4,
    }))
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 0
    meta, _, rows = read_csv(str(out))
    assert (meta["users"], meta["slots"], meta["seed"], meta["trials"], meta["max_iters"]) == ("40", "40", "2", "2", "50")
    assert {row["seconds"] for row in rows} == {"0.0"}
    cfg.write_text(json.dumps({"lam": 1.5, "iters": 5, "dist": "3:1", "cap": 4, "out": str(tmp_path / "e.csv")}))
    assert main(["evolve", "--config", str(cfg)]) == 0
    assert read_csv(str(tmp_path / "e.csv"))[0]["iters"] == "5"


def test_exit_codes_for_bad_input(tmp_path, capsys):
    # probabilities must sum to one
    code, _ = run(tmp_path, "evolve", "--dist", "2:1.5", "--lam", "1", "--cap", "3")
    assert code == 2
    # a stock cap and a custom model are mutually exclusive
    code, _ = run(tmp_path, "gamma", "--cap", "3", "--model", "whatever.json")
    assert code == 2
    # optimizer needs a load
    code, _ = run(tmp_path, "optimize", "--cap", "4")
    assert code == 2
    capsys.readouterr()
    # an iteration count below one, whichever decoders run
    for decoder in ("batched", "ordinary", "oracle", "all"):
        for max_iters in ("0", "-3"):
            code, out = run(tmp_path, "simulate", "--users", "20", "--slots", "20", "--dist", "2:1", "--cap", "4",
                            "--decoder", decoder, "--max-iters", max_iters)
            assert code == 2 and not out.exists()
            assert capsys.readouterr().err == f"error: --max-iters must be positive, got {max_iters}\n"


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["optimize", "--lam", "2", "--eps", "nan"], "eps must be a positive finite number, got nan"),
        (["optimize", "--lam", "2", "--eps", "inf"], "eps must be a positive finite number, got inf"),
        (["sweep", "--lam-grid", "1,2", "--eps", "nan"], "eps must be a positive finite number, got nan"),
        (["sweep", "--lam-grid", "1,2", "--eta", "nan"], "eta must lie in (0, 1]"),
        (["sweep", "--lam-grid", "1,2", "--grid", "0"], "max_degree and grid_points must be positive"),
    ],
)
def test_a_bad_design_exits_2_with_one_line(tmp_path, capsys, argv, named):
    # a sweep checks its design once, before any load, and writes no CSV
    code, out = run(tmp_path, *argv, "--cap", "4")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {named}"]


@pytest.mark.parametrize("rate", ["0", "-1", "nan"])
def test_simulate_rejects_nonpositive_rate(tmp_path, capsys, rate):
    code, out = run(tmp_path, "simulate", "--users", "10", "--rate", rate, "--dist", "3:1")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--rate must be a positive finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--users", "10", "--slots", "0"],
        ["--users", "0", "--rate", "0.5"],
    ],
)
def test_simulate_rejects_an_empty_frame(tmp_path, capsys, argv):
    code, out = run(tmp_path, "simulate", *argv, "--dist", "1:1")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "must be positive" in err[0]


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["--rate", "1e-300"], "users * slots must be at most 2**63"),
        (["--rate", "5e-324"], "users * slots must be at most 2**63"),
        (["--slots", "1000000000000000000"], "users * slots must be at most 2**63"),
        (["--slots", "20", "--seed", "-1"], "seed must be non-negative, got -1"),
    ],
    ids=["rate-1e-300", "rate-5e-324", "slots-1e18", "seed-minus-1"],
)
def test_simulate_rejects_a_frame_the_sampler_cannot_key(tmp_path, capsys, argv, named):
    # the (slot, user) sort key of `sample_frame` must fit in int64, and
    # numpy seeds are non-negative
    code, out = run(tmp_path, "simulate", "--users", "10", *argv, "--dist", "1:1", "--cap", "4")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--lam", "nan"],
        ["optimize", "--lam=-inf"],
        ["evolve", "--dist", "3:1", "--rate", "inf"],
        ["evolve", "--dist", "3:1", "--lam", "nan"],
    ],
)
def test_non_finite_load_exits_2_with_one_line(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv, "--cap", "4")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "positive finite" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--dist", "1:0.5,2:nan", "--lam", "1"],
        ["simulate", "--dist", "1:0.5,2:nan", "--users", "20", "--slots", "10"],
        ["simulate", "--dist", "1:inf", "--users", "20", "--slots", "10"],
    ],
)
def test_non_finite_degree_probability_exits_2_with_one_line(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv, "--cap", "4")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: probabilities must be finite")


def test_sweep_records_a_non_finite_load_in_one_cell(tmp_path):
    code, out = run(tmp_path, "sweep", "--lam-grid", "nan,1", "--cap", "6")
    assert code == 0
    _, _, rows = read_csv(str(out))
    bad, good = rows
    assert bad["feasible"] == "false" and bad["upper_bound"] == "nan"
    assert bad["error"] == "offered load must be a positive finite number, got nan"
    assert good["feasible"] == "true" and good["error"] == ""


def run_python(*args):
    """`python args` in a fresh interpreter that imports this `ncsa`, stopped
    after 60 s, so that a command that never returns fails its test instead
    of hanging."""
    src = str(Path(ncsa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def run_cli_process(*argv):
    return run_python("-m", "ncsa", *argv)


def parser_call(parse, argv):
    """Exit code, standard output and standard error of `parse(argv)`,
    which exits for help and for errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# SHA-256 of "code\n--\nstdout--\nstderr" at 80 columns, as argparse of
# Python 3.11 lays it out; the parser builds only the options of the
# subcommand that it is given, and none of these texts may move
PARSER_OUTPUT_PINS = {
    ("--help",): "9ae35f6687064db9ca7d8345986159184d58eac62cb28012bb0e7ba1cd7e2bce",
    (): "d63302d081cc166f61bc3fdd4cf80c76075404e68799e6208d06d14b77fc6fd0",
    ("bogus",): "e2398c176144cbac4d2aef739355982e1efb5b1a910fc463887427ce3ddca200",
    ("simulate", "--help"): "f8efbb91374f8c84e873eceb5a5c5861786705e16cfc74af637fda51a034e0ec",
    ("evolve", "--help"): "8497ad533ac167f82ca65b98fef1fe798e12dd2cf0085932bd716a319d827c84",
    ("optimize", "--help"): "876d52a27ad1e25de88643da78942231e77e37529458a6987aba06861954bfea",
    ("sweep", "--help"): "90773ff687e2d60759bd20a4cb50d1716489c170bc245fefe4fe443f5c73a7d3",
    ("gamma", "--help"): "fe318abe13719c20274dd5f4e0563b7832172a7d975a458d4754e34467ef1e7d",
    ("plot", "--help"): "093676d74edaec45eb82586cc773bf043f2277a02db0598ce367706ef62faef5",
}


@pytest.mark.parametrize("argv", list(PARSER_OUTPUT_PINS), ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_errors_are_pinned(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = got = parser_call(main, list(argv))
    assert hashlib.sha256(f"{code}\n--\n{out}--\n{err}".encode()).hexdigest() == PARSER_OUTPUT_PINS[argv]
    # the same as with every subcommand's options built
    assert got == parser_call(_build_parser().parse_args, list(argv))


def test_cli_starts_without_scipy():
    # scipy is a test-only dependency; importing it took most of every
    # command's start-up time and memory
    done = run_python("-c", "import sys, ncsa.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [["evolve", "--dist", "3:1", "--lam", "800"], ["optimize", "--lam", "800"]])
def test_too_large_load_exits_2_with_one_line(argv):
    done = run_cli_process(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: offered load must be at most 708.3964185322641, got 800.0\n"


def test_sweep_records_a_too_large_load_in_one_cell():
    done = run_cli_process("sweep", "--lam-grid", "800,1", "--cap", "4")
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == "lam,feasible,rate,rate_star,upper_bound,error"
    assert rows[1] == '800.0,false,,,nan,"offered load must be at most 708.3964185322641, got 800.0"'
    assert rows[2].startswith("1.0,true,") and rows[2].endswith(",")
    assert len(rows) == 3


def test_read_csv_round_trips_own_output(tmp_path):
    code, out = run(tmp_path, "evolve", "--dist", "2:0.5,3:0.5", "--lam", "1.2",
                    "--cap", "5", "--iters", "10")
    assert code == 0
    meta, header, rows = read_csv(str(out))
    assert header == ["iteration", "value", "kind"]
    assert meta["dist"] == "2:0.5,3:0.5"
    assert all(set(r) == set(header) for r in rows)
