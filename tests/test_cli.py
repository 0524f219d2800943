import csv
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rpcluster import SscConfig, TscConfig, cli, spectral_cluster
from rpcluster.cli import (
    ExperimentConfig,
    SUMMARY_FIELDS,
    SWEEP_FIELDS,
    build_parser,
    main,
    run_sweep,
    summarize_rows,
    summary_path,
)
from rpcluster.io import read_labels_csv, read_points_csv

PINNED_HEADER = (
    "p,algorithm,projection,seed,ce,false_connections,L_hat,"
    "time_project_ms,time_adjacency_ms,time_spectral_ms"
)
PINNED_SUMMARY_HEADER = (
    "p,algorithm,projection,n,ce_mean,ce_std,false_connections_mean,L_hat_mean,"
    "time_project_ms_mean,time_adjacency_ms_mean,time_spectral_ms_mean"
)


def run_gen(tmp_path, name="a", m=30, dims="3,3", counts="20,20", seed=1, t=None):
    data = tmp_path / f"{name}_data.csv"
    labels = tmp_path / f"{name}_labels.csv"
    argv = [
        "gen",
        "--m", str(m),
        "--dims", dims,
        "--counts", counts,
        "--seed", str(seed),
        "--data", str(data),
        "--labels", str(labels),
    ]
    if t is not None:
        argv += ["--t", str(t)]
    assert main(argv) == 0
    return data, labels


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_shapes_and_labels(tmp_path, capsys):
    data, labels = run_gen(tmp_path, m=100, dims="5,5", counts="50,50")
    out = capsys.readouterr().out
    assert "m=100 L=2 N=100" in out
    pts = read_points_csv(data)
    assert pts.shape == (100, 100)
    lab = read_labels_csv(labels)
    assert lab.shape == (100,)
    assert np.array_equal(np.unique(lab), [0, 1])


def test_gen_deterministic_bytes(tmp_path):
    d1, l1 = run_gen(tmp_path, name="x", seed=9)
    d2, l2 = run_gen(tmp_path, name="y", seed=9)
    assert d1.read_bytes() == d2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_gen_nested_pair_prints_unit_affinity(tmp_path, capsys):
    run_gen(tmp_path, m=20, dims="4,4", counts="10,10", t=4)
    out = capsys.readouterr().out
    assert "aff(0,1)=1.000000" in out


def test_gen_intersection_needs_two_equal_dims(tmp_path, capsys):
    data = tmp_path / "d.csv"
    labels = tmp_path / "l.csv"
    code = main([
        "gen", "--m", "20", "--dims", "4,3", "--counts", "10,10",
        "--t", "2", "--data", str(data), "--labels", str(labels),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cluster_unprojected_tsc_recovers_truth(tmp_path, capsys):
    # orthogonal planes with 5 points each: q=4 makes every block a complete
    # clique, which keeps the eigengap estimate at 2
    data, labels = run_gen(tmp_path, m=30, dims="3,3", counts="5,5", seed=1, t=0)
    out_labels = tmp_path / "pred.csv"
    code = main([
        "cluster",
        "--data", str(data),
        "--labels", str(labels),
        "--algorithm", "tsc",
        "--q", "4",
        "--out-labels", str(out_labels),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ce=0.000000" in printed
    assert "false_connections=0" in printed
    assert "L_hat=2" in printed
    assert read_labels_csv(out_labels).shape == (10,)


def test_cluster_ssc_exact_l1(tmp_path, capsys):
    data, labels = run_gen(tmp_path, m=30, dims="3,3", counts="10,10", seed=2)
    out_labels = tmp_path / "pred.csv"
    code = main([
        "cluster",
        "--data", str(data),
        "--labels", str(labels),
        "--algorithm", "ssc",
        "--ssc-mode", "exact_l1",
        "--clusters", "2",
        "--out-labels", str(out_labels),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ce=0.000000" in printed
    assert "false_connections=0" in printed
    assert read_labels_csv(out_labels).shape == (20,)


def test_cluster_forced_single_cluster(tmp_path):
    data, _ = run_gen(tmp_path, seed=3)
    out_labels = tmp_path / "pred.csv"
    timing = tmp_path / "timing.csv"
    code = main([
        "cluster",
        "--data", str(data),
        "--algorithm", "tsc",
        "--clusters", "1",
        "--out-labels", str(out_labels),
        "--timing-csv", str(timing),
    ])
    assert code == 0
    assert np.array_equal(read_labels_csv(out_labels), np.zeros(40, dtype=int))
    # no labels: the timing row leaves the scores empty
    row = read_rows(timing)[0]
    assert (row["projection"], row["ce"], row["false_connections"]) == ("none", "", "")
    assert (row["L_hat"], row["error"]) == ("1", "")


def test_cluster_projected_run_writes_timing(tmp_path):
    data, labels = run_gen(tmp_path, m=40, dims="3,3", counts="25,25", seed=4)
    out_labels = tmp_path / "pred.csv"
    timing = tmp_path / "timing.csv"
    adjacency = tmp_path / "adj.csv"
    code = main([
        "cluster",
        "--data", str(data),
        "--labels", str(labels),
        "--algorithm", "tsc",
        "--projection", "fourier_sign",
        "--p", "20",
        "--out-labels", str(out_labels),
        "--timing-csv", str(timing),
        "--adjacency-csv", str(adjacency),
    ])
    assert code == 0
    rows = read_rows(timing)
    assert len(rows) == 1
    row = rows[0]
    assert row["projection"] == "fourier_sign"
    assert float(row["time_project_ms"]) >= 0
    assert float(row["time_adjacency_ms"]) >= 0
    adj = read_points_csv(adjacency)
    assert adj.shape == (50, 50)


def test_cluster_identical_runs_identical_labels(tmp_path):
    data, _ = run_gen(tmp_path, seed=5)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = [
        "cluster", "--data", str(data), "--algorithm", "tsc",
        "--projection", "gaussian", "--p", "12", "--out-labels",
    ]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_rejects_p_without_kind(tmp_path, capsys):
    data, _ = run_gen(tmp_path, seed=6)
    code = main([
        "cluster", "--data", str(data), "--algorithm", "tsc",
        "--p", "10", "--out-labels", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cluster_rejects_negative_p(tmp_path, capsys):
    data, _ = run_gen(tmp_path, seed=6)
    timing = tmp_path / "timing.csv"
    code = main([
        "cluster", "--data", str(data), "--algorithm", "tsc",
        "--p", "-5", "--projection", "gaussian",
        "--out-labels", str(tmp_path / "x.csv"), "--timing-csv", str(timing),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "p=-5 must lie in [0, m=30]" in err
    assert not timing.exists()


def test_cluster_rejects_alpha_at_most_one(tmp_path, capsys):
    data, labels = run_gen(tmp_path, seed=6)
    code = main([
        "cluster", "--data", str(data), "--labels", str(labels),
        "--algorithm", "ssc", "--alpha", "0.5", "--out-labels", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "every lasso column is exactly zero" in err


def test_cluster_rejects_infinite_label(tmp_path, capsys):
    data, labels = run_gen(tmp_path, seed=6)
    lines = labels.read_text().splitlines()
    lines[4] = "inf"
    labels.write_text("\n".join(lines) + "\n")
    code = main([
        "cluster", "--data", str(data), "--labels", str(labels),
        "--algorithm", "tsc", "--out-labels", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "row 5" in err


@pytest.mark.parametrize("l_max", ["0", "-3"])
def test_cluster_rejects_l_max_below_one(tmp_path, capsys, l_max):
    data, labels = run_gen(tmp_path, seed=6)
    out_labels = tmp_path / "pred.csv"
    code = main([
        "cluster", "--data", str(data), "--labels", str(labels),
        "--algorithm", "tsc", "--l-max", l_max, "--out-labels", str(out_labels),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: l_max must be at least 1\n"
    assert not out_labels.exists()


def test_cluster_missing_file(tmp_path, capsys):
    code = main([
        "cluster", "--data", str(tmp_path / "nope.csv"), "--algorithm", "tsc",
        "--out-labels", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def sweep_config(tmp_path, **overrides):
    base = dict(
        m=24,
        dims=[2, 2],
        counts=[10, 10],
        seed=0,
        kinds=["gaussian", "fourier_sign"],
        p_values=[0, 6, 12],
        algorithms=["ssc", "tsc"],
        q=3,
        repetitions=1,
        out=str(tmp_path / "sweep.csv"),
    )
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


def test_sweep_row_count_and_header(tmp_path):
    config = sweep_config(tmp_path)
    rows = run_sweep(config)
    # one row per (p, algorithm, kind): 3 * 2 * 2
    assert len(rows) == 12
    from rpcluster.cli import _write_rows

    _write_rows(config.out, SWEEP_FIELDS, rows)
    first_line = open(config.out).readline().strip()
    assert first_line == PINNED_HEADER + ",error"


def test_sweep_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep",
        "--m", "24", "--dims", "2,2", "--counts", "10,10",
        "--kinds", "gaussian", "--p-values", "0,8",
        "--algorithms", "tsc", "--q", "3",
        "--repetitions", "2", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 4  # 2 p-values x 1 alg x 1 kind x 2 reps
    for row in rows:
        assert 0.0 <= float(row["ce"]) <= 1.0
        assert float(row["time_adjacency_ms"]) >= 0
        assert float(row["time_spectral_ms"]) >= 0
        if row["p"] == "0":
            assert float(row["time_project_ms"]) == 0.0
    assert summary_path(out).exists()
    summary = read_rows(summary_path(out))
    assert len(summary) == 2
    assert ",".join(summary[0]) == ",".join(SUMMARY_FIELDS) == PINNED_SUMMARY_HEADER
    assert int(summary[0]["n"]) == 2


def test_sweep_ssc_exact_l1(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep",
        "--m", "24", "--dims", "2,2", "--counts", "10,10",
        "--kinds", "gaussian", "--p-values", "0,8",
        "--algorithms", "ssc", "--ssc-mode", "exact_l1",
        "--repetitions", "1", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert [r["p"] for r in rows] == ["0", "8"]
    assert all(r["error"] == "" and r["false_connections"] == "0" for r in rows)


def test_sweep_deterministic_outside_timing(tmp_path):
    config = sweep_config(tmp_path, repetitions=2)
    rows_a = run_sweep(config)
    rows_b = run_sweep(config)
    skip = {"time_project_ms", "time_adjacency_ms", "time_spectral_ms"}
    for a, b in zip(rows_a, rows_b):
        for key in SWEEP_FIELDS:
            if key not in skip:
                assert a[key] == b[key], key


def test_sweep_rows_sorted(tmp_path):
    config = sweep_config(tmp_path, repetitions=2)
    rows = run_sweep(config)
    keys = [(r["p"], r["algorithm"], r["projection"], r["seed"]) for r in rows]
    assert keys == sorted(keys)


def test_sweep_config_file_with_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m": 24, "dims": [2, 2], "counts": [10, 10],
        "kinds": ["gaussian"], "p_values": [0],
        "algorithms": ["tsc"], "q": 3,
        "out": str(tmp_path / "from_file.csv"),
    }))
    out = tmp_path / "override.csv"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert len(read_rows(out)) == 1


def test_sweep_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 24, "dims": [2], "counts": [10], "pvals": [0]}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "pvals" in capsys.readouterr().err


def test_sweep_ce_trend_over_p(tmp_path):
    # desk-scale version of the p sweep: mean CE improves with p, allowing
    # one adjacent inversion for small-sample noise
    config = sweep_config(
        tmp_path,
        m=64,
        dims=[5, 5],
        counts=[40, 40],
        kinds=["gaussian"],
        algorithms=["tsc"],
        q=4,
        p_values=[8, 16, 32, 64],
        repetitions=5,
    )
    rows = run_sweep(config)
    assert all(not r["error"] for r in rows)
    summary = summarize_rows(rows)
    means = {int(s["p"]): s["ce_mean"] for s in summary}
    seq = [means[p] for p in (8, 16, 32, 64)]
    inversions = sum(1 for a, b in zip(seq, seq[1:]) if b > a + 1e-12)
    assert inversions <= 1
    assert seq[-1] <= seq[0]


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"m": 10, "dims": [2], "counts": [5], "repetitions": 0})
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"m": 10, "dims": [2], "counts": [5], "algorithms": ["kmeans"]})
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"m": 10, "dims": [2], "counts": [5], "p_values": [11]})
    with pytest.raises(ValueError, match="l_max must be at least 1"):
        ExperimentConfig.from_mapping({"m": 10, "dims": [2], "counts": [5], "l_max": 0})
    # every cell, p=0 included, loops over the kinds
    for p_values in ([0], [0, 6]):
        with pytest.raises(ValueError, match="no projector kinds given"):
            ExperimentConfig.from_mapping(
                {"m": 10, "dims": [2], "counts": [5], "kinds": [], "p_values": p_values}
            )


def test_sweep_cli_rejects_empty_kinds_at_p_zero(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--m", "24", "--dims", "2,2", "--counts", "10,10",
        "--p-values", "0", "--kinds", "", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: no projector kinds given\n"
    assert not out.exists()


def test_sweep_cli_rejects_q_below_one(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--m", "24", "--dims", "2,2", "--counts", "10,10",
        "--p-values", "0", "--kinds", "gaussian", "--q", "0", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: q must be at least 1\n"
    assert not out.exists()
    assert not summary_path(out).exists()


def test_sweep_rejects_tsc_q_above_the_points_before_any_row(tmp_path, capsys):
    # every cell has sum(counts) = 6 points, so q=6 leaves a point too few others
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--m", "24", "--dims", "2,2", "--counts", "3,3",
        "--p-values", "0", "--q", "6", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: q=6 needs at least q+1 points, got 6\n"
    assert not out.exists()
    assert not summary_path(out).exists()
    # q=5 leaves every point 5 others; without TSC q is not used
    settings = {"m": 24, "dims": [2, 2], "counts": [3, 3]}
    assert ExperimentConfig.from_mapping({**settings, "q": 5}).tsc.q == 5
    assert ExperimentConfig.from_mapping({**settings, "q": 6, "algorithms": ["ssc"]}).q == 6


def test_sweep_records_a_failing_cell_and_goes_on(tmp_path, capsys, monkeypatch):
    def failing(data, config):
        raise RuntimeError("graph failed")

    monkeypatch.setattr(cli, "tsc_adjacency", failing)
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--m", "24", "--dims", "2,2", "--counts", "10,10",
        "--kinds", "gaussian", "--p-values", "0,8", "--algorithms", "tsc,ssc",
        "--q", "3", "--out", str(out),
    ])
    assert code == 0
    assert f"wrote {out} (4 rows, 2 failed)" in capsys.readouterr().out
    rows = read_rows(out)
    assert [(r["p"], r["algorithm"]) for r in rows] == [
        ("0", "ssc"), ("0", "tsc"), ("8", "ssc"), ("8", "tsc")
    ]
    for row in rows:
        if row["algorithm"] == "tsc":
            assert row["error"] == "graph failed"
            assert row["ce"] == row["L_hat"] == row["time_adjacency_ms"] == ""
        else:
            # the SSC cell after the failed TSC cell still runs
            assert row["error"] == ""
            assert 0.0 <= float(row["ce"]) <= 1.0
    summary = read_rows(summary_path(out))
    assert [(r["p"], r["algorithm"], r["n"]) for r in summary] == [("0", "ssc", "1"), ("8", "ssc", "1")]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dims": [2, 3], "t": 1}, "two subspaces of equal dimension"),
        ({"counts": [0, 10]}, "every subspace needs at least one point"),
        ({"dims": [2, 2], "t": 5}, "0 <= t <= d"),
    ],
    ids=["t-unequal-dims", "empty-subspace", "t-above-d"],
)
def test_sweep_rejects_unbuildable_model_before_any_row(tmp_path, capsys, overrides, message):
    settings = {"m": 24, "dims": [2, 2], "counts": [10, 10], **overrides}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_mapping(settings)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p-values", "0", "--algorithms", "tsc", "--out", str(out)]
    for key, value in settings.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += ["--" + key, text]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()
    assert not summary_path(out).exists()


# one value per ExperimentConfig field, as typed on the command line and as parsed
SWEEP_FLAG_VALUES = {
    "m": ("24", 24),
    "dims": ("2,2", [2, 2]),
    "counts": ("10,10", [10, 10]),
    "seed": ("3", 3),
    "t": ("1", 1),
    "kinds": ("gaussian,hadamard_sign", ["gaussian", "hadamard_sign"]),
    "p_values": ("0,8", [0, 8]),
    "algorithms": ("tsc", ["tsc"]),
    "q": ("3", 3),
    "ssc_mode": ("exact_l1", "exact_l1"),
    "alpha": ("12.5", 12.5),
    "repetitions": ("2", 2),
    "l_max": ("7", 7),
    "out": ("x.csv", "x.csv"),
}


def test_sweep_flag_per_config_field_round_trips():
    assert list(SWEEP_FLAG_VALUES) == [f.name for f in fields(ExperimentConfig)]
    argv = ["sweep"]
    for name, (text, _) in SWEEP_FLAG_VALUES.items():
        argv += ["--" + name.replace("_", "-"), text]
    args = build_parser().parse_args(argv)
    for name, (_, value) in SWEEP_FLAG_VALUES.items():
        got = getattr(args, name)
        assert got == value and type(got) is type(value), name
        if isinstance(value, list):
            assert all(type(a) is type(b) for a, b in zip(got, value)), name
    config = ExperimentConfig.from_mapping({name: getattr(args, name) for name in SWEEP_FLAG_VALUES})
    for name, (_, value) in SWEEP_FLAG_VALUES.items():
        assert getattr(config, name) == value, name
    # unset flags are None, so they override nothing in a config file
    unset = build_parser().parse_args(["sweep"])
    assert all(getattr(unset, name) is None for name in SWEEP_FLAG_VALUES)


def test_sweep_ssc_mode_flag_takes_only_the_solver_modes(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--ssc-mode", "admm"])
    assert "invalid choice: 'admm'" in capsys.readouterr().err


def test_sweep_unset_flags_keep_the_config_file_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m": 24, "dims": [2, 2], "counts": [10, 10], "kinds": ["gaussian"],
        "p_values": [0, 8], "algorithms": ["tsc"], "q": 3, "repetitions": 1,
        "out": str(tmp_path / "from_file.csv"),
    }))
    out = tmp_path / "override.csv"
    code = main(["sweep", "--config", str(cfg_path), "--repetitions", "2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    # p_values, kinds and algorithms from the file, repetitions from the flag
    assert [r["p"] for r in rows] == ["0", "0", "8", "8"]
    assert {(r["algorithm"], r["projection"]) for r in rows} == {("tsc", "gaussian")}
    assert not (tmp_path / "from_file.csv").exists()


def test_cli_defaults_are_the_library_defaults():
    l_max = inspect.signature(spectral_cluster).parameters["l_max"].default
    args = build_parser().parse_args(
        ["cluster", "--data", "d.csv", "--algorithm", "ssc", "--out-labels", "o.csv"]
    )
    assert (args.q, args.ssc_mode, args.alpha, args.l_max) == (
        TscConfig().q, SscConfig().mode, SscConfig().alpha, l_max
    )
    config = ExperimentConfig(m=10, dims=[2], counts=[5])
    assert (config.q, config.ssc_mode, config.alpha, config.l_max) == (
        TscConfig().q, SscConfig().mode, SscConfig().alpha, l_max
    )
    check = build_parser().parse_args(
        ["check", "--m", "10", "--dims", "2", "--counts", "5", "--p-values", "0", "--out", "c.csv"]
    )
    assert (check.q, check.seed, check.t) == (TscConfig().q, 0, None)


@pytest.mark.parametrize("missing", ["--m", "--dims", "--counts", "--p-values"])
def test_check_model_flags_and_p_values_are_required(capsys, missing):
    flags = {"--m": "10", "--dims": "2", "--counts": "5", "--p-values": "0", "--out": "c.csv"}
    del flags[missing]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check"] + [x for kv in flags.items() for x in kv])
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_experiment_config_builds_tsc_config():
    # 7 points: each has the 6 others that q=6 asks for
    config = ExperimentConfig(m=10, dims=[2], counts=[7], q=6)
    assert config.tsc.q == 6
    with pytest.raises(ValueError, match="q must be at least 1"):
        ExperimentConfig(m=10, dims=[2], counts=[5], q=0)


def test_cluster_rejects_q_below_one_for_ssc(tmp_path, capsys):
    # TSC settings are checked whichever graph is built, as SSC ones are
    data, labels = run_gen(tmp_path, seed=6)
    out = tmp_path / "x.csv"
    code = main([
        "cluster", "--data", str(data), "--labels", str(labels),
        "--algorithm", "ssc", "--q", "0", "--out-labels", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: q must be at least 1\n"
    assert not out.exists()


def test_check_rows_and_flags(tmp_path, capsys):
    out = tmp_path / "check.csv"
    code = main([
        "check", "--m", "30", "--dims", "3,3", "--counts", "200,200",
        "--p-values", "0,15,30", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert rows[0]["projection"] == "none"
    assert rows[1]["projection"] == "gaussian"
    assert rows[0]["p"] == "0"
    # identity row: no penalty, orthogonal-ish model keeps the lasso route easy
    assert rows[0]["lasso_ok"] in ("True", "False")
    printed = capsys.readouterr().out
    assert printed.count("exact_ok=") == 3


@pytest.mark.parametrize("p_values, bad", [("-5,0", -5), ("0,21", 21)])
def test_check_rejects_p_outside_zero_to_m(tmp_path, capsys, p_values, bad):
    out = tmp_path / "check.csv"
    code = main([
        "check", "--m", "20", "--dims", "3,3", "--counts", "30,30",
        f"--p-values={p_values}", "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: p={bad} must lie in [0, m=20]\n"
    assert captured.out == ""
    assert not out.exists()


def test_check_rejects_empty_p_values(tmp_path, capsys):
    # the message sweep gives for the same input
    out = tmp_path / "check.csv"
    code = main([
        "check", "--m", "20", "--dims", "3,3", "--counts", "30,30",
        "--p-values", "", "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no p values given\n"
    assert captured.out == ""
    assert not out.exists()
    code = main([
        "sweep", "--m", "20", "--dims", "3,3", "--counts", "30,30",
        "--p-values", "", "--out", str(tmp_path / "sweep.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: no p values given\n"


def test_check_nested_model_all_false(tmp_path):
    out = tmp_path / "check.csv"
    code = main([
        "check", "--m", "20", "--dims", "4,4", "--counts", "40,40",
        "--t", "4", "--p-values", "0", "--out", str(out),
    ])
    assert code == 0
    row = read_rows(out)[0]
    assert row["exact_ok"] == "False"
    assert row["lasso_ok"] == "False"
    assert float(row["aff_max"]) == pytest.approx(1.0, abs=1e-9)


def test_check_density_boundary_flagged(tmp_path):
    out = tmp_path / "check.csv"
    code = main([
        "check", "--m", "20", "--dims", "3,3", "--counts", "4,40",
        "--p-values", "0", "--out", str(out),
    ])
    assert code == 0
    row = read_rows(out)[0]
    assert row["exact_ok"] == "False"
    assert "rho_min" in row["notes"]


def test_ingest_round_trip(tmp_path, capsys):
    data, labels = run_gen(tmp_path, seed=7)
    out_data = tmp_path / "copy.csv"
    code = main([
        "ingest", "--data", str(data), "--labels", str(labels),
        "--out-data", str(out_data),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "N=40 D=30" in printed
    assert "labels 0:20 1:20" in printed
    assert np.max(np.abs(read_points_csv(out_data) - read_points_csv(data))) < 1e-15


def test_ingest_copies_labels_byte_for_byte(tmp_path, capsys):
    data, labels = run_gen(tmp_path, seed=7)
    out_labels = tmp_path / "labels_copy.csv"
    code = main([
        "ingest", "--data", str(data), "--labels", str(labels), "--out-labels", str(out_labels),
    ])
    assert code == 0
    assert f"wrote {out_labels}" in capsys.readouterr().out
    assert out_labels.read_bytes() == labels.read_bytes()


def test_ingest_rejects_out_labels_without_labels_before_writing(tmp_path, capsys):
    data, _ = run_gen(tmp_path, seed=7)
    out_data, out_labels = tmp_path / "copy.csv", tmp_path / "labels_copy.csv"
    code = main([
        "ingest", "--data", str(data),
        "--out-data", str(out_data), "--out-labels", str(out_labels),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: no labels file given to copy\n"
    assert not out_data.exists() and not out_labels.exists()


def test_ingest_renormalizes(tmp_path):
    raw = tmp_path / "raw.csv"
    pts = np.random.default_rng(8).standard_normal((5, 7)) * 3.0
    from rpcluster.io import write_points_csv

    write_points_csv(raw, pts)
    out_data = tmp_path / "unit.csv"
    assert main(["ingest", "--data", str(raw), "--renormalize", "--out-data", str(out_data)]) == 0
    back = read_points_csv(out_data)
    assert np.allclose(np.linalg.norm(back, axis=0), 1.0, atol=1e-12)


def test_ingest_ragged_row_fails(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,5\n")
    assert main(["ingest", "--data", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "row 2" in err


# Recorded before the cluster and sweep commands shared one pipeline; the
# seeds pin the cell-seed derivation (master seed, repetition, p, kind code).
# The SSC rows were re-recorded when the lasso moved from ADMM to the exact
# path solver.
PINNED_SWEEP_ROWS = [
    (0, "ssc", "fourier_sign", 10130072436621640509, 0.8, 0, 10),
    (0, "ssc", "gaussian", 3786653025246517810, 0.8, 0, 10),
    (0, "ssc", "hadamard_sign", 6332631265567319456, 0.8, 0, 10),
    (0, "tsc", "fourier_sign", 10130072436621640509, 0.6, 0, 6),
    (0, "tsc", "gaussian", 3786653025246517810, 0.65, 0, 7),
    (0, "tsc", "hadamard_sign", 6332631265567319456, 0.6, 0, 6),
    (8, "ssc", "fourier_sign", 886369040772539732, 0.7, 0, 8),
    (8, "ssc", "gaussian", 11719112351670797992, 0.7, 0, 8),
    (8, "ssc", "hadamard_sign", 9574799564544175848, 0.65, 1, 7),
    (8, "tsc", "fourier_sign", 886369040772539732, 0.6, 2, 6),
    (8, "tsc", "gaussian", 11719112351670797992, 0.6, 0, 6),
    (8, "tsc", "hadamard_sign", 9574799564544175848, 0.55, 0, 6),
]


def test_sweep_pinned_rows(tmp_path):
    config = sweep_config(
        tmp_path,
        seed=3,
        kinds=["gaussian", "fourier_sign", "hadamard_sign"],
        p_values=[0, 8],
    )
    rows = run_sweep(config)
    got = [
        (r["p"], r["algorithm"], r["projection"], r["seed"], r["ce"],
         r["false_connections"], r["L_hat"])
        for r in rows
    ]
    assert got == PINNED_SWEEP_ROWS
    assert all(r["error"] == "" for r in rows)


def test_cluster_pinned_timing_row(tmp_path):
    data, labels = run_gen(tmp_path, m=40, dims="3,3", counts="25,25", seed=4)
    timing = tmp_path / "timing.csv"
    code = main([
        "cluster",
        "--data", str(data),
        "--labels", str(labels),
        "--algorithm", "ssc",
        "--projection", "hadamard_sign",
        "--p", "6",
        "--proj-seed", "7",
        "--out-labels", str(tmp_path / "pred.csv"),
        "--timing-csv", str(timing),
    ])
    assert code == 0
    row = read_rows(timing)[0]
    for key in ("time_project_ms", "time_adjacency_ms", "time_spectral_ms"):
        assert float(row.pop(key)) >= 0
    assert row == {
        "p": "6",
        "algorithm": "ssc",
        "projection": "hadamard_sign",
        "seed": "7",
        "ce": "0.65999999999999992",
        "false_connections": "31",
        "L_hat": "7",
        "error": "",
    }


# Loaded by scipy.optimize and by nothing else the CLI needs; a run that
# pulls them in pays about 17 MB of RSS and 0.2 s of start-up per command.
HEAVY_SCIPY_MODULES = {"scipy.optimize", "scipy.special", "scipy.spatial", "scipy.fft"}

IMPORT_FOOTPRINT_SCRIPT = """
import sys
from rpcluster.cli import main

data, labels, out = sys.argv[1:]
gen = ["gen", "--m", "30", "--dims", "3,3", "--counts", "10,10", "--seed", "1"]
assert main(gen + ["--data", data, "--labels", labels]) == 0
assert main([
    "cluster", "--data", data, "--labels", labels, "--algorithm", "ssc",
    "--projection", "gaussian", "--p", "12", "--out-labels", out,
]) == 0
print(*sorted(name for name in sys.modules if name.startswith("scipy.")))
"""


def test_cli_run_does_not_load_heavy_scipy_modules(tmp_path):
    # a fresh interpreter, so modules the test suite itself imports do not count
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(tmp_path / name) for name in ("data.csv", "labels.csv", "pred.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT_SCRIPT, *paths],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ce=" in proc.stdout  # clustering_error ran
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "scipy.sparse.csgraph" in loaded
    assert not loaded & HEAVY_SCIPY_MODULES
