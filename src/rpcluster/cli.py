"""Command-line harness: generate, cluster, sweep over p, check conditions, ingest.

Sweep rows carry exactly the plotted quantities (clustering error, false
connections, estimated cluster count, per-stage timings) plus a trailing
error column for rows whose cell failed; aggregation lands in a companion
``*_summary.csv``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import io as dataio
from .graph import Adjacency
from .metrics import TheoremReport, clustering_error, false_connections, theorem_report
from .project import KINDS, ProjectorCalibration, apply, make_projector
from .spectral import L_MAX, ClusteringResult, spectral_cluster
from .ssc import SSC_MODES, SscConfig, ssc_adjacency
from .synth import (
    DataSet,
    UnionModel,
    affinity,
    check_columns,
    generate,
    intersecting_pair,
    random_orthonormal_basis,
)
from .tsc import TscConfig, tsc_adjacency

ALGORITHMS = ("ssc", "tsc")

SWEEP_FIELDS = [
    "p",
    "algorithm",
    "projection",
    "seed",
    "ce",
    "false_connections",
    "L_hat",
    "time_project_ms",
    "time_adjacency_ms",
    "time_spectral_ms",
    "error",
]


@dataclass
class ExperimentConfig:
    """Sweep settings: data model, projector grid, algorithms, repetitions."""

    m: int = field(metadata={"help": "ambient dimension"})
    dims: list[int] = field(metadata={"help": "subspace dimensions, comma-separated"})
    counts: list[int] = field(metadata={"help": "points per subspace, comma-separated"})
    seed: int = field(default=0, metadata={"help": "master seed"})
    t: int | None = field(
        default=None,
        metadata={"help": "intersection dimension for a two-subspace pair (controls affinity)"},
    )
    kinds: list[str] = field(default_factory=lambda: ["gaussian"])
    p_values: list[int] = field(
        default_factory=lambda: [0], metadata={"help": "target dimensions, 0 = no projection"}
    )
    algorithms: list[str] = field(default_factory=lambda: ["ssc", "tsc"])
    q: int = field(default=TscConfig.q, metadata={"help": "neighbors per point (tsc)"})
    ssc_mode: str = SscConfig.mode
    alpha: float = SscConfig.alpha
    repetitions: int = 1
    l_max: int = L_MAX
    out: str = "sweep.csv"

    def __post_init__(self):
        if len(self.dims) != len(self.counts):
            raise ValueError("dims and counts must have the same length")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown projector kind {kind!r}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        if not self.algorithms:
            raise ValueError("no algorithms selected")
        _check_p_values(self.p_values, self.m)
        if not self.kinds:
            raise ValueError("no projector kinds given")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.l_max < 1:
            raise ValueError("l_max must be at least 1")
        # built once, so bad SSC or TSC settings, a model no cell can build,
        # or a q too large for every cell's points, fail here
        self.ssc = SscConfig(mode=self.ssc_mode, alpha=self.alpha)
        self.tsc = TscConfig(q=self.q)
        model = build_model(self.m, self.dims, self.counts, self.t, self.seed)
        if "tsc" in self.algorithms:
            self.tsc.check_points(model.n_points)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**mapping)


def _check_p(p: int, m: int) -> None:
    """A target dimension is 0 (no projection) or a projection to at most m."""
    if not 0 <= p <= m:
        raise ValueError(f"p={p} must lie in [0, m={m}]")


def _check_p_values(p_values, m: int) -> None:
    """At least one target dimension, each allowed by _check_p."""
    if not p_values:
        raise ValueError("no p values given")
    for p in p_values:
        _check_p(p, m)


def _subseed(*parts) -> int:
    """Derive a reproducible 64-bit seed from a tuple of integers."""
    entropy = tuple(int(x) for x in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def build_model(m: int, dims, counts, t: int | None, seed: int) -> UnionModel:
    """Assemble a UnionModel with random bases, or an intersecting pair when t is set."""
    dims = [int(d) for d in dims]
    counts = [int(n) for n in counts]
    if t is not None:
        if len(dims) != 2 or dims[0] != dims[1]:
            raise ValueError(
                "intersection control t needs exactly two subspaces of equal dimension"
            )
        bases = intersecting_pair(m, dims[0], t, _subseed(seed, 0))
    else:
        bases = tuple(
            random_orthonormal_basis(m, d, _subseed(seed, l))
            for l, d in enumerate(dims)
        )
    return UnionModel(tuple(bases), tuple(counts), seed=seed)


def _project(data: DataSet, kind: str, p: int, seed: int) -> tuple[DataSet, float]:
    """The data projected to p dimensions (unchanged for p <= 0) and the time in ms.

    The time covers drawing the projector and applying it.
    """
    if p <= 0:
        return data, 0.0
    t0 = time.perf_counter()
    projected = apply(make_projector(kind, data.dim, p, seed), data)
    return projected, (time.perf_counter() - t0) * 1e3


def _cluster_and_score(
    row: dict, data: DataSet, ssc: SscConfig, tsc: TscConfig,
    n_clusters: int | None, kmeans_seed: int, l_max: int,
) -> tuple[dict, ClusteringResult, Adjacency]:
    """Build row["algorithm"]'s graph, cluster it, and score it when the data
    carry labels.

    row holds the cell's p, algorithm, projection, seed and time_project_ms.
    Returns it completed to a SWEEP_FIELDS row, the clustering and the graph.
    """
    t0 = time.perf_counter()
    if row["algorithm"] == "ssc":
        adj = ssc_adjacency(data, ssc)
    else:
        adj = tsc_adjacency(data, tsc)
    t1 = time.perf_counter()
    result = spectral_cluster(adj, n_clusters, seed=kmeans_seed, l_max=l_max)
    t2 = time.perf_counter()
    row = dict(
        row,
        L_hat=result.n_clusters,
        time_adjacency_ms=(t1 - t0) * 1e3,
        time_spectral_ms=(t2 - t1) * 1e3,
        error="",
    )
    if data.labels is not None:
        row["ce"] = clustering_error(result.labels, data.labels)
        row["false_connections"] = false_connections(adj, data.labels).count
    return row, result, adj


def _format_value(v) -> str:
    if isinstance(v, float):
        return dataio.FLOAT_FMT.format(v)
    if v is None:
        return ""
    return str(v)


def _write_rows(path, fields, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_value(row.get(f)) for f in fields])


def run_sweep(config: ExperimentConfig) -> list:
    """Run every (p, kind, repetition) cell sequentially and return result rows.

    Cell seeds are derived from (master seed, repetition, p, kind), so any
    cell can be recomputed in isolation; the two algorithms of a cell share
    its data and projector. Failures are recorded in the row's error column
    and the sweep continues.
    """
    rows = []
    for p in config.p_values:
        for kind in config.kinds:
            for rep in range(config.repetitions):
                cell_seed = _subseed(config.seed, rep, p, KINDS.index(kind) + 1)
                streams = np.random.SeedSequence(cell_seed).generate_state(
                    3, dtype=np.uint64
                )
                base = {"p": p, "projection": kind, "seed": cell_seed}
                try:
                    model = build_model(
                        config.m, config.dims, config.counts, config.t, int(streams[0])
                    )
                    working, time_project = _project(
                        generate(model), kind, p, int(streams[1])
                    )
                except Exception as exc:  # record and move on
                    for alg in config.algorithms:
                        rows.append(dict(base, algorithm=alg, error=str(exc)))
                    continue
                for alg in config.algorithms:
                    try:
                        row, _, _ = _cluster_and_score(
                            dict(base, algorithm=alg, time_project_ms=time_project),
                            working, config.ssc, config.tsc,
                            None, int(streams[2]), config.l_max,
                        )
                    except Exception as exc:
                        row = dict(base, algorithm=alg, error=str(exc))
                    rows.append(row)
    rows.sort(key=lambda r: (r["p"], r["algorithm"], r["projection"], r["seed"]))
    return rows


# the sweep-row fields a summary row averages, from ce to time_spectral_ms
MEASURED_FIELDS = SWEEP_FIELDS[SWEEP_FIELDS.index("ce") : SWEEP_FIELDS.index("error")]
SUMMARY_FIELDS = ["p", "algorithm", "projection", "n", "ce_mean", "ce_std"] + [
    f"{key}_mean" for key in MEASURED_FIELDS[1:]
]


def summarize_rows(rows) -> list:
    """Mean/std aggregation of clean rows per (p, algorithm, projection) cell."""
    cells = {}
    for row in rows:
        if row.get("error"):
            continue
        cells.setdefault((row["p"], row["algorithm"], row["projection"]), []).append(row)
    out = []
    for (p, alg, kind), group in sorted(cells.items()):
        ce = [r["ce"] for r in group]
        summary = {
            "p": p,
            "algorithm": alg,
            "projection": kind,
            "n": len(group),
            "ce_std": float(np.std(ce, ddof=1)) if len(group) > 1 else 0.0,
        }
        for key in MEASURED_FIELDS:
            summary[f"{key}_mean"] = float(np.mean([r[key] for r in group]))
        out.append(summary)
    return out


def summary_path(out_path) -> Path:
    out_path = Path(out_path)
    suffix = out_path.suffix or ".csv"
    return out_path.with_name(out_path.stem + "_summary" + suffix)


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> list:
    return [tok for tok in text.split(",") if tok != ""]


# the parser of a config flag, by its ExperimentConfig field's annotation
FIELD_PARSERS = {"int": int, "int | None": int, "float": float, "str": str,
                 "list[int]": _int_list, "list[str]": _str_list}


def _add_config_flags(parser, names, unset_is_none: bool = False) -> None:
    """Add a flag for each named ExperimentConfig field: the key in kebab-case,
    parsed by the field's annotation, with the field's help and default (and
    required when it has none). With unset_is_none every flag defaults to
    None, so that only the flags given override a config file."""
    for f in dataclass_fields(ExperimentConfig):
        if f.name in names:
            default = None if unset_is_none else f.default
            parser.add_argument(
                "--" + f.name.replace("_", "-"),
                type=FIELD_PARSERS[f.type],
                choices=SSC_MODES if f.name == "ssc_mode" else None,
                default=default,
                required=default is MISSING,
                help=f.metadata.get("help"),
            )


def cmd_gen(args) -> int:
    model = build_model(args.m, args.dims, args.counts, args.t, args.seed)
    data = generate(model)
    dataio.write_dataset(data, args.data, args.labels)
    print(f"m={model.ambient_dim} L={model.n_subspaces} N={model.n_points}")
    print(f"dims={','.join(str(b.dim) for b in model.bases)} counts={','.join(str(n) for n in model.counts)}")
    for i in range(model.n_subspaces):
        for j in range(i + 1, model.n_subspaces):
            print(f"aff({i},{j})={affinity(model.bases[i], model.bases[j]):.6f}")
    print(f"wrote {args.data} and {args.labels}")
    return 0


def cmd_cluster(args) -> int:
    ssc = SscConfig(mode=args.ssc_mode, alpha=args.alpha)
    tsc = TscConfig(q=args.q)
    data = dataio.read_dataset(args.data, args.labels)
    _check_p(args.p, data.dim)
    if args.p > 0 and args.projection == "none":
        raise ValueError("p > 0 needs a projection kind")
    working, time_project = _project(data, args.projection, args.p, args.proj_seed)
    cell = {
        "p": args.p,
        "algorithm": args.algorithm,
        "projection": args.projection if args.p > 0 else "none",
        "seed": args.proj_seed,
        "time_project_ms": time_project,
    }
    row, result, adj = _cluster_and_score(
        cell, working, ssc, tsc, args.clusters, args.kmeans_seed, args.l_max
    )
    dataio.write_labels_csv(args.out_labels, result.labels)
    print(f"L_hat={result.n_clusters}")
    if data.labels is not None:
        print(f"ce={row['ce']:.6f}")
        print(f"false_connections={row['false_connections']}")
    if args.timing_csv:
        _write_rows(args.timing_csv, SWEEP_FIELDS, [row])
    if args.adjacency_csv:
        dataio.write_adjacency_csv(args.adjacency_csv, adj)
    print(f"wrote {args.out_labels}")
    return 0


def cmd_sweep(args) -> int:
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError("config file must hold a JSON object")
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclass_fields(ExperimentConfig)
        if getattr(args, f.name) is not None
    }
    settings.update(overrides)
    config = ExperimentConfig.from_mapping(settings)
    rows = run_sweep(config)
    _write_rows(config.out, SWEEP_FIELDS, rows)
    _write_rows(summary_path(config.out), SUMMARY_FIELDS, summarize_rows(rows))
    failed = sum(1 for r in rows if r.get("error"))
    print(f"wrote {config.out} ({len(rows)} rows, {failed} failed)")
    print(f"wrote {summary_path(config.out)}")
    return 0


def cmd_check(args) -> int:
    _check_p_values(args.p_values, args.m)
    model = build_model(args.m, args.dims, args.counts, args.t, args.seed)
    cal = ProjectorCalibration(c_tilde=args.c_tilde)
    rows = []
    for p in args.p_values:
        if p > 0:
            proj = make_projector(
                args.kind, args.m, p, _subseed(args.seed, p, KINDS.index(args.kind) + 1)
            )
            projection = args.kind
        else:
            proj = None
            projection = "none"
        report = theorem_report(model, proj, cal, tau=args.tau, q=args.q)
        record = asdict(report)
        record["p"] = p
        record["projection"] = projection
        rows.append(record)
        print(
            f"p={record['p']} exact_ok={record['exact_ok']} "
            f"lasso_ok={record['lasso_ok']} tsc_ok={record['tsc_ok']}"
        )
    fields = ["projection"] + [f.name for f in dataclass_fields(TheoremReport)]
    _write_rows(args.out, fields, rows)
    print(f"wrote {args.out}")
    return 0


def cmd_ingest(args) -> int:
    if args.out_labels and args.labels is None:
        raise ValueError("no labels file given to copy")
    data = dataio.read_dataset(args.data, args.labels)
    points = data.points
    if args.renormalize:
        check_columns(data)
        points = points / np.linalg.norm(points, axis=0)
    print(f"N={points.shape[1]} D={points.shape[0]}")
    if data.labels is not None:
        values, counts = np.unique(data.labels, return_counts=True)
        hist = " ".join(f"{v}:{c}" for v, c in zip(values, counts))
        print(f"labels {hist}")
    if args.out_data:
        dataio.write_points_csv(args.out_data, points)
        print(f"wrote {args.out_data}")
    if args.out_labels:
        dataio.write_labels_csv(args.out_labels, data.labels)
        print(f"wrote {args.out_labels}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcluster",
        description="Subspace clustering on randomly projected data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model_keys = ("m", "dims", "counts", "t", "seed")
    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_config_flags(gen, model_keys)
    gen.add_argument("--data", required=True, help="output points CSV")
    gen.add_argument("--labels", required=True, help="output labels CSV")
    gen.set_defaults(func=cmd_gen)

    cluster = sub.add_parser("cluster", help="cluster a dataset from CSV")
    cluster.add_argument("--data", required=True, help="points CSV, one point per row")
    cluster.add_argument("--labels", default=None, help="optional ground-truth labels CSV")
    cluster.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    cluster.add_argument(
        "--projection", choices=("none",) + KINDS, default="none"
    )
    cluster.add_argument("--p", type=int, default=0, help="target dimension, 0 = no projection")
    cluster.add_argument("--proj-seed", type=int, default=0)
    _add_config_flags(cluster, ("q", "ssc_mode", "alpha", "l_max"))
    cluster.add_argument(
        "--clusters", type=int, default=None, help="force the cluster count (skip eigengap)"
    )
    cluster.add_argument("--kmeans-seed", type=int, default=0)
    cluster.add_argument("--out-labels", required=True, help="output predicted labels CSV")
    cluster.add_argument("--timing-csv", default=None, help="optional one-row timing CSV")
    cluster.add_argument("--adjacency-csv", default=None, help="optional adjacency dump")
    cluster.set_defaults(func=cmd_cluster)

    sweep = sub.add_parser("sweep", help="sweep p for each algorithm and projector kind")
    sweep.add_argument("--config", default=None, help="JSON config file")
    _add_config_flags(
        sweep, [f.name for f in dataclass_fields(ExperimentConfig)], unset_is_none=True
    )
    sweep.set_defaults(func=cmd_sweep)

    check = sub.add_parser("check", help="evaluate success conditions over p")
    _add_config_flags(check, model_keys + ("p_values", "q"))
    check.add_argument("--kind", choices=KINDS, default="gaussian")
    check.add_argument("--c-tilde", type=float, default=ProjectorCalibration.c_tilde)
    check.add_argument("--tau", type=float, default=2.0)
    check.add_argument("--out", required=True, help="output CSV, one row per p")
    check.set_defaults(func=cmd_check)

    ingest = sub.add_parser("ingest", help="validate and summarize an external CSV")
    ingest.add_argument("--data", required=True)
    ingest.add_argument("--labels", default=None)
    ingest.add_argument("--renormalize", action="store_true")
    ingest.add_argument("--out-data", default=None)
    ingest.add_argument("--out-labels", default=None)
    ingest.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
