"""The benchmark workloads: how each builds its inputs, runs a job and checks it.

A job takes one input through to predicted labels and their score. Jobs call
rpcluster only through its public functions and ``rpcluster.cli.main``;
``run.py`` must put the package's ``src`` directory on ``sys.path`` before
importing this module. Why each workload exists is written in README.md.
"""

from __future__ import annotations

import contextlib
import io as stdio
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

import rpcluster as rp
from rpcluster import cli
from rpcluster import io as dataio

from spans import ROOT, NullTracer

# The lasso solver warns once per job about its unconverged columns; the
# benchmark reports the converged fraction itself.
warnings.filterwarnings(
    "ignore", message="self-representation did not converge", category=RuntimeWarning
)

MIRROR = "mirror"


@dataclass(frozen=True)
class Spec:
    name: str
    m: int
    n_subspaces: int
    dim: int
    per_subspace: int
    projection: str
    p: int
    graph: str  # "tsc" or "ssc"
    q: int | None
    instances: int  # distinct inputs per run; jobs cycle through them
    max_ce: float  # output check: ceiling on clustering error
    max_fcf: float  # output check: ceiling on the false-connection fraction
    via_cli: bool = False

    @property
    def n_points(self) -> int:
        return self.n_subspaces * self.per_subspace

    @property
    def projection_ops(self) -> float:
        """Computed operation count of one Gaussian projection of the whole input."""
        return 2.0 * self.p * self.m * self.n_points


SPECS = {
    s.name: s
    for s in (
        Spec("tsc_large_n", m=100, n_subspaces=6, dim=5, per_subspace=400,
             projection="gaussian", p=20, graph="tsc", q=8,
             instances=1, max_ce=0.15, max_fcf=0.20, via_cli=True),
        Spec("ssc_lasso_proj", m=100, n_subspaces=3, dim=5, per_subspace=50,
             projection="gaussian", p=20, graph="ssc", q=None,
             instances=4, max_ce=0.10, max_fcf=0.40),
    )
}


@dataclass
class Output:
    labels: np.ndarray
    n_clusters: int
    ce: float
    false_edges: int
    edges: int
    adj: rp.Adjacency | None = None
    infos: list | None = None
    status: int = 0  # CLI exit status
    printed: dict | None = None  # CLI "key=value" stdout lines
    mirror: "Output | None" = None  # traced CLI job: the in-process mirror's output

    def drop_graph(self) -> None:
        """Free the N x N adjacency once the job is checked, so kept outputs stay small."""
        self.adj = None
        if self.mirror is not None:
            self.mirror.adj = None

    @property
    def fcf(self) -> float:
        """False-connection fraction: edges joining different true clusters."""
        return self.false_edges / self.edges if self.edges else 0.0


@dataclass
class Instance:
    index: int
    data: rp.DataSet | None
    proj_seed: int
    kmeans_seed: int
    gen_seed: int = 0
    data_csv: str = ""
    labels_csv: str = ""
    out_csv: str = ""
    reference: Output | None = None  # CLI: in-process run on the same input


def _seeds(seed: int, index: int, n: int) -> list[int]:
    state = np.random.SeedSequence((seed, index)).generate_state(n)
    return [int(v) for v in state]


def cluster_in_process(spec: Spec, inst: Instance, points, truth, tr, job) -> Output:
    """Project, build the graph, cluster with the forced count, and score."""
    with tr.span("project.make", job):
        proj = rp.make_projector(spec.projection, spec.m, spec.p, inst.proj_seed)
    with tr.span("project.apply", job):
        x = rp.project_columns(proj, points)
    infos = None
    if spec.graph == "tsc":
        with tr.span("tsc.adjacency", job):
            adj = rp.tsc_adjacency(x, rp.TscConfig(q=spec.q))
    else:
        with tr.span("ssc.adjacency", job):
            adj, infos = rp.ssc_adjacency(x, rp.SscConfig(), return_info=True)
    with tr.span("spectral.cluster", job):
        result = rp.spectral_cluster(adj, spec.n_subspaces, seed=inst.kmeans_seed)
    with tr.span("metrics.score", job):
        ce = rp.clustering_error(result.labels, truth)
        fc = rp.false_connections(adj, truth)
    return Output(result.labels, result.n_clusters, ce, fc.count, fc.total_edges,
                  adj=adj, infos=infos)


def check(spec: Spec, inst: Instance, out: Output) -> str | None:
    """Why the job's output is wrong, or None when it passes every check."""
    if out.status != 0:
        return f"rpcluster exited with status {out.status}"
    n = spec.n_points
    if out.labels.shape != (n,):
        return f"{out.labels.shape} labels for {n} points"
    found = len(np.unique(out.labels))
    if out.n_clusters != spec.n_subspaces or found != spec.n_subspaces:
        return (f"asked for {spec.n_subspaces} clusters, got n_clusters="
                f"{out.n_clusters} with {found} distinct labels")
    if not out.ce <= spec.max_ce:
        return f"clustering error {out.ce} above the ceiling {spec.max_ce}"
    if not out.fcf <= spec.max_fcf:
        return f"false-connection fraction {out.fcf} above the ceiling {spec.max_fcf}"
    ref = inst.reference
    if ref is not None:
        if not np.array_equal(out.labels, ref.labels):
            return "labels written by the CLI differ from the in-process run"
        if int(out.printed.get("false_connections", -1)) != ref.false_edges:
            return "false_connections printed by the CLI differ from the in-process run"
        if abs(float(out.printed.get("ce", "nan")) - out.ce) > 1e-6:
            return "ce printed by the CLI differs from the labels it wrote"
        if out.mirror is not None and not np.array_equal(out.mirror.labels, out.labels):
            return "traced mirror labels differ from the CLI's"
    return None


def graph_stats(spec: Spec, out: Output, tr, job) -> dict:
    """Components and eigengap margin of the job's graph, spanned outside the job."""
    adj = out.adj if out.adj is not None else out.mirror.adj
    with tr.span("spectral.components", job) as rec:
        n_comp = int(rp.connected_components(adj).max()) + 1
    components_s = rec["end"] - rec["start"]
    with tr.span("spectral.eigengap", job):
        vals = rp.laplacian_eigenvalues(adj)
    # margin by which the gap after the forced count beats every other gap the
    # eigengap heuristic would consider (l_max = 10); positive means it picks L
    gaps = vals[1:11] - vals[:10]
    k = spec.n_subspaces - 1
    margin = float(gaps[k] - np.max(np.delete(gaps, k)))
    return {"components": n_comp, "components_s": components_s, "eigengap_margin": margin}


class InProcess:
    """Workloads driven through the library's public functions."""

    breakdown_root = ROOT
    # A build takes a few ms, and the machine's speed drifts over seconds, so
    # set-up is also sampled between jobs: each job's input is rebuilt this
    # many times after it, untimed by the job and by the timed phase.
    rebuilds_per_job = 5

    def __init__(self, spec: Spec):
        self.spec = spec

    def build(self, seed: int, index: int, workdir, tr, job) -> Instance:
        spec = self.spec
        s = _seeds(seed, index, spec.n_subspaces + 3)
        with tr.span("synth.generate", job):
            bases = tuple(
                rp.random_orthonormal_basis(spec.m, spec.dim, v)
                for v in s[: spec.n_subspaces]
            )
            counts = (spec.per_subspace,) * spec.n_subspaces
            data = rp.generate(rp.UnionModel(bases, counts, seed=s[-3]))
        return Instance(index, data, proj_seed=s[-2], kmeans_seed=s[-1])

    def prepare(self, inst: Instance) -> None:
        """Work after set-up that the timed jobs need; nothing here."""

    def job(self, inst: Instance, tr, job) -> Output:
        with tr.span(ROOT, job):
            return cluster_in_process(
                self.spec, inst, inst.data.points, inst.data.labels, tr, job
            )


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """Call rpcluster.cli.main with stdout captured; return status and key=value lines."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    printed = {}
    for line in buf.getvalue().splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            printed[key] = value
    return status, printed


class ViaCli:
    """A CSV workload: set-up runs ``rpcluster gen``, each job ``rpcluster cluster``."""

    breakdown_root = MIRROR
    # A build writes a 4 MB CSV in about 0.6 s; one rebuild after each job
    # spreads the set-up samples over the run, as for InProcess.
    rebuilds_per_job = 1

    def __init__(self, spec: Spec):
        self.spec = spec

    def _model_args(self) -> tuple[list[int], list[int]]:
        spec = self.spec
        return [spec.dim] * spec.n_subspaces, [spec.per_subspace] * spec.n_subspaces

    def build(self, seed: int, index: int, workdir, tr, job) -> Instance:
        spec = self.spec
        s = _seeds(seed, index, 3)
        inst = Instance(
            index, None, proj_seed=s[1], kmeans_seed=s[2], gen_seed=s[0],
            data_csv=os.path.join(workdir, f"points{index}.csv"),
            labels_csv=os.path.join(workdir, f"truth{index}.csv"),
            out_csv=os.path.join(workdir, f"pred{index}.csv"),
        )
        dims, counts = self._model_args()
        if isinstance(tr, NullTracer):
            status, _ = run_cli([
                "gen", "--m", str(spec.m),
                "--dims", ",".join(map(str, dims)),
                "--counts", ",".join(map(str, counts)),
                "--seed", str(inst.gen_seed),
                "--data", inst.data_csv, "--labels", inst.labels_csv,
            ])
            if status != 0:
                raise RuntimeError(f"rpcluster gen exited with status {status}")
        else:
            # traced set-up mirrors cmd_gen's public calls, so each layer gets a span
            with tr.span("synth.generate", job):
                data = rp.generate(cli.build_model(spec.m, dims, counts, None, inst.gen_seed))
            with tr.span("io.write", job):
                dataio.write_dataset(data, inst.data_csv, inst.labels_csv)
        return inst

    def prepare(self, inst: Instance) -> None:
        """Rebuild the input in memory and cluster it in process, as the reference."""
        dims, counts = self._model_args()
        inst.data = rp.generate(cli.build_model(self.spec.m, dims, counts, None, inst.gen_seed))
        inst.reference = cluster_in_process(
            self.spec, inst, inst.data.points, inst.data.labels, NullTracer(), None
        )
        inst.reference.drop_graph()

    def cluster_argv(self, inst: Instance) -> list[str]:
        spec = self.spec
        return [
            "cluster", "--data", inst.data_csv, "--labels", inst.labels_csv,
            "--algorithm", spec.graph, "--q", str(spec.q),
            "--projection", spec.projection, "--p", str(spec.p),
            "--proj-seed", str(inst.proj_seed), "--kmeans-seed", str(inst.kmeans_seed),
            "--clusters", str(spec.n_subspaces), "--out-labels", inst.out_csv,
        ]

    def job(self, inst: Instance, tr, job) -> Output:
        with tr.span(ROOT, job):
            status, printed = run_cli(self.cluster_argv(inst))
        mirror = None
        if not isinstance(tr, NullTracer):
            # the same public calls cmd_cluster makes, each in its own span
            with tr.span(MIRROR, job):
                with tr.span("io.read", job):
                    data = dataio.read_dataset(inst.data_csv, inst.labels_csv)
                mirror = cluster_in_process(
                    self.spec, inst, data.points, data.labels, tr, job
                )
                with tr.span("io.write", job):
                    dataio.write_labels_csv(inst.out_csv + ".mirror", mirror.labels)
        if status != 0:
            return Output(np.zeros(0, dtype=int), 0, math.nan, 0, 0,
                          status=status, printed=printed)
        labels = dataio.read_labels_csv(inst.out_csv)
        ref = inst.reference
        return Output(
            labels,
            int(printed.get("L_hat", -1)),
            rp.clustering_error(labels, inst.data.labels),
            ref.false_edges,
            ref.edges,
            status=status,
            printed=printed,
            mirror=mirror,
        )


def make(name: str):
    spec = SPECS[name]
    return ViaCli(spec) if spec.via_cli else InProcess(spec)
