#!/usr/bin/env python3
"""rpcluster benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload tsc_large_n --seed 1 --seconds 20 --trace 0

The runner builds the workload's inputs from ``--seed`` (timed as set-up),
runs one untimed warm-up job, then runs jobs back to back, one at a time in
this process, until ``--seconds`` have passed. Every job's output is checked.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs on the same inputs and reports per-layer
metrics, writing the spans as JSONL under ``perfbench/out/``. The last line
of stdout is one JSON object; the lines before it are a readable report.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from spans import ROOT, NullTracer, Tracer, duration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("tsc_large_n", "ssc_lasso_proj")
MIN_ROUNDS = 3
LAYERS = ("synth", "io", "project", "tsc", "ssc", "spectral", "metrics", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded, by library file."""
    counts = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(fn())
                break
    return counts


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS so it is counted too

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas_threads_exceed_nproc": any(t > nproc for t in threads.values()),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def median(values, default=0.0):
    return statistics.median(values) if values else default


class Run:
    """One workload run: set-up, warm-up, and the timed (and traced) phases."""

    def __init__(self, workload, seed, workdir):
        import workloads  # imports rpcluster, so only once src/ is on sys.path

        self.w = workloads
        self.wl = workloads.make(workload)
        self.spec = self.wl.spec
        self.seed = seed
        self.workdir = workdir
        self.results = []  # (job id, wall seconds, instance, error or None)
        # The first output per input that passed its checks. Outputs are
        # deterministic per input, and keeping every one (the SSC solver
        # history is ~1 MB a job) would make peak RSS grow with the job count.
        self.outputs = {}
        self.setup_times = []  # seconds per input build
        self.untimed_s = 0.0  # time spent rebuilding inputs between jobs
        self.next_job = 0
        self.stats = None  # graph statistics of the first traced job that passed

    def build(self, index, tr):
        """Build input `index` once, timed as set-up."""
        job = f"setup{index}.{len(self.setup_times)}"
        t0 = time.perf_counter()
        inst = self.wl.build(self.seed, index, self.workdir, tr, job)
        self.setup_times.append(time.perf_counter() - t0)
        return inst

    def setup(self, tr):
        insts = [self.build(i, tr) for i in range(self.spec.instances)]
        for inst in insts:
            self.wl.prepare(inst)
        return insts

    def one_job(self, inst, tr):
        job = self.next_job
        self.next_job += 1
        out, err = None, None
        t0 = time.perf_counter()
        try:
            out = self.wl.job(inst, tr, job)
        except Exception as exc:  # a failed job is counted and the run goes on
            err = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if err is None:
            err = self.w.check(self.spec, inst, out)
        if err is None and self.stats is None and not isinstance(tr, NullTracer):
            self.stats = self.w.graph_stats(self.spec, out, tr, job)
        if err is not None:
            print(f"job {job} failed: {err}", file=sys.stderr)
        elif inst.index not in self.outputs:
            out.drop_graph()
            self.outputs[inst.index] = out
        t0 = time.perf_counter()
        for _ in range(self.wl.rebuilds_per_job):
            self.build(inst.index, tr)
        self.untimed_s += time.perf_counter() - t0
        rec = (job, wall, inst, err)
        self.results.append(rec)
        return rec

    def phase(self, insts, seconds, tracers):
        """Run rounds of jobs for `seconds`, and at least MIN_ROUNDS of them.

        Round r takes input r mod len(insts) and runs one job on it under each
        tracer in turn, so traced and untraced jobs see the same inputs at
        nearly the same time. Returns the jobs of each tracer and the wall time.
        """
        recs = [[] for _ in tracers]
        t0, untimed0 = time.perf_counter(), self.untimed_s

        def elapsed():
            return time.perf_counter() - t0 - (self.untimed_s - untimed0)

        r = 0
        while r < MIN_ROUNDS or elapsed() < seconds:
            for tr, done in zip(tracers, recs):
                done.append(self.one_job(insts[r % len(insts)], tr))
            r += 1
        return recs, elapsed()


def quality(spec, outputs) -> dict:
    """Output quality averaged over the distinct inputs of the run (it is deterministic per input)."""
    outs = list(outputs.values())
    q = {
        "clustering_error": statistics.fmean(o.ce for o in outs) if outs else float("nan"),
        "false_connection_frac": statistics.fmean(o.fcf for o in outs) if outs else float("nan"),
    }
    if spec.graph == "ssc" and outs:
        q["solver_converged_frac"] = statistics.fmean(
            statistics.fmean(i.converged for i in o.infos) for o in outs
        )
        q["solver_kkt_max"] = statistics.fmean(max(i.kkt_residual for i in o.infos) for o in outs)
        q["iterations_mean"] = statistics.fmean(
            statistics.fmean(i.iterations for i in o.infos) for o in outs
        )
    return q


def end_to_end(run, timed, timed_wall) -> dict:
    walls = [wall for _, wall, _, err in timed if err is None]
    points = run.spec.n_points * len(walls)
    return {
        "job_s_p50": (median(walls), "s"),
        "points_per_s": (points / timed_wall, "points/s"),
        "setup_s": (median(run.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(run, tracer, traced, untraced, insts, stats) -> tuple[dict, dict]:
    """Per-layer metrics from the traced jobs, and the median self time per layer."""

    spec = run.spec
    traced_ids = [job for job, _, _, err in traced if err is None]
    setup_ids = sorted({s["job"] for s in tracer.spans if str(s["job"]).startswith("setup")})

    def per_job(name, jobs, field="wall"):
        vals = []
        for job in jobs:
            spans = tracer.named(name, job)
            if spans:
                vals.append(sum(duration(s) if field == "wall" else s["cpu"] for s in spans))
        return median(vals)

    def t(name):
        return per_job(name, traced_ids)

    def cpu(name):
        return per_job(name, traced_ids, "cpu")

    breakdowns = [tracer.job_breakdown(job, run.wl.breakdown_root) for job in traced_ids]
    self_s = {
        layer: median([b[1].get(layer, 0.0) for b in breakdowns]) for layer in LAYERS
    }
    attributed = median([sum(b[1].values()) / b[0] for b in breakdowns])
    job_s = median([b[0] for b in breakdowns])

    # each traced job ran right after an untraced job on the same input
    slowdown = [
        duration(tracer.named(ROOT, t[0])[0]) / u[1]
        for u, t in zip(untraced, traced) if u[3] is None and t[3] is None
    ]
    root_traced = median([duration(tracer.named(ROOT, job)[0]) for job in traced_ids])
    q = quality(spec, run.outputs)
    is_tsc = spec.graph == "tsc"
    main_s = root_traced if spec.via_cli else 0.0
    overhead = []
    if spec.via_cli:
        for job, (_, layers) in zip(traced_ids, breakdowns):
            main = duration(tracer.named(ROOT, job)[0])
            overhead.append(main - sum(layers.values()))
    read_mb = 0.0
    if spec.via_cli:
        read_mb = statistics.fmean(
            (os.path.getsize(i.data_csv) + os.path.getsize(i.labels_csv)) / 1e6 for i in insts
        )
    edges = statistics.fmean(o.edges for o in run.outputs.values())
    if spec.via_cli:
        self_s["cli"] = median(overhead)  # main() minus the mirrored steps
    metrics = {
        "io.read_s": (t("io.read"), "s"),
        "io.read_cpu_s": (cpu("io.read"), "s"),
        "io.read_mb": (read_mb, "MB"),
        "io.write_s": (per_job("io.write", setup_ids), "s"),
        "synth.generate_s": (per_job("synth.generate", setup_ids), "s"),
        "project.make_s": (t("project.make"), "s"),
        "project.apply_s": (t("project.apply"), "s"),
        "project.apply_cpu_s": (cpu("project.apply"), "s"),
        "project.ops": (spec.projection_ops, "ops"),
        "tsc.adjacency_s": (t("tsc.adjacency"), "s"),
        "tsc.adjacency_cpu_s": (cpu("tsc.adjacency"), "s"),
        "tsc.edges": (edges if is_tsc else 0.0, "count"),
        "tsc.dense_mb": (spec.n_points ** 2 * 8 / 1e6 if is_tsc else 0.0, "MB"),
        "ssc.adjacency_s": (t("ssc.adjacency"), "s"),
        "ssc.adjacency_cpu_s": (cpu("ssc.adjacency"), "s"),
        "ssc.column_ms": (t("ssc.adjacency") / spec.n_points * 1e3, "ms"),
        "ssc.iterations_mean": (q.get("iterations_mean", 0.0), "count"),
        "ssc.converged_frac": (q.get("solver_converged_frac", 0.0), "fraction"),
        "ssc.kkt_max": (q.get("solver_kkt_max", 0.0), "1"),
        "spectral.cluster_s": (t("spectral.cluster"), "s"),
        "spectral.cluster_cpu_s": (cpu("spectral.cluster"), "s"),
        "spectral.eigengap_margin": (stats["eigengap_margin"], "1"),
        "spectral.components": (stats["components"], "count"),
        "spectral.components_s": (stats["components_s"], "s"),
        "metrics.score_s": (t("metrics.score"), "s"),
        "metrics.clustering_error": (q["clustering_error"], "fraction"),
        "metrics.false_connection_frac": (q["false_connection_frac"], "fraction"),
        "cli.main_s": (main_s, "s"),
        "cli.overhead_s": (median(overhead), "s"),
        "trace.overhead_frac": (median(slowdown, 1.0) - 1.0, "fraction"),
        "trace.attributed_frac": (attributed, "fraction"),
    }
    return metrics, {"job_s": job_s, "self_s": self_s, "attributed_frac": attributed}


COMPUTED = ("io.read_mb", "project.ops", "tsc.dense_mb")


def report(workload, env, metrics, extra):
    print(f"workload {workload}")
    print("environment " + json.dumps(env, sort_keys=True))
    if env["blas_threads_exceed_nproc"]:
        print(f"WARNING: BLAS thread count {env['blas_threads']} exceeds nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:<30} {value:>14.6g} {unit}{note}")
    for key, value in extra.items():
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rpcluster" / "__init__.py").is_file():
        print(f"error: rpcluster sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # turn SIGTERM into SystemExit so the work directory is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    steal0, total0 = cpu_ticks()
    try:
        env = environment()
        run = Run(args.workload, args.seed, str(workdir))
        tracer = Tracer() if args.trace else NullTracer()
        insts = run.setup(tracer)
        run.one_job(insts[0], NullTracer())  # warm-up: untimed, but checked and counted
        if not args.trace:
            (timed,), timed_wall = run.phase(insts, args.seconds, [NullTracer()])
            metrics = end_to_end(run, timed, timed_wall)
            q = quality(run.spec, run.outputs)
            extra = {
                "timed jobs (job_s_p50 samples)": len(timed),
                "clustering_error (fraction)": q["clustering_error"],
                "false_connection_frac (fraction)": q["false_connection_frac"],
                "solver_converged_frac (fraction)": q.get("solver_converged_frac", "n/a"),
                "solver_kkt_max (1)": q.get("solver_kkt_max", "n/a"),
            }
        else:
            (untraced, traced), _ = run.phase(insts, args.seconds, [NullTracer(), tracer])
            if run.stats is None:
                raise RuntimeError("every traced job failed; no per-layer metrics")
            metrics, breakdown = per_layer(run, tracer, traced, untraced, insts, run.stats)
            spans_path = OUT / f"{args.workload}_seed{args.seed}.spans.jsonl"
            tracer.write_jsonl(spans_path)
            extra = {
                "traced jobs": len(traced),
                "traced job_s (median)": breakdown["job_s"],
                "self_s per layer (median)": json.dumps(breakdown["self_s"]),
                "spans": str(spans_path.relative_to(HERE.parent)),
            }
        steal1, total1 = cpu_ticks()
        # time the hypervisor ran something else on this machine's CPUs: a
        # high share explains a slow, noisy run
        env["cpu_steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
        attempted = len(run.results)
        failed = sum(1 for rec in run.results if rec[3] is not None)
        extra["failed_frac (fraction)"] = failed / attempted
        report(args.workload, env, metrics, extra)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "computed": [k for k in COMPUTED if k in metrics],
            "job_walls_s": [wall for _, wall, _, _ in run.results],
            "extra": extra,
        }
        with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
