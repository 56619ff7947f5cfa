"""Benchmark of copulabounds: three closed-loop workloads in one fresh process.

    python3 bench/run.py --workload table|grid|session --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from ``src/``. The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric with its unit from BENCHMARK.json.
Earlier lines hold the provenance and the sample counts. ``--trace 0``
reports the end-to-end metrics with no wrapper installed; ``--trace 1``
alternates untraced and traced jobs, so both see the same host conditions,
and reports the per-layer metrics.

Each run first does one warm-up job, whose outputs are fully validated and,
where recorded, compared with golden digests. Every later job must reproduce
the warm-up outputs byte for byte. An op that breaks any check counts as
failed; ``correct`` is false when an op fails that is not a known defect
listed in ``workloads.REJECTED``. ``--smoke`` runs every workload once at
reduced size, untraced and traced, and checks that the traced spans cover
all but ``MAX_UNTRACED_SHARE`` of the traced job's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("table", "grid", "session")
SETUP_PROBES = 21
MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
SMOKE_TABLE_N = 64
MAX_UNTRACED_SHARE = 0.02


def load_data() -> dict:
    table = json.loads((DATA / "table_reference.json").read_text())
    evals = json.loads((DATA / "eval_reference.json").read_text())
    golden = json.loads((DATA / "golden.json").read_text())
    return {
        "table": {(kind, round(k, 1)): m for kind, k, m in table["rows"]},
        "paper": {(kind, round(float(k), 1)): m
                  for kind, rows in table["paper"].items() for k, m in rows.items()},
        "eval": evals["values"],
        "golden": golden["commands"],
    }


def provenance(seed: int, workload: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = git_commit()
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in blas}, "git_commit": commit,
    }


def git_commit():
    """The checked-out commit, read from ``.git``; None outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def setup_seconds(workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter until it is ready to make its
    first call: imports done and the job generated."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                             "--workload", workload, "--seed", str(seed)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("setup probe failed")
    return elapsed


class Run:
    """Runs jobs of one workload, checks every outcome and keeps the tallies."""

    def __init__(self, workloads, ops, data, table_n):
        self.w, self.ops, self.data, self.table_n = workloads, ops, data, table_n
        self.attempted = self.failed = self.unexpected = 0
        self.first, self.errors, self.reasons = [], [], []

    def _tally(self, verdicts):
        self.attempted += len(verdicts)
        for op, (ok, reason) in zip(self.ops, verdicts):
            if not ok:
                self.failed += 1
                self.unexpected += not op.known_defect
                if reason and len(self.reasons) < 20:
                    self.reasons.append(f"{op.key}: {reason}")

    def warm_up(self) -> float:
        """First job, untimed; returns peak RSS in MB before validation runs."""
        _, self.first = self.w.run_job(self.ops, self.table_n)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = [self.w.validate(op, oc, self.data) for op, oc in zip(self.ops, self.first)]
        self.errors = [err for _, err, _ in results if err is not None]
        self.first_ok = [ok for ok, _, _ in results]
        self.first_digest = [oc.digest() for oc in self.first]
        self._tally([(ok, reason) for ok, _, reason in results])
        return peak_rss_mb

    def job(self):
        """One timed job; every op must reproduce its warm-up outcome."""
        wall, outcomes = self.w.run_job(self.ops, self.table_n)
        self._tally([
            (ok and oc.code == ref.code and oc.digest() == digest,
             "" if not ok else "output differs from the warm-up job")
            for oc, ref, digest, ok in zip(outcomes, self.first, self.first_digest, self.first_ok)])
        return wall, outcomes

    def loop(self, seconds, probe):
        """Jobs until ``seconds`` have passed and ``MIN_SAMPLES`` ops are timed,
        with ``SETUP_PROBES`` calls of ``probe`` spread evenly between them.

        The host's speed shifts in multi-second spells; probes spread over
        the run let the median of their times span those spells.
        """
        walls, lat, setups = [], [], []
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < seconds or len(lat) < MIN_SAMPLES:
            if len(setups) < SETUP_PROBES * elapsed / seconds:
                setups.append(probe())
            wall, outcomes = self.job()
            walls.append(wall)
            lat += [oc.latency for oc in outcomes]
        setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
        return walls, lat, setups

    def traced_loop(self, seconds, tracer):
        """Untraced and traced jobs in turn until ``seconds`` have passed."""
        walls, traced_walls, cpus = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            cpu = time.process_time()
            walls.append(self.job()[0])
            cpus.append(time.process_time() - cpu)
            tracer.install()
            try:
                traced_walls.append(self.job()[0])
            finally:
                tracer.uninstall()
        return walls, traced_walls, cpus

    def result(self, metrics):
        return {"correct": self.unexpected == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(workload, seed, seconds, trace, data):
    import workloads

    run = Run(workloads, workloads.build(workload, seed), data, workloads.TABLE_N)
    peak_rss_mb = run.warm_up()
    detail = {"ops_per_job": len(run.ops)}

    if not trace:
        walls, lat, setups = run.loop(seconds, lambda: setup_seconds(workload, seed))
        detail.update(jobs=len(walls), latency_samples=len(lat),
                      job_wall_quartiles=statistics.quantiles(walls, n=4))
        p50, p90 = statistics.median(lat), statistics.quantiles(lat, n=10)[8]
        metrics = {
            # seconds per job over the whole run, i.e. inverse throughput: the
            # host's speed shifts in multi-second spells, which makes job times
            # bimodal, and a median over them jumps between the modes
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "cmd_p50_ms": 1e3 * p50,
            "cmd_p90_ms": 1e3 * p90,
            # no reference comparison passed validation: report the worst scale
            "max_abs_err": max(run.errors, default=1.0),
            "ok_ratio": 1.0 - run.failed / run.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        return run, detail, metrics

    import tracing

    tracer = tracing.Tracer()
    walls, traced_walls, cpus = run.traced_loop(seconds, tracer)
    census = tracing.Census()
    census.install()
    try:
        run.job()
    finally:
        census.uninstall()
    layer = tracer.summary(len(traced_walls), sum(traced_walls))
    layer.update(census.shares())
    layer["effectiveness.conv_err"] = conv_err(workloads, run) if workload == "table" else 0.0
    layer["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
    layer["process.cpu_s"] = statistics.fmean(cpus)
    layer["cli.exit_nonzero"] = sum(op.kind != "row" and oc.code != 0 for op, oc in zip(run.ops, run.first))
    detail.update(untraced_jobs=len(walls), traced_jobs=len(traced_walls))
    return run, detail, layer


def conv_err(workloads, run) -> float:
    """Worst |m(n) - m(n/2)| over the table rows, computed untimed."""
    half = [workloads.run_row(op.argv, run.table_n // 2).output for op in run.ops]
    return max(abs(full.output - h) for full, h in zip(run.first, half))


def smoke(data) -> int:
    """Every workload once at reduced size, untraced then traced."""
    import tracing
    import workloads

    ok = True
    for name in WORKLOADS:
        run = Run(workloads, workloads.build(name, 0, small=True), data, SMOKE_TABLE_N)
        run.warm_up()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, _ = run.job()
        finally:
            tracer.uninstall()
        untraced_share = tracer.summary(1, wall)["bench.self.s"] / wall
        ok = ok and run.unexpected == 0 and untraced_share <= MAX_UNTRACED_SHARE
        print(json.dumps({"workload": name, "attempted": run.attempted, "failed": run.failed,
                          "unexpected": run.unexpected, "untraced_share": untraced_share,
                          "max_abs_err": max(run.errors) if run.errors else None,
                          "reasons": run.reasons}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "copulabounds" / "__init__.py").is_file():
        print(f"error: no copulabounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    import copulabounds

    if Path(copulabounds.__file__).resolve().parent != SRC / "copulabounds":
        print("error: copulabounds was not imported from this checkout", file=sys.stderr)
        return 2
    data = load_data()
    if args.smoke:
        return smoke(data)

    run, detail, metrics = measure(args.workload, args.seed, args.seconds, args.trace, data)
    print(json.dumps({"provenance": provenance(args.seed, args.workload)}))
    print(json.dumps({"detail": dict(detail, failures=run.reasons)}))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in spec[group]}
    print(json.dumps(run.result({k: {"value": v, "unit": units[k]} for k, v in metrics.items()})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
