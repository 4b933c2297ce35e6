#!/usr/bin/env python3
"""bellport benchmark: end-to-end CLI jobs, and a traced run split by module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scatter --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0

One process runs one workload as a closed loop: the next job starts when
the previous one has returned, and no threads are started.  With
``--trace 0`` jobs run for ``--seconds`` and the end-to-end metrics are
reported; with ``--trace 1`` a fixed number of cycles runs once untraced
and once under the span tracer, and the per-layer metrics are reported.
``--workload all`` runs every workload in its own child process and
prints every metric with its unit.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Each run also
writes bench/results/<workload>-seed<n>-trace<t>.json with the
environment, every metric and one record per job (wall time, error,
sha256 of its --deterministic CSV).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
OUT = HERE / ".out"
SETUP_REPEATS = 5
# Machine-speed calibration: a fixed kernel of the benchmark's own runs
# around each set-up and after every CAL_EVERY_S seconds of job time;
# timings are reported scaled to a machine on which it takes CAL_REF_S.
CAL_EVERY_S = 0.1
CAL_REF_S = 0.010
MAX_REPORTED_ERRORS = 5

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "units_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


@dataclass
class JobResult:
    key: str
    group: str
    units: int
    seconds: float
    error: str | None
    sha256: str | None


class Runner:
    """Runs jobs one at a time, timing only the program's own work."""

    def __init__(self, bp, cli, out: Path):
        self.bp, self.cli, self.out = bp, cli, out
        self.errors_reported = 0

    def run(self, job) -> JobResult:
        self.out.unlink(missing_ok=True)
        error = digest = None
        t0 = time.perf_counter()
        # A job or check that raises is counted as failed; the run goes on.
        try:
            result = self._cli(job.argv) if job.argv is not None else job.call(self.bp)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is None:
            try:
                error, digest = self._check(job, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error and self.errors_reported < MAX_REPORTED_ERRORS:
            self.errors_reported += 1
            print(f"job failed: {job.key}: {error}", file=sys.stderr)
        return JobResult(job.key, job.group, job.units, seconds, error, digest)

    def _check(self, job, result) -> tuple[str | None, str | None]:
        """(error or None, sha256 of the CSV for CLI jobs)."""
        if job.argv is None:
            return (job.check(result) if job.check else None), None
        if result != 0:
            return f"exit code {result}", None
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        return (job.check(data.decode()) if job.check else None), digest

    def _cli(self, argv) -> int:
        try:
            return self.cli.main([*argv, "--out", str(self.out), "--deterministic"])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


# ---------------------------------------------------------------------------
# environment


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> tuple[str, int | str]:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return name, fn()
    return name, os.environ.get("OPENBLAS_NUM_THREADS", "default")


def environment(seed: int) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload


def _import_program():
    """Import (or import again) bellport from this checkout's source tree."""
    if not (SRC / "bellport" / "__init__.py").is_file():
        raise SystemExit(f"error: no bellport source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bellport" or m.startswith("bellport.")]:
        del sys.modules[name]
    bellport = importlib.import_module("bellport")
    if Path(bellport.__file__).resolve().parent != SRC / "bellport":
        raise SystemExit(f"error: imported bellport from {bellport.__file__}, not {SRC}")
    return bellport, importlib.import_module("bellport.cli")


def _rate(results: list[JobResult]) -> float:
    return sum(r.units for r in results) / sum(r.seconds for r in results)


def mix_stats(results: list[JobResult], seconds: list[float], weights: dict) -> dict:
    """Rate and job-time percentiles of the workload's mix of job groups.

    A run stops part-way through a cycle, so its jobs over-represent some
    groups.  Each group is weighted by its share of a full period instead,
    which makes every run report the same mix.  Percentiles are those of
    the weighted distribution of job times.  ``seconds`` are the job
    times to use (raw or scaled).
    """
    import numpy as np

    by_group: dict[str, list[tuple[float, int]]] = {}
    for r, t in zip(results, seconds):
        by_group.setdefault(r.group, []).append((t, r.units))
    share = {g: weights[g] / len(v) for g, v in by_group.items()}
    units = sum(share[g] * u for g, v in by_group.items() for _, u in v)
    busy = sum(share[g] * t for g, v in by_group.items() for t, _ in v)
    points = sorted((t, share[g]) for g, v in by_group.items() for t, _ in v)
    times = np.array([t for t, _ in points])
    cum = np.cumsum([s for _, s in points])
    cum /= cum[-1]

    def quantile_ms(q):  # smallest time whose cumulative weight reaches q
        return float(times[min(np.searchsorted(cum, q), len(times) - 1)]) * 1e3

    return {"units_per_s": units / busy, "job_p50_ms": quantile_ms(0.5), "job_p90_ms": quantile_ms(0.9)}


class Calibration:
    """Fixed numpy/Python kernel whose time tracks the machine's speed.

    Small-state tensordot/moveaxis/norm steps with Python bookkeeping: the
    kind of work the program does, written without it, so that no program
    change moves it.  It makes no call large enough for BLAS threads.
    Samples are taken between jobs; each job's time is scaled by the mean
    of the samples just before and just after it, which share the job's
    machine state.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        self.np, self.v = np, v / np.linalg.norm(v)
        self.x = np.array([[0, 1], [1, 0]], dtype=complex)
        self.at: list[int] = []  # number of jobs finished when sampled
        self.seconds: list[float] = []

    def sample(self, jobs_done: int) -> None:
        np = self.np
        t0 = time.perf_counter()
        v, steps = self.v, []
        for i in range(300):
            t = np.tensordot(self.x, v.reshape((2,) * 6), axes=([1], [i % 6]))
            t = np.moveaxis(t, 0, i % 6).reshape(-1)
            v = t / np.linalg.norm(t)
            steps.append({"step": i, "amp": float(v[0].real)})
        self.seconds.append(time.perf_counter() - t0)
        self.at.append(jobs_done)

    def scale(self, n_jobs: int) -> list[float]:
        """Per job, CAL_REF_S over the mean of its neighbouring samples."""
        out = []
        k = 0
        for i in range(n_jobs):
            while k + 1 < len(self.at) and self.at[k + 1] <= i:
                k += 1
            nxt = min(k + 1, len(self.at) - 1)
            out.append(2 * CAL_REF_S / (self.seconds[k] + self.seconds[nxt]))
        return out


def measure(workload, cycle, runner, seed, seconds) -> tuple[list[JobResult], dict, dict]:
    results = []
    cal = Calibration()
    cal.sample(0)
    since = 0.0
    deadline = time.perf_counter() + seconds
    for _, job in workload.jobs(cycle, seed):
        results.append(runner.run(job))
        since += results[-1].seconds
        done = time.perf_counter() >= deadline
        if since >= CAL_EVERY_S or done:
            cal.sample(len(results))
            since = 0.0
        if done:
            break
    failed = sum(r.error is not None for r in results)
    weights = workload.group_weights(cycle)
    raw = mix_stats(results, [r.seconds for r in results], weights)
    raw["calibration_ms"] = statistics.median(cal.seconds) * 1e3
    raw["calibration_samples"] = len(cal.seconds)
    scaled = [r.seconds * f for r, f in zip(results, cal.scale(len(results)))]
    stats = mix_stats(results, scaled, weights)
    stats["ok_frac"] = 1.0 - failed / len(results)
    return results, stats, raw


def traced(workload, cycle, runner, seed) -> tuple[list[JobResult], dict, object]:
    from tracer import JOB_SPAN, Tracer, span_names

    jobs = []
    for c, job in workload.jobs(cycle, seed):
        if c == workload.trace_cycles:
            break
        jobs.append(job)
    untraced = [runner.run(job) for job in jobs]
    tracer = Tracer()
    tracer.install()
    try:
        results = []
        for i, job in enumerate(jobs):
            tracer.job_id = i
            with tracer.span(JOB_SPAN):
                results.append(runner.run(job))
    finally:
        tracer.uninstall()

    names = tracer.columns()["name"]
    own = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    calls_of = {}
    for name in span_names():
        mask = names == tracer.name_id(name)
        calls_of[name] = int(mask.sum())
        metrics[f"{name}.calls"] = (calls_of[name], "count")
        metrics[f"{name}.self_s"] = (float(own[mask].sum()), "s")
    attempts = tracer.counters["measure.forced.attempts"]
    useful = attempts - tracer.counters["measure.forced.impossible"]
    metrics["measure.forced.attempts"] = (attempts, "count")
    metrics["measure.forced.useful_frac"] = (useful / attempts if attempts else 0.0, "frac")
    samplers = calls_of["protocol.sample_scatter_channel"]
    draws = tracer.descendants_of("states.random_state", "protocol.sample_scatter_channel")
    metrics["protocol.sample_scatter_channel.draws_per_channel"] = (
        draws / samplers if samplers else 0.0,
        "count",
    )
    for name in ("channels.heisenberg_ring_ground", "channels.singlet_random"):
        metrics[f"{name}.peak_alloc_mib"] = (tracer.peak_alloc.get(name, 0) / 2**20, "MiB")
    metrics["cli.write_table.bytes"] = (tracer.counters["cli.write_table.bytes"], "B")
    rate_u, rate_t = _rate(untraced), _rate(results)
    metrics["trace.units_per_s_untraced"] = (rate_u, "1/s")
    metrics["trace.units_per_s_traced"] = (rate_t, "1/s")
    metrics["trace.overhead_frac"] = (rate_u / rate_t - 1.0, "frac")
    return untraced + results, metrics, tracer


def _compare_previous(path: Path, results: list[JobResult]) -> tuple[int, int]:
    """(CSVs whose sha256 differs from the previous result, CSVs compared)."""
    try:
        previous = json.loads(path.read_text())["jobs"]
    except (OSError, ValueError, KeyError):
        return 0, 0
    before = {j["key"]: j["sha256"] for j in previous if j.get("sha256")}
    now = {r.key: r.sha256 for r in results if r.sha256}
    common = before.keys() & now.keys()
    return sum(before[k] != now[k] for k in common), len(common)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    import numpy  # noqa: F401  # the runtime's import is not the program's set-up

    OUT.mkdir(parents=True, exist_ok=True)
    setups = []
    cal = Calibration()
    for i in range(SETUP_REPEATS):
        cal.sample(i)
        t0 = time.perf_counter()
        bp, cli = _import_program()
        runner = Runner(bp, cli, OUT / f"{workload.name}.csv")
        cycle, warmup = workload.prepare(bp, args.seed)
        for job in warmup:
            runner.run(job)
        setups.append(time.perf_counter() - t0)
    cal.sample(SETUP_REPEATS)
    setup_s = statistics.median(t * f for t, f in zip(setups, cal.scale(SETUP_REPEATS)))

    raw = None
    if args.trace:
        results, metrics, tracer = traced(workload, cycle, runner, args.seed)
    else:
        results, stats, raw = measure(workload, cycle, runner, args.seed, args.seconds)
        stats["setup_s"] = setup_s
        stats["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: (stats[k], E2E_UNITS[k]) for k in E2E_UNITS}

    failed = sum(r.error is not None for r in results)
    env = environment(args.seed)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{int(args.trace)}.json"
    changed, compared = _compare_previous(path, results)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "environment": env,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "jobs_attempted": len(results),
        "jobs_failed": failed,
        "failed_frac": failed / len(results),
        "setup_runs_s": setups,
        "csv_changed_vs_previous": changed,
        "csv_compared_vs_previous": compared,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": raw,
        "jobs": [r.__dict__ for r in results],
    }
    if args.trace:
        spans = RESULTS / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.save(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(env))
    print(f"jobs {len(results)} attempted, {failed} failed, failed_frac {failed / len(results)!r}")
    if raw:
        print("unscaled wall-time metrics " + json.dumps(raw))
    print(f"csv sha256 differing from the previous result (information only): {changed} of {compared}")
    for k, (v, u) in metrics.items():
        print(f"  {k:55s} {v!r} {u}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    status = 0
    table = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        ]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        table.append((name, result))
    for name, result in table:
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for k, m in result["metrics"].items():
            print(f"  {k:55s} {m['value']!r} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
