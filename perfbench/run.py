"""Benchmark client for mpb_lab.

    python3 perfbench/run.py --workload sweep-fine --seed 20260819 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Closed loop, one client: each run of a workload is a fresh child process
(child.py) started only after the previous one has ended, with BLAS
pinned to one thread. With --trace 0 the client reports the end-to-end
metrics named in BENCHMARK.json, its times rescaled to a reference host
speed by a calibration kernel the client times before and after each
child (calibration.py); with --trace 1 it runs the workload
untraced and traced in turn and reports the per-layer metrics. Every
results.csv passes the output checks (checks.py) and must hash the same
as every other results.csv of the run, traced or not.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Each run is also appended to .bench_runs/results.jsonl,
which compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibration import REFERENCE_S, calibrate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUNS_DIR = ROOT / ".bench_runs"
# Set-up is short and noisy, so before each full child a run also starts
# this many children that only set up; one more runs first, uncounted, to
# fill the bytecode and page caches.
SETUP_PROBES = 2
# Functions listed by self time after a traced run.
LEADERS = 8
# A run must end within 180 s; children still running past this are killed.
RUN_BUDGET_S = 165.0
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def source_digest() -> str:
    """sha256 over the program's source files: the code identity of a run."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; git does not look above it."""
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


class Run:
    """One benchmark run: spawns children one at a time within the time
    budget and keeps the attempt/failure counts and samples."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.digests: set[str] = set()
        self.environment: dict = {}
        self.leaders: list = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, trace: int = 0, setup_only: bool = False, run_id: int = 0) -> dict:
        """Start one child, wait for it and return its report."""
        out = RUNS_DIR / self.workload / ("setup" if setup_only else f"trace{trace}-{run_id}")
        (out / "report.json").unlink(missing_ok=True)
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--out", str(out), "--trace", str(trace),
            "--run-id", str(run_id),
        ] + (["--setup-only"] if setup_only else [])
        remaining = RUN_BUDGET_S - self.elapsed()
        if remaining <= 0:
            raise ChildFailed("run budget exhausted")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(timeout=remaining)
        except BaseException as exc:  # timeout, interrupt or SIGTERM: reap the child
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"timed out after {remaining:.0f} s") from None
            raise
        if proc.returncode != 0:
            raise ChildFailed(f"exit {proc.returncode}: {err.strip()[-2000:]}")
        report = json.loads((out / "report.json").read_text())
        if Path(report["mpb_lab"]).resolve().parent.parent != ROOT / "src":
            raise ChildFailed(f"imported mpb_lab from {report['mpb_lab']}")
        report["setup_s"] = report["ready_at"] - spawned
        return report

    def attempt(self, trace: int = 0, setup_only: bool = False, run_id: int = 0) -> dict | None:
        """Spawn one counted child and check what it wrote.

        Returns the report of a child that ran to the end, even when its
        output failed a check (the failure is counted), and None when it
        did not.
        """
        self.attempted += 1
        problems: list[str] = []
        report = None
        try:
            report = self.spawn(trace, setup_only, run_id)
            if not setup_only:
                problems += checks.check_report(report)
        except (ChildFailed, OSError, ValueError, KeyError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        if report is not None and not setup_only:
            self.digests.add(report["digest"])
            if len(self.digests) > 1:
                problems.append("results.csv differs between runs of one seed")
            if trace:
                missing = [
                    name for name in WORKLOADS[self.workload].expected_calls
                    if report["trace"].get(name, {}).get("calls", 0) == 0
                ]
                if missing:
                    problems.append(f"traced run recorded no calls of {missing}")
            self.environment = report["env"]
        if problems:
            self.failed += 1
            self.problems += problems
        return report

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Closed loop until the time is up; end-to-end metrics (medians).

    Times are rescaled to the reference host speed by the mean of the
    calibrations timed just before the set-up probes and just after the
    full child (calibration.py); the probes share the full child's scale.
    """
    run.spawn(setup_only=True)  # warm-up, uncounted
    calibrate()  # warm-up, uncounted: imports numpy
    before = calibrate()
    iteration = 0
    while iteration == 0 or run.elapsed() < seconds:
        probes = [run.attempt(setup_only=True) for _ in range(SETUP_PROBES)]
        report = run.attempt(run_id=iteration)
        iteration += 1
        after = calibrate()
        calibration_s, before = (before + after) / 2, after
        if report is None:
            continue
        scale = REFERENCE_S / calibration_s
        for r in (*probes, report):
            if r is not None:
                run.sample("setup_measured_s", r["setup_s"])
                run.sample("setup_s", r["setup_s"] * scale)
        run.sample("wall_s", report["wall_s"])
        run.sample("calibration_s", calibration_s)
        run.sample("wall_ref_s", report["wall_s"] * scale)
        run.sample("peak_rss_mb", report["peak_rss_mb"])
    return {name: _median(values) for name, values in run.samples.items()}


# Functions whose call count and self time are reported per layer.
CALLS_AND_SELF = (
    "scenario.synthesize", "core.project_stream", "core.solve_batch",
    "harness.component_grams", "harness.SchemeGrams.covariance_pair",
    "linalg.hermitian_gevd", "linalg.rank_one_inverse_update",
    "linalg.power_iteration_step", "adaptive.run", "adaptive.update_symbol",
    "analysis.normalized_sinr_from_covariances", "analysis.output_sinr",
)


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    trace = report["trace"]

    def stat(name: str, key: str) -> float:
        return trace.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.self_s"] = stat(name, "self_s")
    m["scenario.synthesize.ns_per_chip_element"] = 1e9 * ratio(
        stat("scenario.synthesize", "self_s"),
        stat("scenario.synthesize", "chip_elements_sum"),
    )
    m["scenario.synthesize.out_mb"] = stat("scenario.synthesize", "out_bytes_max") / 2**20
    m["core.project_stream.out_mb"] = stat("core.project_stream", "out_bytes_max") / 2**20
    m["harness.write_result.self_s"] = stat("harness.write_result", "self_s")
    m["linalg.hermitian_gevd.us_per_call"] = 1e6 * ratio(
        stat("linalg.hermitian_gevd", "total_s"), stat("linalg.hermitian_gevd", "calls")
    )
    rows = len(checks.read_results(report["results"])[1])
    cells = rows * report["spec"]["trials"]
    m["linalg.gevd_per_cell"] = ratio(stat("linalg.hermitian_gevd", "calls"), cells)
    m["linalg.rank_one_inverse_update.per_symbol"] = ratio(
        stat("linalg.rank_one_inverse_update", "calls"),
        stat("adaptive.update_symbol", "calls"),
    )
    m["adaptive.update_symbol.us_per_symbol"] = 1e6 * ratio(
        stat("adaptive.update_symbol", "total_s"), stat("adaptive.update_symbol", "calls")
    )
    m["analysis.mvdr_optimum_sinr.calls"] = stat("analysis.mvdr_optimum_sinr", "calls")
    m["process.blas_threads"] = report["env"]["blas_threads"]
    return m


def trace_measure(run: Run, seconds: float) -> dict[str, float]:
    """Untraced and traced children in turn until the time is up (at least
    one of each); per-layer metrics are medians over the traced ones."""
    run.spawn(setup_only=True)  # warm-up, uncounted
    reports: dict[int, list[dict]] = {0: [], 1: []}
    iteration = 0
    while iteration < 2 or run.elapsed() < seconds:
        trace = iteration % 2
        report = run.attempt(trace=trace, run_id=iteration)
        iteration += 1
        if report is not None:
            reports[trace].append(report)
    if not reports[0] or not reports[1]:
        return {}
    for report in reports[1]:
        for name, value in layer_metrics(report).items():
            run.sample(name, value)
    run.leaders = sorted(
        reports[1][-1]["trace"].items(), key=lambda item: -item[1]["self_s"]
    )[:LEADERS]
    metrics = {name: _median(values) for name, values in run.samples.items()}
    untraced_wall = _median([r["wall_s"] for r in reports[0]])
    metrics["process.cpu_s"] = _median([r["cpu_s"] for r in reports[0]])
    metrics["trace.overhead_s"] = _median([r["wall_s"] for r in reports[1]]) - untraced_wall
    return metrics


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its record, whose "result" is the last line."""
    wanted = bench_spec()["per_layer" if trace else "end_to_end"]
    run = Run(workload, seed)
    source = source_digest()
    values = (trace_measure if trace else measure)(run, seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise ChildFailed(f"{workload}: no successful run gave {missing}; "
                          + "; ".join(run.problems[:5]))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "source": source, "git": git_sha(), "env": run.environment,
        "samples": run.samples, "problems": run.problems, "result": result,
        "leaders": run.leaders,
    }
    with (RUNS_DIR / "results.jsonl").open("a") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in run.problems:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    return record


def describe(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"correct={result['correct']} error_rate="
          f"{result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f} ratio")
    for name, metric in result["metrics"].items():
        n = len(record["samples"].get(name, [])) or 1
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']:<6} n={n}")
    if not record["trace"]:
        for name in ("wall_s", "setup_measured_s", "calibration_s"):
            values = record["samples"][name]
            print(f"  {name + ' (on this host, not rescaled)':<48} "
                  f"{_median(values):>14.6g} s      n={len(values)}")
    for name, stats in record["leaders"]:
        print(f"  leader {name:<41} self {stats['self_s']:9.3f} s "
              f"total {stats['total_s']:9.3f} s calls {stats['calls']}")
    env = record["env"]
    print(f"  env: python {env.get('python')}, numpy {env.get('numpy')}, "
          f"{env.get('blas')} with {env.get('blas_threads')} thread(s), "
          f"nproc {env.get('nproc')}, git {record['git'] or 'n/a'}, "
          f"src {record['source'][:12]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before calibrate() imports numpy here
    # The host's vCPUs slow down independently of each other, so the client
    # and its children share one: the calibration then times the CPU the
    # program ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an interrupt, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mpb_lab" / "__init__.py").is_file():
        print(f"error: no mpb_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
    if not 0 < seconds <= RUN_BUDGET_S:
        parser.error(f"--seconds must be in (0, {RUN_BUDGET_S:g}]")
    RUNS_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, seconds, args.trace)
            describe(record)
            results[name] = record["result"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
