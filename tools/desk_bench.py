"""Time every preset at its desk scale: wall time and peak RSS per preset.

Usage:
    python3 tools/desk_bench.py --label before
    python3 tools/desk_bench.py --label after --preset threshold_sweep --preset pattern
    taskset -c 1 python3 tools/desk_bench.py --label after --repeat 3
    python3 tools/desk_bench.py --label paired --against ../parent --pairs 10

Each preset runs at its ``harness.default_spec`` size in a fresh Python
process with BLAS held to one thread, one process at a time. The child
imports the package from the ``src/`` directory next to this script, so
each checkout measures its own code. It times ``run_preset`` plus
``write_result`` (into a temporary directory), not the interpreter start
or the imports, and reports its own peak RSS, imports included: the
``VmHWM`` line of ``/proc/self/status``, which restarts at exec, or
``ru_maxrss`` where ``/proc`` is absent (on Linux ``ru_maxrss`` keeps
the high-water mark of the image before exec, so it can read the
spawning process's RSS). It also reports the minor page faults
(``ru_minflt``) taken over the timed region: pages the allocator
handed back to the system and touched afresh show there, not in the
peak. ``--repeat N`` runs every preset N times,
round-robin, and records every run with the median. Children inherit
the CPU affinity, so ``taskset`` pins them all.

Before the presets, one more child times the recursion layer alone:
``adaptive.run``, the recursion's stable entry point, on a MIC stack (10
elements, 10 monitor factor rows of random well-conditioned snapshots
per symbol) of 10 symbols and 1, 8 and 100 rows, in under a second. Its
median microseconds per row·symbol at each size go into the report as
``mic_step_us_per_row_symbol``; the figure includes ``run``'s checks of
its inputs and settings before the first symbol. The same
child times the GEVD layer: ``core.solve_batch`` on a fixed random,
well-conditioned stack of 138 pencils of 8 x 8 (a sweep's quiet pair
and 137-point grid), reported as ``gevd_us_per_pencil``, the median
microseconds per pencil.

The script writes ``BENCH_<label>.json`` at the repository root (or in
``--out-dir``): the label, the time it was written, the git HEAD
(``-dirty`` when tracked files differ from it), the interpreter, numpy
and CPU counts, and per preset the runs' ``wall_s`` and
``peak_rss_mb`` lists, their medians and ``peak_rss_source``, the
source of the peaks (``VmHWM`` or ``ru_maxrss``), and the runs'
``minor_faults`` with their median, plus the recursion step's and the
GEVD's figures. Run it in two checkouts on the same machine and compare the
medians. Per-stage times are not recorded here; they join once runs
write them next to their results.

Medians of separate invocations drift with the host (about 20 % on a
shared desk machine). ``--against DIR --pairs N`` measures a change
against another checkout instead: every pair runs a preset once in this
checkout and once in DIR, back to back, the first of the two
alternating from pair to pair. DIR's runs use DIR's ``src/`` and this
script. The report adds DIR, its git HEAD, its recursion step and
GEVD figures and its runs per preset (run i of each side is pair i), and per preset
and metric the pairs this checkout won (a lower value; ties count for
neither side) and both medians, which are also printed, one line per
preset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# the names in harness.PRESETS (tests/test_tools.py pins the set),
# spelled out so that this process never imports the package: where a
# child's peak falls back to ru_maxrss, it starts at its parent's RSS
PRESETS = (
    "threshold_sweep",
    "eigencurve",
    "pattern",
    "convergence",
    "tracking",
    "identical_delay",
)
# the layer-timing child's name, the stack sizes (rows) and symbol
# count it times the recursion at, and the shape of the pencil stack it
# solves
STEP = "recursion"
STEP_ROWS = (1, 8, 100)
STEP_SYMBOLS = 10
GEVD_STACK = (138, 8, 8)


def peak_rss(status: str = "/proc/self/status") -> tuple[float, str]:
    """This process's peak RSS in MB and its source: the VmHWM line of
    status, else (no such file or line) ru_maxrss."""
    try:
        with open(status) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0, "VmHWM"
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"


def minor_faults() -> int:
    """This process's minor page faults so far (ru_minflt)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(preset: str) -> int:
    """Run one preset at its default spec and print {wall_s,
    peak_rss_mb, peak_rss_source, minor_faults}."""
    import tempfile

    from mpb_lab import harness

    spec = harness.default_spec(preset)
    with tempfile.TemporaryDirectory() as tmp:
        faults = minor_faults()
        start = time.perf_counter()
        harness.write_result(harness.run_preset(spec), tmp)
        wall = time.perf_counter() - start
        faults = minor_faults() - faults
    peak, source = peak_rss()
    print(json.dumps({"wall_s": wall, "peak_rss_mb": peak, "peak_rss_source": source,
                      "minor_faults": faults}))
    return 0


def step_child() -> int:
    """Time adaptive.run on a MIC stack (10 elements, 10 factor rows per
    symbol, STEP_SYMBOLS symbols) at every STEP_ROWS stack size on fixed
    random snapshots, and core.solve_batch on a fixed GEVD_STACK of
    random well-conditioned pencils, and print
    {"mic_step_us_per_row_symbol": {rows: median us per row·symbol},
    "gevd_us_per_pencil": median us per pencil}, each over 5 samples (of
    at least 400 row·symbols, of 10 calls) after one warm-up call."""
    import numpy as np

    from mpb_lab import adaptive, core

    rng = np.random.default_rng(0)
    figures = {}
    for rows in STEP_ROWS:
        shape = (rows, STEP_SYMBOLS, 10, 30)
        x_i = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = adaptive.monitor_factors(x_i)
        x_s = np.ascontiguousarray(x_i[..., 0].swapaxes(1, 2))
        adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
        calls = -(-400 // (rows * STEP_SYMBOLS))
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                adaptive.run(x_s, factors, mu=0.95, delta=1e-2)
            samples.append((time.perf_counter() - start) * 1e6
                           / (calls * rows * STEP_SYMBOLS))
        figures[str(rows)] = statistics.median(samples)
    count, size, _ = GEVD_STACK
    r_s, r_i = (m @ m.conj().swapaxes(-1, -2) / (2 * size) + np.eye(size)
                for m in (rng.standard_normal((count, size, 2 * size))
                          + 1j * rng.standard_normal((count, size, 2 * size))
                          for _ in range(2)))
    pair = core.CovariancePair(r_s, r_i)
    core.solve_batch(pair)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(10):
            core.solve_batch(pair)
        samples.append((time.perf_counter() - start) * 1e6 / (10 * count))
    print(json.dumps({"mic_step_us_per_row_symbol": figures,
                      "gevd_us_per_pencil": statistics.median(samples)}))
    return 0


def run_child(preset: str, root: Path = ROOT) -> dict:
    """One child run of preset (or of the STEP timing) on the package
    in root/src."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", preset],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def git_head(root: Path = ROOT) -> str | None:
    """HEAD's short hash, with -dirty when tracked files are modified."""
    try:
        return subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def summary(samples: list[dict]) -> dict:
    """Every run's wall_s, peak_rss_mb and minor_faults, the median of
    each, and the peaks' sources (comma-joined if the runs differ)."""
    out = {}
    for key in ("wall_s", "peak_rss_mb", "minor_faults"):
        values = [run[key] for run in samples]
        out[key] = values
        out[f"median_{key}"] = statistics.median(values)
    out["peak_rss_source"] = ",".join(sorted({run["peak_rss_source"]
                                              for run in samples}))
    return out


def wins(this: list[dict], against: list[dict]) -> dict:
    """Per metric, the pairs this side won and both sides' medians."""
    return {
        key: {
            "wins": sum(a[key] < b[key] for a, b in zip(this, against)),
            "pairs": len(this),
            "median_this": statistics.median(run[key] for run in this),
            "median_against": statistics.median(run[key] for run in against),
        }
        for key in ("wall_s", "peak_rss_mb")
    }


def wins_line(preset: str, tally: dict) -> str:
    wall, rss = tally["wall_s"], tally["peak_rss_mb"]
    return (f"{preset}: wall_s {wall['wins']}/{wall['pairs']} wins "
            f"({wall['median_this']:.3f} vs {wall['median_against']:.3f} s), "
            f"peak_rss_mb {rss['wins']}/{rss['pairs']} wins "
            f"({rss['median_this']:.1f} vs {rss['median_against']:.1f} MB)")


def bench(label: str, presets: list[str], repeat: int, out_dir: Path,
          against: Path | None = None) -> Path:
    roots = {"this": ROOT, **({"against": against} if against else {})}
    steps = {side: run_child(STEP, root) for side, root in roots.items()}
    for side, figures in steps.items():
        print(f"{STEP} ({side}): " + ", ".join(
            f"{rows} rows {us:.2f}"
            for rows, us in figures["mic_step_us_per_row_symbol"].items())
            + f" us per row-symbol; solve_batch {figures['gevd_us_per_pencil']:.2f}"
            " us per pencil", file=sys.stderr)
    runs = {side: {preset: [] for preset in presets} for side in roots}
    for count in range(repeat):
        for preset in presets:
            for side in list(roots)[:: -1 if count % 2 else 1]:
                runs[side][preset].append(run_child(preset, roots[side]))
                last = runs[side][preset][-1]
                print(f"{preset} ({side}): {last['wall_s']:.3f} s, "
                      f"{last['peak_rss_mb']:.1f} MB, "
                      f"{last['minor_faults']} minor faults", file=sys.stderr)
    import numpy  # only after the children ran, as above

    report = {
        "label": label,
        "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_head": git_head(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **steps["this"],
        "presets": {preset: summary(samples)
                    for preset, samples in runs["this"].items()},
    }
    if against:
        tallies = {preset: wins(runs["this"][preset], runs["against"][preset])
                   for preset in presets}
        report["against"] = {
            "dir": str(against),
            "git_head": git_head(against),
            **steps["against"],
            "presets": {preset: summary(samples)
                        for preset, samples in runs["against"].items()},
            "wins": tallies,
        }
        for preset, tally in tallies.items():
            print(wins_line(preset, tally))
    path = out_dir / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names the output, BENCH_<label>.json")
    parser.add_argument("--preset", action="append", choices=PRESETS,
                        metavar="NAME",
                        help="time only this preset (repeatable; default: all)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per preset (default 1)")
    parser.add_argument("--out-dir", type=Path, default=ROOT,
                        help="where BENCH_<label>.json goes (default: repo root)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout to pair every run with")
    parser.add_argument("--pairs", type=int,
                        help="pairs per preset with --against (default 1)")
    parser.add_argument("--child", choices=(*PRESETS, STEP), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return step_child() if args.child == STEP else child(args.child)
    if not args.label or not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label is required: letters, digits, '-' and '_'")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.against is None and args.pairs is not None:
        parser.error("--pairs needs --against")
    if args.against is not None:
        if args.repeat != 1:
            parser.error("--against pairs runs with --pairs, not --repeat")
        if not (args.against / "src" / "mpb_lab").is_dir():
            parser.error(f"--against {args.against}: no src/mpb_lab there")
        if args.pairs is not None and args.pairs < 1:
            parser.error("--pairs must be at least 1")
        args.against = args.against.resolve()
    repeat = (args.pairs or 1) if args.against else args.repeat
    print(bench(args.label, args.preset or list(PRESETS), repeat, args.out_dir,
                args.against))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
