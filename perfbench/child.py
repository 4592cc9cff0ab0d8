"""One benchmark run of one workload in a fresh interpreter.

Spawned by run.py. Imports ``mpb_lab``, builds and validates the
workload's spec (this is the set-up the client times), then, unless only
set-up is measured, times ``run_preset`` through ``write_result`` and
writes a JSON report. With --trace 1 the layers are wrapped by the
tracer before the timed region and the per-function summary joins the
report; the spans themselves go to spans.npz in the output directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import time
from pathlib import Path


def _blas_threads(numpy) -> int:
    """Threads the bundled OpenBLAS will use, or -1 when it cannot be asked."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return -1


def _environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import mpb_lab
    import numpy
    from mpb_lab import analysis, core, harness, scenario

    import workloads

    out = Path(args.out)
    spec = workloads.build_spec(harness, args.workload, args.seed, str(out))
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(run_id=args.run_id)
        tracer_mod.install(tracer)
    report = {"ready_at": time.monotonic(), "mpb_lab": mpb_lab.__file__}
    if not args.setup_only:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = harness.run_preset(spec)
        results_path = harness.write_result(result, spec.output_dir)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            report["trace"] = tracer.summary()
            tracer.save(out / "spans.npz")
        code = scenario.generate_gold_codes(1)[0]
        report.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            results=str(results_path),
            digest=hashlib.sha256(results_path.read_bytes()).hexdigest(),
            spec={
                "preset": spec.preset,
                "symbols": spec.symbols,
                "trials": spec.trials,
                "schemes": list(spec.schemes),
                "scenario_names": list(spec.scenario_names),
                "inr_list_db": list(spec.inr_list_db),
                "snr_grid_db": [float(s) for s in spec.snr_grid_db],
            },
            expected_beta={
                scheme: analysis.plr_beta(
                    core.make_basis(
                        scheme, code, monitor_freq=spec.monitor_freq,
                        chip_index=spec.papc_chip_index,
                    ),
                    code,
                )
                for scheme in spec.schemes
            },
            env=_environment(numpy),
        )
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
