"""The benchmark's contract with mpb_lab, checked without running the benchmark.

perfbench/workloads.py names, per workload, the mpb_lab functions every
traced run must see called ("module.function" or "module.Class.method",
relative to mpb_lab), and builds each workload's spec; perfbench/child.py
runs that spec, dispatching through harness.RUNNERS, and recomputes each
scheme's leakage from core.make_basis and analysis.plr_beta. A rename or
removal in the package would otherwise only show as a failed
`perfbench/run.py`. The workloads module is loaded by path and imports
nothing from mpb_lab.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mpb_lab import analysis, core, harness, scenario

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = load_workloads()
WORKLOADS = workloads.WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_expected_calls_resolve_to_callables(workload):
    expected = WORKLOADS[workload].expected_calls
    assert expected
    for name in expected:
        module, *attributes = name.split(".")
        target = importlib.import_module(f"mpb_lab.{module}")
        for attribute in attributes:
            assert hasattr(target, attribute), f"{workload}: {name} does not resolve"
            target = getattr(target, attribute)
        assert callable(target), f"{workload}: {name} is not callable"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_spec_builds_and_child_calls_bind(workload, tmp_path):
    # the spec a child runs, then child.py's expected-beta calls on it
    spec = workloads.build_spec(harness, workload, workloads.DEFAULT_SEED,
                                str(tmp_path))
    assert spec.preset == WORKLOADS[workload].preset
    code = scenario.generate_gold_codes(1)[0]
    for scheme in spec.schemes:
        basis = core.make_basis(
            scheme, code, monitor_freq=spec.monitor_freq,
            chip_index=spec.papc_chip_index,
        )
        assert basis.scheme == scheme
        assert isinstance(analysis.plr_beta(basis, code), float)


def test_runners_are_the_public_runners():
    # the tracer swaps the functions of one flat table, harness.RUNNERS
    assert harness.PRESETS == tuple(harness.RUNNERS)
    for preset in harness.PRESETS:
        assert harness.RUNNERS[preset] is getattr(harness, f"run_{preset}")
