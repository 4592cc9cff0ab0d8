"""The benchmark's tracer contract, checked without running the benchmark.

perfbench/workloads.py names, per workload, the mpb_lab functions every
traced run must see called ("module.function" or "module.Class.method",
relative to mpb_lab). A rename or removal in the package would otherwise
only show as a failed `perfbench/run.py --trace 1`. The workloads module
is loaded by path and imports nothing from mpb_lab.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
    return module.WORKLOADS


WORKLOADS = load_workloads()


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
