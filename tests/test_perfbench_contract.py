"""The benchmark's contract with mpb_lab, checked without running the benchmark.

perfbench/workloads.py names, per workload, the mpb_lab functions every
traced run must see called ("module.function" or "module.Class.method",
relative to mpb_lab), and builds each workload's spec; perfbench/child.py
runs that spec, dispatching through harness.RUNNERS, and recomputes each
scheme's leakage from core.make_basis and analysis.plr_beta. A rename or
removal in the package would otherwise only show as a failed
`perfbench/run.py`. The workloads module is loaded by path and imports
nothing from mpb_lab. A traced run fails when an expected function
records no call, so each workload's preset also runs here at a tiny
size with every expected function counted wherever it is bound.
"""

import importlib
import importlib.util
import sys
from collections import Counter
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


def _count_calls(names, counts, monkeypatch):
    """Rebind every function named "module.function" (relative to
    mpb_lab) to a wrapper that counts its calls, in every mpb_lab module
    namespace and every dict in one, as perfbench/tracer.py binds its
    spans; a "module.Class.method" is wrapped on its class."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [module for key, module in sys.modules.items()
               if key == "mpb_lab" or key.startswith("mpb_lab.")]
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"mpb_lab.{module}")
        for attribute in path[:-1]:
            owner = getattr(owner, attribute)
        original = vars(owner)[path[-1]]
        wrapper = counted(name, original)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, path[-1], wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for entry, item in list(value.items()):
                        if item is original:
                            monkeypatch.setitem(value, entry, wrapper)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_expected_call_is_reached(workload, tmp_path, monkeypatch):
    # the workload's spec at 60 symbols and one trial, run as child.py
    # runs it: a function the route no longer reaches (or reaches only
    # through a binding the tracer cannot see) records zero calls
    spec = workloads.build_spec(harness, workload, workloads.DEFAULT_SEED,
                                str(tmp_path))
    spec.symbols, spec.trials = 60, 1
    spec.validate()
    expected = WORKLOADS[workload].expected_calls
    counts = Counter()
    _count_calls(expected, counts, monkeypatch)
    harness.write_result(harness.run_preset(spec), spec.output_dir)
    missing = [name for name in expected if counts[name] < 1]
    assert not missing, f"no call recorded: {missing}"
