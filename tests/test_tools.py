"""Smoke tests of the scripts under tools/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from mpb_lab import harness

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tools_cover_every_preset():
    # a preset the bench or the digests miss would go unmeasured
    assert set(_load_tool("desk_bench").PRESETS) == set(harness.PRESETS)
    assert set(_load_tool("preset_digests").SIZES) == set(harness.PRESETS)


def test_desk_bench_writes_a_loadable_report(tmp_path):
    subprocess.run(
        [sys.executable, str(TOOLS / "desk_bench.py"), "--label", "smoke",
         "--preset", "pattern", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, text=True,
    )
    with (tmp_path / "BENCH_smoke.json").open() as handle:
        report = json.load(handle)
    assert report["label"] == "smoke"
    assert report["blas_threads"] == 1
    assert list(report["presets"]) == ["pattern"]
    pattern = report["presets"]["pattern"]
    assert len(pattern["wall_s"]) == len(pattern["peak_rss_mb"]) == 1
    assert 0.0 < pattern["median_wall_s"] == pattern["wall_s"][0]
    assert pattern["median_peak_rss_mb"] > 0.0


def _write_csv(root, text):
    (root / "sweep").mkdir(parents=True)
    (root / "sweep" / "results.csv").write_text(text)


def test_preset_digests_compare_reports_every_column_and_inf(tmp_path):
    _write_csv(tmp_path / "a", "# preset=sweep\nscheme,g_db,lambda1,threshold\n"
               "mic,1.0,2.0,inf\nmic,3.0,4.0,5.0\npapc,6.0,7.0,-inf\n")
    _write_csv(tmp_path / "b", "# preset=sweep\nscheme,g_db,lambda1,threshold\n"
               "mic,1.0,2.000002,inf\nmic,3.0003,4.000004,5.0\npapc,6.0,7.0,-2.5\n")
    done = subprocess.run(
        [sys.executable, str(TOOLS / "preset_digests.py"), "--compare",
         str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "sweep results.csv 4 inf"
    assert lines[1:] == [
        "  column lambda1: 2 cell(s), worst 1e-06",
        "  column g_db: 1 cell(s), worst 0.0001",
        "  column threshold: 1 cell(s), worst inf",
        "  inf column threshold row 2: '-inf' vs '-2.5'",
    ]
    # an inf that changed is not roundoff
    assert done.returncode == 1


def test_preset_digests_compare_passes_roundoff_only(tmp_path):
    _write_csv(tmp_path / "a", "snr_db,g_db\n1.0,2.0\n2.0,inf\n")
    _write_csv(tmp_path / "b", "snr_db,g_db\n1.0,2.0000000001\n2.0,inf\n")
    done = subprocess.run(
        [sys.executable, str(TOOLS / "preset_digests.py"), "--compare",
         str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        "sweep results.csv 1 5e-11",
        "  column g_db: 1 cell(s), worst 5e-11",
    ]
