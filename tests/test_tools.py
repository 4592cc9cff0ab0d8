"""Smoke tests of the scripts under tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
