"""Smoke tests of the scripts under tools/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    expected = "VmHWM" if Path("/proc/self/status").is_file() else "ru_maxrss"
    assert pattern["peak_rss_source"] == expected
    assert len(pattern["minor_faults"]) == 1
    assert 0 < pattern["median_minor_faults"] == pattern["minor_faults"][0]
    # the recursion layer: one MIC step at 1, 8 and 100 rows
    step = report["mic_step_us_per_row_symbol"]
    assert list(step) == ["1", "8", "100"]
    assert all(us > 0.0 for us in step.values())


def test_desk_bench_counts_minor_faults_of_fresh_pages():
    # 64 MiB touched for the first time fault at least once per page, or
    # per 2 MiB where the kernel backs them with huge pages
    tool = _load_tool("desk_bench")
    before = tool.minor_faults()
    fresh = np.ones(64 * 2**20 // 8)
    assert tool.minor_faults() - before >= fresh.nbytes // 2**21


def test_desk_bench_peak_falls_back_to_ru_maxrss(tmp_path):
    # no status file, or one without a VmHWM line: ru_maxrss
    tool = _load_tool("desk_bench")
    (tmp_path / "status").write_text("Name:\tpython\nVmRSS:\t 100 kB\n")
    for status in (tmp_path / "missing", tmp_path / "status"):
        peak, source = tool.peak_rss(str(status))
        assert source == "ru_maxrss" and peak > 0.0


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="needs /proc/self/status")
def test_desk_bench_child_peak_excludes_its_parent():
    # the child's VmHWM restarts at exec: this process holds 100 MB more
    # than a bare interpreter needs, and the child's peak shows none of it
    held = np.ones(100 * 2**20 // 8)
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import desk_bench; print(json.dumps(desk_bench.peak_rss()))")
    done = subprocess.run([sys.executable, "-c", code, str(TOOLS)], check=True,
                          capture_output=True, text=True)
    peak, source = json.loads(done.stdout)
    own, _ = _load_tool("desk_bench").peak_rss()
    assert source == "VmHWM"
    assert peak < 50.0 < own, (peak, own, held.nbytes)


@pytest.mark.parametrize("argv, message", [
    (["--pairs", "2"], "--pairs needs --against"),
    (["--against", "no-such-dir"], "no src/mpb_lab there"),
    (["--against", str(TOOLS.parent), "--repeat", "2"], "not --repeat"),
    (["--against", str(TOOLS.parent), "--pairs", "0"], "at least 1"),
], ids=["pairs_alone", "not_a_checkout", "with_repeat", "zero_pairs"])
def test_desk_bench_rejects_bad_pairing(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _load_tool("desk_bench").main(["--label", "x", *argv])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_desk_bench_wins_count_lower_values_and_no_ties():
    this = [{"wall_s": 1.0, "peak_rss_mb": 5.0}, {"wall_s": 3.0, "peak_rss_mb": 5.0},
            {"wall_s": 4.0, "peak_rss_mb": 2.0}]
    against = [{"wall_s": 2.0, "peak_rss_mb": 5.0}, {"wall_s": 3.0, "peak_rss_mb": 6.0},
               {"wall_s": 3.5, "peak_rss_mb": 9.0}]
    tally = _load_tool("desk_bench").wins(this, against)
    assert tally == {
        "wall_s": {"wins": 1, "pairs": 3, "median_this": 3.0, "median_against": 3.0},
        "peak_rss_mb": {"wins": 2, "pairs": 3, "median_this": 5.0,
                        "median_against": 6.0},
    }


def test_desk_bench_pairs_one_run_with_another_checkout(tmp_path):
    # this checkout against itself, one pair: both sides' runs, the
    # tally and its printed line
    done = subprocess.run(
        [sys.executable, str(TOOLS / "desk_bench.py"), "--label", "paired",
         "--preset", "pattern", "--against", str(TOOLS.parent), "--pairs", "1",
         "--out-dir", str(tmp_path)],
        check=True, capture_output=True, text=True,
    )
    with (tmp_path / "BENCH_paired.json").open() as handle:
        report = json.load(handle)
    against = report["against"]
    assert against["dir"] == str(TOOLS.parent)
    assert len(report["presets"]["pattern"]["wall_s"]) == 1
    assert len(against["presets"]["pattern"]["wall_s"]) == 1
    tally = against["wins"]["pattern"]
    assert set(tally) == {"wall_s", "peak_rss_mb"}
    for key, counts in tally.items():
        assert counts["pairs"] == 1 and counts["wins"] in (0, 1)
        assert counts["median_this"] == report["presets"]["pattern"][key][0]
        assert counts["median_against"] == against["presets"]["pattern"][key][0]
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pattern: wall_s ") and "peak_rss_mb" in lines[0]
    assert lines[-1] == str(tmp_path / "BENCH_paired.json")


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


def test_preset_digests_compare_counts_changed_cells_by_column(tmp_path):
    _write_csv(tmp_path / "a", "# preset=tracking\n# entry_0_symbol=50\n"
               "run,symbol,sinr_db\nstaggered,0,1.0\nstaggered,1,2.0\n"
               "control,0,3.0\ncontrol,1,4.0\n")
    _write_csv(tmp_path / "b", "# preset=tracking\n# entry_0_symbol=50\n"
               "run,symbol,sinr_db\nstaggered,0,1.0\nstaggered,1,2.0\n"
               "control,0,3.5\ncontrol,1,4.5\n")
    command = [sys.executable, str(TOOLS / "preset_digests.py"), "--compare",
               str(tmp_path / "a"), str(tmp_path / "b"), "--by"]
    done = subprocess.run([*command, "run"], capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines() == [
        "sweep results.csv 2 0.143",
        "  column sinr_db: 2 cell(s), worst 0.143",
        "  by run #: 0 cell(s)",
        "  by run staggered: 0 cell(s)",
        "  by run control: 2 cell(s)",
    ]
    done = subprocess.run([*command, "snr_db"], capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == "  no column snr_db"
    # --by counts cells; it does not forgive a changed non-numeric one
    _write_csv(tmp_path / "c", "run,symbol,sinr_db\nstaggered,0,1.0\n")
    _write_csv(tmp_path / "d", "run,symbol,sinr_db\ncontrol,0,1.0\n")
    done = subprocess.run(
        [sys.executable, str(TOOLS / "preset_digests.py"), "--compare",
         str(tmp_path / "c"), str(tmp_path / "d"), "--by", "run"],
        capture_output=True, text=True,
    )
    assert done.stdout.splitlines()[-1] == "  by run staggered: 1 cell(s)"
    assert done.returncode == 1
    done = subprocess.run(
        [sys.executable, str(TOOLS / "preset_digests.py"), "--by", "run"],
        capture_output=True, text=True,
    )
    assert done.returncode == 2 and "--compare" in done.stderr
