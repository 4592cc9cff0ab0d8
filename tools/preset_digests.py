"""Print the sha256 digest of every CSV the six presets write at one small spec.

Usage:
    python3 tools/preset_digests.py > digests.txt

Each preset runs once at a fixed size far below desk scale (a few
seconds in all) and the script prints one line per CSV it wrote:
``preset file sha256``. Run it in two checkouts and diff the outputs:
no difference means every results.csv and patterns_*.csv is
byte-identical at this spec, which is the evidence a change that must
not move any published number has to show. The package is imported
from the ``src/`` directory next to this script, so each checkout
measures its own code.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpb_lab import harness  # noqa: E402

SIZES: dict[str, dict[str, int]] = {
    "threshold_sweep": {"symbols": 400, "trials": 2},
    "eigencurve": {"symbols": 400, "trials": 1},
    "pattern": {"symbols": 400},
    "convergence": {"symbols": 40, "trials": 2},
    "tracking": {"symbols": 120, "trials": 2, "entry_interval": 40},
    "identical_delay": {"symbols": 400},
}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for preset, sizes in SIZES.items():
            spec = harness.default_spec(preset)
            for key, value in sizes.items():
                setattr(spec, key, value)
            out = Path(tmp) / preset
            harness.write_result(harness.run_preset(spec), out)
            for path in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{preset} {path.name} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
