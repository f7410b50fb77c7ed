"""``tools/deep_scaling.py`` at its smallest sizes."""

import re
import subprocess
import sys
from pathlib import Path

DEEP_SCALING = Path(__file__).resolve().parents[1] / "tools" / "deep_scaling.py"


def test_deep_scaling_prints_one_cell_per_engine_and_program():
    proc = subprocess.run([sys.executable, str(DEEP_SCALING), "--sizes", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == ("| program | `evaluate_policy` | `monte_carlo, 10,000 trials` "
                        "| `extremal_expectation` |")
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    assert [row[0] for row in rows] == ["list count, 200", "let chain, 500", "wide flips, 8"]
    for row in rows:
        assert len(row) == 4
        assert all(re.fullmatch(r"\d+\.\d\d s, \d+ MB", cell) for cell in row[1:]), row
