"""scripts/time_update.py at a toy size: it runs the taped update and reports."""
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "time_update.py"


def test_time_update_reports_each_update_and_peak_rss():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--hidden", "4", "--latent", "2", "--length", "3",
         "--batch", "2", "--updates", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "H=4 latent=2 L=3 B=2 F=25 updates=2"
    assert re.fullmatch(r"ms per update: \d+ \d+ \(median \d+\)", lines[1])
    assert re.fullmatch(r"RSS before the first update \d+ MB, peak \d+ MB", lines[2])
    assert len(lines) == 3


def test_time_update_rejects_an_empty_size():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--batch", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "every size must be >= 1" in proc.stderr
