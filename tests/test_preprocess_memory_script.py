"""scripts/preprocess_memory.py at a toy size: it builds the captures, runs preprocess and reports."""
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preprocess_memory.py"


def test_preprocess_memory_reports_flows_peak_rss_and_speed(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--flows", "3000",
                           "--work-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    counts = re.fullmatch(r"flows: train (\d+) test (\d+), host-windows (\d+)", lines[0])
    assert counts and int(counts[1]) >= 3000 and int(counts[2]) >= 300 and int(counts[3]) > 0
    assert re.fullmatch(r"preprocess RSS after imports [\d.]+ MB, peak [\d.]+ MB", lines[1])
    assert re.fullmatch(r"preprocess [\d.]+ s, \d+ flows/s", lines[2])
    assert len(lines) == 3
    assert (tmp_path / "synth-train.binetflow").exists()
