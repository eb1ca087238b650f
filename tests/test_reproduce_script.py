"""scripts/reproduce_ctu13.py end to end on a small tree shaped like CTU-13.

The full run needs the real dataset; this one runs the same code on three
synthetic 60-window scenarios (``<dir>/<digit>/*.binetflow``), subsampled to
their first half: enough botnet host-windows survive for fitpdf, and the two
training scenarios share host addresses and start time, so their
host-windows merge.
"""
import subprocess
import sys
from pathlib import Path

from botdet.synth import SynthConfig, write_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_ctu13.py"


def test_reproduction_script_runs_the_chain(tmp_path):
    for sid, profile in (("1", "test"), ("2", "train"), ("3", "train")):
        (tmp_path / "ctu" / sid).mkdir(parents=True)
        write_scenario(tmp_path / "ctu" / sid / f"capture{sid}.binetflow",
                       SynthConfig(seed=10 + int(sid), n_windows=60, profile=profile))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--ctu13-dir", str(tmp_path / "ctu"),
         "--out-dir", str(out), "--test-scenarios", "1", "--durations", "60",
         "--subsample", "0.5", "--hidden", "8", "--latent", "4", "--epochs", "2"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for kind in ("model", "detector", "report"):
        assert (out / f"{kind}-rvae-T60.json").stat().st_size > 0
    assert (out / "hist-rvae-T60.csv").read_text().startswith("bin_left,bin_right,")
    table = (out / "summary-table.txt").read_text().splitlines()
    assert table[0].split() == ["Run", "Recall", "Precision", "F1", "AUPRC", "AUROC"]
    assert table[1].startswith("RVAE T=60s")
    assert "scenario 2: kept up to t0+1800s" in proc.stdout
    assert "\n  scenario 1: 0.000  (720 host-windows)\n" in proc.stdout
    assert "target AUROC(60s) >= 0.92: PASS" in proc.stdout


def test_subsampling_a_capture_without_a_parseable_row_stops(tmp_path):
    (tmp_path / "ctu" / "1").mkdir(parents=True)
    capture = tmp_path / "ctu" / "1" / "capture1.binetflow"
    capture.write_text("StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,"
                       "sTos,dTos,TotPkts,TotBytes,SrcBytes,Label\nnot,a,flow\n")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--ctu13-dir", str(tmp_path / "ctu"),
         "--out-dir", str(tmp_path / "out"), "--subsample", "0.5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip() == f"{capture}: no parseable flow to subsample"
