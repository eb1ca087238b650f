"""scripts/unreached_lines.py on one demo: the lines it reports are those the demo never ran."""
import re
import subprocess
import sys
from pathlib import Path

import botdet.features

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "unreached_lines.py"


def _line_of(text: str) -> int:
    return next(i for i, line in enumerate(Path(botdet.features.__file__).read_text()
                                            .splitlines(), 1) if text in line)


def test_unreached_lines_of_the_first_demo():
    proc = subprocess.run([sys.executable, str(SCRIPT), "demos/01_flows_to_features.py"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "src/botdet/cli.py: not imported" in proc.stdout
    counts = [int(m[1]) for m in (re.search(r": (\d+) unreached: ", line) or
                                  re.search(r": not imported \((\d+) lines\)", line)
                                  for line in lines[:-1])]
    assert lines[-1] == f"total: {sum(counts)} unreached lines over 1 run"
    (features,) = [line for line in lines if line.startswith("src/botdet/features.py: ")]
    missed = set()
    for span in features.split(" unreached: ")[1].split(", "):
        lo, _, hi = span.partition("-")
        missed.update(range(int(lo), int(hi or lo) + 1))
    # The demo aggregates records through AggBuilder and never reads a FlowTable;
    # a raise statement is never listed, reached or not.
    assert _line_of("counts[_N_COL] += 1") not in missed
    assert _line_of("return _aggregate_table(records, t0, window_seconds)") in missed
    assert _line_of('raise ValueError(f"window_seconds must be positive') not in missed
