#!/usr/bin/env python3
"""Run the README command chain on the synthetic fixture and digest what it leaves.

    PYTHONPATH=src python3 scripts/chain_digest.py OUT_DIR

Writes ``make_fixture()`` into OUT_DIR, then runs these stages through
``botdet.cli.main`` with OUT_DIR as the working directory and relative
paths: preprocess, train (--hidden 16 --latent 4 --epochs 5 --seed 0),
score on both splits, fitpdf, detect, evaluate, stream over the test
capture, stream again over ``synth-test-late.binetflow`` (the test capture
with the two rows of every 37th data-row pair swapped, so a pair that
straddles a window boundary gives a flow that is dropped as late), and a
60-second sweep at the same sizes. An MLP leg then trains
``--arch mlp --mlp-hidden 16,8`` on the same features, scores both splits,
and runs fitpdf and detect on those scores. A padded leg then runs
preprocess with ``--l-max 50`` into ``demo-l50/``, trains at the same sizes
and scores both splits: each 3-window span of 60 rows splits into 50 and
10 rows, so every training batch is padded. Each stage's stdout and
stderr are kept as ``stages/<stage>.stdout`` and ``.stderr``. An ``ingest``
stage first writes ``synth-test-odd-times.binetflow``, the test capture
with every 11th StartTime rewritten into a form that strptime still reads
(3 fraction digits, no fraction, or an unpadded hour, in turn), reads both
test captures with ``iter_flows``, and keeps in ``stages/ingest.stdout``
one line per capture: the sha256 of every field of every parsed record
(floats as ``float.hex``, the rest as text, in FlowRecord field order),
and the parsed and bad row counts. The script then prints one
``sha256  path`` line for every file under OUT_DIR: the captures, every
artifact, every ``*.run.json`` and every stage's output.

botdet is imported from the first place on the path, so the same script
checks another checkout with ``PYTHONPATH=<checkout>/src``: two runs whose
printed lines diff clean left every output byte-identical.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))  # after PYTHONPATH

from botdet.cli import main
from botdet.ingest import IngestStats, iter_flows
from botdet.synth import make_fixture

SIZES = ["--hidden", "16", "--latent", "4", "--epochs", "5", "--seed", "0"]
SPLITS = ["--manifest", "manifest.json", "--train-scenarios", "synth-train",
          "--test-scenarios", "synth-test"]
STAGES = [
    ("preprocess", ["preprocess", *SPLITS, "--out-dir", "demo"]),
    ("train", ["train", "--features", "demo/features-train.csv",
               "--model-out", "demo/model.json", *SIZES]),
    ("score-train", ["score", "--model", "demo/model.json",
                     "--features", "demo/features-train.csv",
                     "--scores-out", "demo/scores-train.csv"]),
    ("score-test", ["score", "--model", "demo/model.json",
                    "--features", "demo/features-test.csv",
                    "--scores-out", "demo/scores-test.csv"]),
    ("fitpdf", ["fitpdf", "--scores", "demo/scores-train.csv",
                "--detector-out", "demo/detector.json"]),
    ("detect", ["detect", "--scores", "demo/scores-test.csv",
                "--detector", "demo/detector.json",
                "--decisions-out", "demo/decisions.jsonl"]),
    ("evaluate", ["evaluate", "--scores", "demo/scores-test.csv",
                  "--decisions", "demo/decisions.jsonl", "--model", "demo/model.json",
                  "--report-out", "demo/report.json"]),
    ("stream", ["stream", "--model", "demo/model.json",
                "--detector", "demo/detector.json", "--input", "synth-test.binetflow"]),
    ("stream-late", ["stream", "--model", "demo/model.json",
                     "--detector", "demo/detector.json",
                     "--input", "synth-test-late.binetflow"]),
    ("sweep", ["sweep", *SPLITS, "--durations", "60", "--out-dir", "sweep", *SIZES]),
    ("train-mlp", ["train", "--features", "demo/features-train.csv",
                   "--model-out", "demo/model-mlp.json", "--arch", "mlp",
                   "--mlp-hidden", "16,8", *SIZES]),
    ("score-train-mlp", ["score", "--model", "demo/model-mlp.json",
                         "--features", "demo/features-train.csv",
                         "--scores-out", "demo/scores-train-mlp.csv"]),
    ("score-test-mlp", ["score", "--model", "demo/model-mlp.json",
                        "--features", "demo/features-test.csv",
                        "--scores-out", "demo/scores-test-mlp.csv"]),
    ("fitpdf-mlp", ["fitpdf", "--scores", "demo/scores-train-mlp.csv",
                    "--detector-out", "demo/detector-mlp.json"]),
    ("detect-mlp", ["detect", "--scores", "demo/scores-test-mlp.csv",
                    "--detector", "demo/detector-mlp.json",
                    "--decisions-out", "demo/decisions-mlp.jsonl"]),
    ("preprocess-l50", ["preprocess", *SPLITS, "--l-max", "50", "--out-dir", "demo-l50"]),
    ("train-l50", ["train", "--features", "demo-l50/features-train.csv",
                   "--model-out", "demo-l50/model.json", *SIZES]),
    ("score-train-l50", ["score", "--model", "demo-l50/model.json",
                         "--features", "demo-l50/features-train.csv",
                         "--scores-out", "demo-l50/scores-train.csv"]),
    ("score-test-l50", ["score", "--model", "demo-l50/model.json",
                        "--features", "demo-l50/features-test.csv",
                        "--scores-out", "demo-l50/scores-test.csv"]),
]
# FlowRecord's fields in order, named here so the digest reads any record type.
# ``service`` is a property derived from proto and dst_port, not a field; it is
# still hashed, in its old place, so listings compare across checkouts.
RECORD_FIELDS = (
    "start_time", "duration", "proto", "src_addr", "src_port", "direction", "dst_addr",
    "dst_port", "state", "service", "tot_pkts", "tot_bytes", "src_bytes", "label_raw",
)
SWAP_EVERY = 37  # the late copy swaps every 37th pair of data rows
ODD_EVERY = 11  # the odd-times copy rewrites every 11th StartTime
# Valid StartTime forms other than YYYY/MM/DD HH:MM:SS.ffffff; the test
# capture's hours are 09, so the last one always unpads.
ODD_FORMS = (
    lambda t: t[:23],                                   # 3 fraction digits
    lambda t: t[:19],                                   # no fraction
    lambda t: t[:11] + str(int(t[11:13])) + t[13:],     # unpadded hour
)


def write_swapped(src: Path, dst: Path, every: int) -> None:
    """Copy a capture with the two rows of every ``every``-th data-row pair swapped."""
    header, *rows = src.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(2 * every - 2, len(rows) - 1, 2 * every):
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    dst.write_text(header + "".join(rows), encoding="utf-8")


def write_odd_times(src: Path, dst: Path, every: int) -> None:
    """Copy a capture with every ``every``-th StartTime in the next of ODD_FORMS."""
    header, *rows = src.read_text(encoding="utf-8").splitlines(keepends=True)
    for k, i in enumerate(range(every - 1, len(rows), every)):
        start, rest = rows[i].split(",", 1)
        rows[i] = ODD_FORMS[k % len(ODD_FORMS)](start) + "," + rest
    dst.write_text(header + "".join(rows), encoding="utf-8")


def record_digest(path: Path) -> str:
    """sha256 of every parsed record's fields, with the parsed and bad row counts.

    Each record is one line of its RECORD_FIELDS, tab-separated: floats as
    ``float.hex``, the rest as text.
    """
    stats = IngestStats()
    digest = hashlib.sha256()
    for rec in iter_flows(path, stats=stats):
        values = (getattr(rec, name) for name in RECORD_FIELDS)
        digest.update(("\t".join(v.hex() if isinstance(v, float) else str(v)
                                 for v in values) + "\n").encode())
    return f"{digest.hexdigest()}  parsed={stats.parsed} bad={stats.errors}  {path.as_posix()}"


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    fixture = make_fixture(out_dir)
    write_swapped(fixture["test"], out_dir / "synth-test-late.binetflow", SWAP_EVERY)
    write_odd_times(fixture["test"], out_dir / "synth-test-odd-times.binetflow", ODD_EVERY)
    os.chdir(out_dir)
    Path("stages").mkdir(exist_ok=True)
    Path("stages/ingest.stdout").write_text("".join(
        record_digest(Path(name)) + "\n"
        for name in ("synth-test.binetflow", "synth-test-odd-times.binetflow")), encoding="utf-8")
    for name, argv in STAGES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        Path(f"stages/{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
        Path(f"stages/{name}.stderr").write_text(stderr.getvalue(), encoding="utf-8")
        if rc != 0:
            print(f"{name} exited {rc}: {stderr.getvalue().strip()}", file=sys.stderr)
            return 1
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    sys.exit(run(Path(sys.argv[1])))
