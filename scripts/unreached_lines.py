#!/usr/bin/env python3
"""Print the executable lines of ``src/botdet`` that no non-test caller reaches.

    python3 scripts/unreached_lines.py [SCRIPT ...]

Runs each of these in its own interpreter, with a ``sys.settrace`` line
tracer on the frames whose file is under ``src/botdet``:

- ``scripts/chain_digest.py`` (all of its stages)
- the five demos
- ``perfbench/run.py --trace 1 --seed 1 --seconds 2`` for the ``chain``,
  ``train`` and ``stream`` workloads

Given SCRIPT paths (relative to the checkout), only the runs of those
scripts. The tracer follows forked children: perfbench runs its set-up,
training and the checks' batch reference in forked workers, which leave
through ``os._exit``, so each child writes its lines before it exits.

Then it prints, per module, the executable lines (those that the modules'
code objects list) that no run reached, leaving out ``raise`` statements,
and a total. A line listed here that is not an error path or a
user-settable option has no caller outside the tests. The modules are
read again after the runs, so leave them unedited while it runs.

Nothing is written under the checkout: the runs' outputs and temporary
files go to a temporary directory, removed afterwards, and perfbench runs
from a copy there, because it writes ``out/`` beside itself. Bytecode is
not cached.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "botdet"

# (script relative to the checkout, its arguments); {tmp} is the temporary directory.
RUNS = [
    ("scripts/chain_digest.py", ["{tmp}/chain-digest"]),
    *((f"demos/{p.name}", []) for p in sorted((ROOT / "demos").glob("[0-9]*.py"))),
    *(("perfbench/run.py", ["--workload", w, "--seed", "1", "--seconds", "2", "--trace", "1"])
      for w in ("chain", "train", "stream")),
]

# Runs the script named in argv under the tracer, and writes the lines it
# reached, as [file, line] pairs, to <out dir>/lines-<pid>.json at exit.
CHILD = r"""
import atexit, json, os, runpy, sys, threading
out_dir, package, script, *args = sys.argv[1:]
package = os.path.realpath(package) + os.sep
reached, ours = set(), {}

def trace(frame, event, arg):
    name = frame.f_code.co_filename
    mine = ours.get(name)
    if mine is None:
        mine = ours[name] = os.path.realpath(name).startswith(package)
    if not mine:
        return None
    if event == "line":
        reached.add((name, frame.f_lineno))
    return trace

def dump():
    with open(os.path.join(out_dir, f"lines-{os.getpid()}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(sorted({(os.path.realpath(f), n) for f, n in reached}), fh)

real_exit = os._exit

def exit_after_dump(code):
    dump()
    real_exit(code)

os._exit = exit_after_dump
os.register_at_fork(after_in_child=lambda: sys.settrace(trace))
atexit.register(dump)
threading.settrace(trace)
sys.settrace(trace)
sys.argv = [script, *args]
sys.path[0] = os.path.dirname(script)
runpy.run_path(script, run_name="__main__")
"""


def executable_lines(path: Path) -> set[int]:
    """Lines that the module's code objects list, less those of raise statements."""
    text = path.read_text(encoding="utf-8")
    lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run(script: str, args: list[str], tmp: Path, env: dict) -> None:
    base = tmp if script.startswith("perfbench/") else ROOT
    argv = [a.format(tmp=tmp) for a in args]
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp / "lines"), str(PACKAGE),
                           str(base / script), *argv],
                          cwd=tmp / "work", env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, encoding="utf-8")
    if proc.returncode != 0:
        raise SystemExit(f"{script} {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("scripts", nargs="*", metavar="SCRIPT",
                    help="run only these of the default runs' scripts")
    args = ap.parse_args()
    runs = [r for r in RUNS if not args.scripts or r[0] in args.scripts]
    unknown = set(args.scripts) - {r[0] for r in RUNS}
    if unknown:
        ap.error(f"not among the runs' scripts: {sorted(unknown)}")

    with tempfile.TemporaryDirectory(prefix="unreached-") as name:
        tmp = Path(name)
        (tmp / "lines").mkdir()
        (tmp / "work").mkdir()
        # perfbench runs from a copy whose src is this checkout's.
        shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        (tmp / "src").symlink_to(SRC)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1",
               "TMPDIR": str(tmp / "work")}
        for script, script_args in runs:
            run(script, script_args, tmp, env)
        reached: set[tuple[str, int]] = set()
        for dump in (tmp / "lines").glob("lines-*.json"):
            reached.update(map(tuple, json.loads(dump.read_text(encoding="utf-8"))))

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = {n for f, n in reached if f == str(path.resolve())}
        missed = sorted(executable_lines(path) - hit)
        total += len(missed)
        if not hit:
            print(f"{path.relative_to(ROOT)}: not imported ({len(missed)} lines)")
        elif missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unreached: {ranges(missed)}")
    print(f"total: {total} unreached lines over {len(runs)} run{'s' * (len(runs) > 1)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
