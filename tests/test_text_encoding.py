"""Every text file and pipe that botdet, its scripts and demos open names its encoding.

Without ``encoding=``, text I/O uses the locale's encoding, so the same
run can read or write different bytes on another machine. The scan is
static: it parses each file and checks the calls themselves.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src/botdet", "scripts", "demos") for p in (ROOT / d).rglob("*.py"))
SUBPROCESS = ("run", "Popen", "call", "check_call", "check_output")


def _keyword(call: ast.Call, name: str):
    return next((k.value for k in call.keywords if k.arg == name), None)


def _unencoded_text_io(call: ast.Call) -> str | None:
    """What ``call`` opens as text without an encoding, or None."""
    if _keyword(call, "encoding") is not None:
        return None
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "open":
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "os":
            return None  # os.open takes flags and returns a descriptor
        # open(file, mode, ...) and Path.open(mode, ...)
        position = 1 if isinstance(func, ast.Name) else 0
        mode = _keyword(call, "mode")
        if mode is None and len(call.args) > position:
            mode = call.args[position]
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            return None
        return "open"
    if name == "read_text" and not call.args or name == "write_text" and len(call.args) < 2:
        return name
    text = _keyword(call, "text") or _keyword(call, "universal_newlines")
    if name in SUBPROCESS and isinstance(text, ast.Constant) and text.value is True:
        return f"{name}(text=True)"
    return None


def _findings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {what}"
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            for what in [_unencoded_text_io(node)] if what]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_text_io_names_its_encoding(path):
    assert _findings(path) == []


@pytest.mark.parametrize("source,found", [
    ("open(p)", True), ("open(p, 'w')", True), ("open(p, mode='rt')", True),
    ("open(p, 'rb')", False), ("open(p, 'w', encoding='utf-8')", False),
    ("p.open()", True), ("p.open('rb')", False), ("os.open(p, os.O_RDONLY)", False),
    ("p.read_text()", True), ("p.read_text(encoding='utf-8')", False),
    ("p.write_text(s)", True), ("p.write_text(s, encoding='utf-8')", False),
    ("subprocess.run(cmd, text=True)", True),
    ("subprocess.run(cmd, text=True, encoding='utf-8')", False),
    ("subprocess.run(cmd, capture_output=True)", False),
    ("subprocess.check_output(cmd, universal_newlines=True)", True),
    ("rule(v, text=True)", False),
])
def test_the_scan_tells_text_io_without_an_encoding(source, found):
    call = ast.parse(source).body[0].value
    assert (_unencoded_text_io(call) is not None) is found
