"""The package's public surface: every name has a caller, every manifest its options."""

import argparse
import ast
import json
from pathlib import Path

import pytest

from botdet.cli import build_parser, main

from test_cli import FAST_TRAIN, chain, fixture_dir  # noqa: F401  (module fixtures)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "botdet"
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench", ROOT / "demos"]


def _public_defs(tree: ast.Module):
    """Public top-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def _names(tree: ast.Module):
    """(name, line) for every name a file reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _botdet_module(node: ast.ImportFrom) -> str | None:
    """The botdet module an import reads from, by stem ('' for the package); else None."""
    if node.level:  # relative imports occur only inside the package
        return node.module or ""
    top, _, stem = (node.module or "").partition(".")
    return stem if top == "botdet" else None


def _module_references(tree: ast.Module, own: str | None):
    """((module, name), line) for every reference a file makes to a botdet module's name.

    A reference resolves to its module: ``ad.tanh`` with ``ad`` bound to
    botdet.autodiff, ``botdet.autodiff.tanh``, a name imported from
    botdet.autodiff, or a bare name read inside the module ``own``.
    """
    modules = {}  # local name -> the botdet module it is bound to; '' for the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top, _, stem = a.name.partition(".")
                if top == "botdet":
                    modules[a.asname or top] = stem if a.asname else ""
        elif isinstance(node, ast.ImportFrom) and _botdet_module(node) == "":
            modules.update((a.asname or a.name, a.name) for a in node.names)

    def module_of(expr) -> str | None:
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and module_of(expr.value) == "":
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and own:
            yield (own, node.id), node.lineno
        elif isinstance(node, ast.Attribute) and module_of(node.value):
            yield (module_of(node.value), node.attr), node.lineno
        elif isinstance(node, ast.ImportFrom) and _botdet_module(node):
            for a in node.names:
                yield (_botdet_module(node), a.name), node.lineno


def test_every_public_name_has_a_caller_outside_tests():
    """Each public function, class and method of ``src/botdet`` is named by a caller.

    A caller is code under src/botdet (not the package ``__init__.py``),
    scripts/, perfbench/ or demos/, outside the def itself; tests/ does not
    count, so a name that only its own test calls is flagged. A function or
    class is called only by a reference that resolves to its own module
    (``_module_references``), so ``np.tanh`` does not cover ``autodiff.tanh``.
    Methods match by bare name, since the type of ``x`` in ``x.step()`` is
    not known from the source: two methods that share a name cover each
    other, so this is a lower bound on what is unused, not a proof that the
    rest is used.
    """
    files = [p for d in CALLERS for p in sorted(d.glob("*.py"))
             if p != PACKAGE / "__init__.py"]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    names = {p: list(_names(t)) for p, t in trees.items()}
    refs = {p: list(_module_references(t, p.stem if p.parent == PACKAGE else None))
            for p, t in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, node in _public_defs(trees[path]):
            method = "." in qualname
            want = node.name if method else (path.stem, node.name)
            if not any(ref == want and not (p == path and node.lineno <= line <= node.end_lineno)
                       for p, found in (names if method else refs).items()
                       for ref, line in found):
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []


def _options(command: str) -> set[str]:
    """The options ``build_parser()`` registers for ``command``.

    ``--config`` is left out: it supplies values for the other options,
    and the manifest records the values they resolved to.
    """
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subs.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "config")}


@pytest.mark.parametrize("command,manifest", [
    ("preprocess", "preprocess.run.json"), ("train", "model.run.json"),
    ("score", "scores-test.run.json"), ("fitpdf", "detector.run.json"),
    ("detect", "decisions.run.json"), ("evaluate", "report.run.json"),
    ("sweep", "sweep/sweep.run.json"),
])
def test_run_manifest_records_every_option_but_the_outputs(chain, fixture_dir, tmp_path,
                                                           command, manifest):
    workdir = chain["model"].parent
    if command == "sweep":
        workdir = tmp_path
        assert main(["sweep", "--manifest", str(fixture_dir["manifest"]),
                     "--train-scenarios", "synth-train", "--test-scenarios", "synth-test",
                     "--durations", "60", "--out-dir", str(tmp_path / "sweep"),
                     *FAST_TRAIN, "--min-samples", "30", "--bins", "40"]) == 0
    payload = json.loads((workdir / manifest).read_text())
    options = _options(command)
    outputs = {o for o in options if o == "out_dir" or o.endswith("_out")}
    assert outputs  # every stage that writes a manifest names where it writes
    # train reads l_max from the features header, not from an option
    derived = {"l_max"} if command == "train" else set()
    assert payload["stage"] == command
    assert set(payload["config"]) == options - outputs | derived
