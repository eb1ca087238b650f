"""The benchmark under perfbench/ reaches into botdet by name; every name must resolve.

``perfbench/tracing.py`` patches botdet attributes by name and
``perfbench/workloads.py`` imports and calls botdet names. A refactor that
drops or renames one of them breaks ``perfbench/run.py --trace 1`` without
failing any other test, so this one loads both files (without writing
anything under perfbench/) and checks each name.
"""
import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from botdet.train import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    modules = {}
    for name in ("hostspeed", "tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules


def test_tracer_patches_every_target_and_restores_the_original(perfbench):
    tracer = perfbench["tracing"].Tracer()
    try:
        tracer.install()  # a target botdet no longer has raises here
        patches = list(tracer._patches)  # (owner, attribute, original)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patches)
    finally:
        tracer.restore()
    assert len(patches) == 38
    assert all(owner.__dict__[attr] is original for owner, attr, original in patches)


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_every_botdet_name_the_workloads_use_resolves(perfbench):
    workloads = perfbench["workloads"]
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    checked = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        obj = workloads.__dict__.get(chain[0]) if chain else None
        if not (inspect.ismodule(obj) and obj.__name__.startswith("botdet")):
            continue
        for i, attr in enumerate(chain[1:], start=2):
            if not (inspect.ismodule(obj) or inspect.isclass(obj)):
                break
            assert hasattr(obj, attr), ".".join(chain[:i])
            obj = getattr(obj, attr)
        checked.add(".".join(chain))
    assert {"botdet.ingest.read_dataset", "botdet.ingest.iter_flows",
            "pipeline.train_model", "fileio.read_features", "cli.main"} <= checked


def test_the_train_job_times_one_step_per_update(perfbench):
    """train_job times each update from its beta_schedule call to its Adam step; a change
    to that call pattern in ``train._fit`` would leave the ``train`` metric empty."""
    workloads = perfbench["workloads"]
    rng = np.random.default_rng(0)
    ctx = {"seqs": [rng.uniform(0, 1, (n, len(workloads.FEATURE_NAMES))) for n in (3, 5, 4)],
           "cfg": TrainConfig(epochs=workloads.TRAIN_UPDATES, batch_size=4, hidden=4, latent=2)}
    job = workloads.train_job(ctx)
    assert len(job.steps) == workloads.TRAIN_UPDATES
    assert all(start < end for start, end in job.steps)
    assert job.failed == 0
