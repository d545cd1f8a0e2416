"""The names `benchmarks/tracing.py` wraps and calls still exist, and
what it reads of a work directory still reads right.

The tracer reaches into the package from outside, by name.  A rename
there would otherwise show up only when a traced benchmark run fails
(a KeyError in `Tracer.is_open`, an AttributeError in
`batch_peak_alloc_mb`), so this checks the contract at tier 1.
"""

import ast
import importlib
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import make_commit, simple_diff
from patchnet import model, nnkit
from patchnet.cli import EXIT_OK, run
from patchnet.core import HyperParams, Label
from patchnet.ingest import write_commits_jsonl
from patchnet.model import ModelParams
from patchnet.preprocess import PreprocessedPatch
from test_cli import PREPROCESS_DIMS, TRAIN_FLAGS

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Looked up by the tracer but deleted from the package; its metric,
# trainer.accuracy_pass_s, reads 0 until the next change to benchmarks/.
RETIRED = {"trainer.dataset_accuracy"}


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("tracing")


def _is_defined_in(module, attr: str) -> bool:
    fn = getattr(module, attr, None)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_traced_modules_exist(tracing):
    for short in tracing.MODULES:
        importlib.import_module(f"patchnet.{short}")


def test_traced_ops_are_nnkit_functions(tracing):
    missing = [op for op in tracing.OPS if not _is_defined_in(nnkit, op)]
    assert not missing


def test_traced_model_layers_exist(tracing):
    for full in tracing.MODEL_LAYERS:
        module, attr = full.split(".")
        assert module == "model"
        assert _is_defined_in(model, attr), full


def test_forward_and_params_signatures():
    sig = inspect.signature(model.forward)
    sig.bind(object(), object(), HyperParams(), mode="train", rng=np.random.default_rng(0))
    assert callable(ModelParams.all)
    inspect.signature(nnkit.backward).bind(object(), [])
    inspect.signature(nnkit.AdamState.for_param).bind(object())
    inspect.signature(nnkit.adam_step).bind(object(), object(), object())


def _looked_up_names() -> set[str]:
    """Every "<module>.<function>" literal tracing.py passes to total,
    durations, nid or is_open, compares with `name ==`, or lists in
    batch_parts."""
    names = set()
    for node in ast.walk(ast.parse((BENCHMARKS / "tracing.py").read_text())):
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            if func in ("total", "durations", "nid", "is_open") and node.args:
                names.add(node.args[0])
        elif (isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "name"
              and all(isinstance(op, ast.Eq) for op in node.ops)):
            names.update(node.comparators)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "batch_parts" for t in node.targets):
            names.update(node.value.elts)
    return {n.value for n in names if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_traced_names_are_wrapped_functions(tracing):
    """A renamed function would otherwise turn its per-layer metric into 0."""
    names = _looked_up_names()
    assert "codeprep.tokenize_code_line" in names and len(names) >= 29
    missing = []
    for full in sorted(names - RETIRED):
        short, attr = full.split(".")
        module = importlib.import_module(f"patchnet.{short}")
        if (short not in tracing.MODULES or attr.startswith("_") or not _is_defined_in(module, attr)
                or inspect.isgeneratorfunction(getattr(module, attr))):
            missing.append(full)
    assert not missing


def test_import_times_read_the_cli_import_log(tracing):
    # import_times finds patchnet.evalkit in what `import patchnet.cli`
    # imports, so the CLI keeps importing evalkit at top level.
    root = BENCHMARKS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = tracing.import_times(env, root)
    assert len(times) == 2
    assert all(isinstance(t, float) and t > 0 for t in times)


def _work_dir(w: Path) -> Path:
    """train.jsonl, tensors.bin and model.ckpt as a benchmark pass leaves them."""
    commits = [
        make_commit(i, subject=f"net: fix leak {i}" if i % 2 else f"mm: tune {i}",
                    diff=simple_diff(removed=(f"\told{i} = thing;",), added=("\tnew = thing;",)),
                    label=Label.STABLE if i % 2 else Label.NON_STABLE)
        for i in range(6)
    ]
    write_commits_jsonl(str(w / "train.jsonl"), commits)
    assert run(["preprocess", "--dataset", str(w / "train.jsonl"), "--out", str(w / "tensors.bin"),
                "--vocab-out", str(w / "vocab.json"), *PREPROCESS_DIMS]) == EXIT_OK
    assert run(["train", "--tensors", str(w / "tensors.bin"), "--vocab", str(w / "vocab.json"),
                "--functions", str(w / "tensors.bin.functions.json"), "--out", str(w / "model.ckpt"),
                *TRAIN_FLAGS, "--epochs", "1"]) == EXIT_OK
    return w


def test_tensor_facts_read_a_cli_work_dir(tracing, tmp_path):
    facts = tracing.tensor_facts(_work_dir(tmp_path))
    assert facts["preprocess.serve_skew_share"] == 0
    for name in ("preprocess.pad_row_share", "preprocess.distinct_row_share"):
        assert 0 <= facts[name] <= 1


def test_pipeline_never_decodes_dense_arrays(tmp_path, monkeypatch):
    # The dense views are for tests and the tracer; every stage reads the compact arrays.
    def refuse(self):
        raise AssertionError("dense view decoded")

    for name in ("message_tokens", "removed_code", "added_code"):
        monkeypatch.setattr(PreprocessedPatch, name, property(refuse))
    w = _work_dir(tmp_path)
    for source in ("tensors.bin", "train.jsonl"):
        assert run(["predict", "--checkpoint", str(w / "model.ckpt"), "--in", str(w / source),
                    "--out", str(w / "scores.jsonl")]) == EXIT_OK
