"""The names `benchmarks/tracing.py` wraps and calls still exist.

The tracer reaches into the package from outside, by name.  A rename
there would otherwise show up only when a traced benchmark run fails
(a KeyError in `Tracer.is_open`, an AttributeError in
`batch_peak_alloc_mb`), so this checks the contract at tier 1.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from patchnet import model, nnkit
from patchnet.model import HyperParams, ModelParams

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
