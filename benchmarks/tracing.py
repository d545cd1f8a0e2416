"""Traced single-process run: spans around every public `patchnet` function.

The tracer wraps, from the outside, each public function defined in a
`patchnet` module (every module-level name bound to it is replaced, so
`from .x import f` call sites are traced too) and the backward closure
of every tensor an `nnkit` op returns.  A span is (name, start, end,
parent); spans live in flat in-memory arrays and are written out once,
at the end.  Exact counters (rows entering the line module, conv MACs,
tape nodes, diff parses, stemmer calls) are taken at the same
boundaries from argument shapes, so they repeat bit-for-bit.

Nothing under `src/` is edited: `install` rebinds module attributes
and `uninstall` restores them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import subprocess
import sys
import time
import traceback
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import patchnet
from patchnet import cli, ingest, model, nnkit, trainer
from patchnet.preprocess import assemble_tensors, read_tensor_file
from pipeline import StageRun

MODULES = ("ingest", "stemmer", "textprep", "codeprep", "vocab", "preprocess",
           "nnkit", "model", "trainer", "evalkit")
OPS = ("embed_lookup", "conv_text", "conv3d_hunks", "max_pool", "concat", "dense",
       "sigmoid_score", "dropout", "loss", "stack")
REPORTED_OPS = OPS[:-1]
MODEL_LAYERS = {
    "model.message_embedding": "model.message",
    "model.line_embedding": "model.line",
    "model.code_side_embedding": "model.hunk",
}
FORWARD_LAYERS = ("model.message", "model.line", "model.hunk", "model.head")
LAYERS = ("cli", "ingest", "textprep", "stemmer", "codeprep", "vocab", "preprocess",
          *FORWARD_LAYERS, "nnkit", "trainer", "evalkit")
FRONT_END = ("ingest", "textprep", "stemmer", "codeprep", "preprocess")

# Every metric a traced run prints, in order, with its unit.
PER_LAYER = (
    [("cli.import_s", "s"), ("evalkit.import_s", "s")]
    + [(f"cli.{s}.peak_rss_mb", "MB") for s in ("ingest", "preprocess", "train", "predict")]
    + [("ingest.parse_export_s", "s"), ("ingest.eligibility_s", "s"), ("ingest.balance_s", "s"),
       ("ingest.jsonl_io_s", "s"), ("ingest.diff_parses_per_commit", "count"),
       ("textprep.message_tokens_s", "s"), ("stemmer.porter_stem_s", "s"),
       ("stemmer.calls_per_distinct_word", "count"),
       ("codeprep.function_table_s", "s"), ("codeprep.strip_s", "s"), ("codeprep.line_kinds_s", "s"),
       ("codeprep.tokenize_s", "s"), ("vocab.build_s", "s"),
       ("preprocess.assemble_p50_s", "s"), ("preprocess.assemble_p90_s", "s"),
       ("preprocess.tensor_write_s", "s"), ("preprocess.tensor_read_s", "s"),
       ("preprocess.pad_row_share", "share"), ("preprocess.distinct_row_share", "share"),
       ("preprocess.serve_skew_share", "share")]
    + [(f"model.{part}_{q}_s", "s") for part in ("message", "line", "hunk", "head", "forward") for q in ("p50", "p90")]
    + [("model.line_per_side_s", "s"), ("model.hunk_per_side_s", "s"), ("model.line_rows_per_patch", "count")]
    + [(f"nnkit.{d}.{op}_s", "s") for d in ("fwd", "bwd") for op in REPORTED_OPS]
    + [("nnkit.adam_s", "s"), ("nnkit.conv_macs_per_patch", "count"),
       ("nnkit.conv_block_bytes_per_patch", "B"), ("nnkit.tape_nodes_per_patch", "count"),
       ("trainer.batch_s", "s"), ("trainer.forward_per_patch_s", "s"), ("trainer.backward_per_patch_s", "s"),
       ("trainer.accuracy_pass_s", "s"), ("trainer.checkpoint_save_s", "s"), ("trainer.checkpoint_load_s", "s"),
       ("trainer.batch_peak_alloc_mb", "MB"), ("trainer.epoch1_loss", "nats"),
       ("evalkit.metrics_s", "s"), ("evalkit.baseline_s", "s")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [(f"forward_share.{layer}", "share") for layer in FORWARD_LAYERS]
    + [("share.front_end", "share"), ("trace.pipeline_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Span recorder plus the exact counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.stage = ""
        self.stemmed_words: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self._open[nid] += 1
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i: int, nid: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    def is_open(self, name: str) -> bool:
        return self._open[self._ids[name]] > 0

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        i = self._enter(nid)
        try:
            yield
        finally:
            self._exit(i, nid)

    def timed(self, name: str, fn, after=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(i, nid)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items()) if n == "patchnet" or n.startswith("patchnet.")]
        for short in MODULES:
            mod = sys.modules[f"patchnet.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.timed(name, fn, self._after_hook(name))
                for m in mods:
                    if getattr(m, attr, None) is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def _after_hook(self, name: str):
        short = name.split(".", 1)[1]
        if name.startswith("nnkit.") and short in OPS:
            bwd = f"nnkit.bwd.{short}"
            conv = short in ("conv_text", "conv3d_hunks")

            def after_op(args, out):
                if conv:
                    self._count_conv(args[0].data.shape, args[1].data.shape)
                if out is not args[0] and out._backward_fn is not None:
                    out._backward_fn = self.timed(bwd, out._backward_fn)
                    if self.is_open("model.forward") and self.is_open("trainer.train"):
                        self.counts["train_tape_nodes"] += 1

            return after_op
        if name == "model.line_embedding":
            return lambda args, out: self.counts.update(line_rows=int(np.prod(np.shape(args[0])[:-1])))
        if name == "model.forward":
            return lambda args, out: self.counts.update(forwards=1)
        if name == "stemmer.porter_stem":
            def after_stem(args, out):
                self.counts[f"{self.stage}.porter_stem"] += 1
                if self.stage == "preprocess":
                    self.stemmed_words.add(args[0])

            return after_stem
        if name == "ingest.parse_unified_diff":
            return lambda args, out: self.counts.update({f"{self.stage}.diff_parses": 1})
        return None

    def _count_conv(self, x_shape, f_shape) -> None:
        """MACs and window-block bytes of one conv call, from shapes alone."""
        n_filters, k, *tail = f_shape
        extra = len(tail)
        lead = x_shape[: len(x_shape) - 1 - extra]
        windows = int(np.prod(lead)) * (x_shape[-1 - extra] - k + 1)
        block = k * int(np.prod(tail))
        self.counts["conv_macs"] += windows * n_filters * block
        self.counts["conv_block_bytes"] += windows * block * 8

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def run_stage_in_process(name: str, args: list[str], tracer: "Tracer | None" = None):
    """One CLI stage through `cli.run` in this process; with a tracer,
    inside a span named after the stage."""
    out, err = io.StringIO(), io.StringIO()
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.stage = name
        span = tracer.span(f"cli.{name}")
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(args)
        except Exception:  # a traceback is a stage failure, recorded not raised
            traceback.print_exc(file=err)
            code = 1
    return StageRun(name, time.perf_counter() - start, 0.0, code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Analysis


def _ancestor(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For every span, the index of its nearest ancestor-or-self in mask, else -1.

    Parents precede children, so each pass resolves one more level.
    """
    idx = np.arange(len(parent))
    up = np.maximum(parent, 0)
    anc = np.where(mask, idx, -1)
    while True:
        nxt = np.where(mask, idx, np.where(parent >= 0, anc[up], -1))
        if np.array_equal(nxt, anc):
            return anc
        anc = nxt


def _q(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def analyse(tracer: Tracer, export_commits: int) -> dict:
    """Per-layer times, shares and exact counts from the recorded spans."""
    a = tracer.arrays()
    names = np.asarray(tracer.names)
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    def nid(s):
        return tracer._ids.get(s, -1)

    def total(s):
        return float(dur[name == nid(s)].sum())

    def durations(s, where=None):
        sel = name == nid(s)
        if where is not None:
            sel &= where
        return dur[sel]

    # Layer of each span: model functions by role, nnkit ops inherit the
    # model layer they run in, everything else its module.
    layer_of_name = np.full(len(names), -1, dtype=np.int64)
    for j, full in enumerate(names):
        module, short = full.split(".", 1)
        if module == "nnkit" and (short in OPS or short.startswith("bwd.")):
            continue
        layer_of_name[j] = LAYERS.index(MODEL_LAYERS.get(full, "model.head" if module == "model" else module))
    layer = layer_of_name[name]
    inherit = layer < 0
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    model_ids = [LAYERS.index(x) for x in FORWARD_LAYERS]
    layer[inherit] = np.where(np.isin(parent_layer[inherit], model_ids), parent_layer[inherit], LAYERS.index("nnkit"))
    layer_self = np.bincount(layer, weights=self_t, minlength=len(LAYERS))

    in_train = _ancestor(name == nid("trainer.train"), parent) >= 0
    fwd_anc = _ancestor(name == nid("model.forward"), parent)
    infer_fwd = (name == nid("model.forward")) & ~in_train
    train_fwd = (name == nid("model.forward")) & in_train

    # Per inference forward: time in each forward layer.
    order = -np.ones(n, dtype=np.int64)
    order[infer_fwd] = np.arange(int(infer_fwd.sum()))
    inside = (fwd_anc >= 0) & infer_fwd[np.maximum(fwd_anc, 0)]
    key = order[fwd_anc[inside]] * len(LAYERS) + layer[inside]
    per_fwd = np.bincount(key, weights=self_t[inside], minlength=int(infer_fwd.sum()) * len(LAYERS))
    per_fwd = per_fwd.reshape(-1, len(LAYERS))
    fwd_total = dur[infer_fwd].sum()

    line_sel = (name == nid("model.line_embedding")) & ~in_train
    side_sel = (name == nid("model.code_side_embedding")) & ~in_train
    line_in_side = np.bincount(parent[line_sel], weights=dur[line_sel], minlength=n)
    hunk_side = dur[side_sel] - line_in_side[side_sel]

    c = tracer.counts
    forwards = max(1, c["forwards"])
    n_train_fwd = max(1, int(train_fwd.sum()))
    backward_s = float(dur[(name == nid("nnkit.backward")) & in_train].sum())
    n_batches = max(1, int(((name == nid("nnkit.backward")) & in_train).sum()))
    batch_parts = ("nnkit.loss", "nnkit.stack", "nnkit.adam_step")
    batch_s = (float(dur[train_fwd].sum()) + backward_s
               + sum(float(durations(s, in_train).sum()) for s in batch_parts)) / n_batches
    load_self = self_t[name == nid("ingest.load_commits")].sum()

    out = {
        "ingest.parse_export_s": total("ingest.parse_commit_stream"),
        "ingest.eligibility_s": total("ingest.check_eligibility"),
        "ingest.balance_s": total("ingest.build_balanced_dataset"),
        "ingest.jsonl_io_s": total("ingest.write_commits_jsonl") + float(load_self),
        "ingest.diff_parses_per_commit": c["ingest.diff_parses"] / export_commits,
        "textprep.message_tokens_s": total("textprep.message_tokens"),
        "stemmer.porter_stem_s": total("stemmer.porter_stem"),
        "stemmer.calls_per_distinct_word": c["preprocess.porter_stem"] / max(1, len(tracer.stemmed_words)),
        "codeprep.function_table_s": total("codeprep.build_function_table"),
        "codeprep.strip_s": total("codeprep.strip_comments_strings"),
        "codeprep.line_kinds_s": total("codeprep.classify_line_kinds"),
        "codeprep.tokenize_s": total("codeprep.tokenize_code_line"),
        "vocab.build_s": float(self_t[name == nid("vocab.build_vocab")].sum()),
        "preprocess.assemble_p50_s": _q(durations("preprocess.assemble_tensors"), 50),
        "preprocess.assemble_p90_s": _q(durations("preprocess.assemble_tensors"), 90),
        "preprocess.tensor_write_s": total("preprocess.write_tensor_file"),
        "preprocess.tensor_read_s": total("preprocess.read_tensor_file"),
        "model.line_per_side_s": _q(dur[line_sel], 50),
        "model.hunk_per_side_s": _q(hunk_side, 50),
        "model.line_rows_per_patch": c["line_rows"] / forwards,
        "nnkit.adam_s": total("nnkit.adam_step"),
        "nnkit.conv_macs_per_patch": c["conv_macs"] / forwards,
        "nnkit.conv_block_bytes_per_patch": c["conv_block_bytes"] / forwards,
        "nnkit.tape_nodes_per_patch": c["train_tape_nodes"] / n_train_fwd,
        "trainer.batch_s": batch_s,
        "trainer.forward_per_patch_s": float(dur[train_fwd].mean()) if train_fwd.any() else 0.0,
        "trainer.backward_per_patch_s": backward_s / n_train_fwd,
        "trainer.accuracy_pass_s": total("trainer.dataset_accuracy"),
        "trainer.checkpoint_save_s": total("trainer.save_checkpoint"),
        "trainer.checkpoint_load_s": _q(durations("trainer.load_checkpoint"), 50),
        "evalkit.metrics_s": total("evalkit.metrics"),
        "evalkit.baseline_s": total("evalkit.keyword_baseline"),
    }
    for part in FORWARD_LAYERS:
        col = per_fwd[:, LAYERS.index(part)]
        out[f"model.{part.split('.')[1]}_p50_s"] = _q(col, 50)
        out[f"model.{part.split('.')[1]}_p90_s"] = _q(col, 90)
        out[f"forward_share.{part}"] = float(col.sum() / fwd_total) if fwd_total else 0.0
    out["model.forward_p50_s"] = _q(dur[infer_fwd], 50)
    out["model.forward_p90_s"] = _q(dur[infer_fwd], 90)
    for d in ("fwd", "bwd"):
        for op in REPORTED_OPS:
            out[f"nnkit.{d}.{op}_s"] = total(f"nnkit.{op}" if d == "fwd" else f"nnkit.bwd.{op}")
    for j, lay in enumerate(LAYERS):
        out[f"layer.{lay}.self_s"] = float(layer_self[j])
    stage_total = dur[parent < 0].sum()  # the top-level spans are the stages
    out["share.front_end"] = float(sum(layer_self[LAYERS.index(x)] for x in FRONT_END) / stage_total)
    return out


# ---------------------------------------------------------------------------
# Measurements made outside the traced stage list


def import_times(env: dict, cwd: Path) -> tuple[float, float]:
    """Cumulative import seconds of the CLI and of evalkit, from `-X importtime`
    (which inflates both by its own reporting)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import patchnet.cli"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) / 1e6
    return cumulative["patchnet"] + cumulative["patchnet.cli"], cumulative["patchnet.evalkit"]


def batch_peak_alloc_mb(w: Path, batch_size: int, seed: int) -> float:
    """tracemalloc peak over one training batch (forward, loss, backward, Adam)."""
    bundle = trainer.load_checkpoint(str(w / "model.ckpt"))
    patches, _ = read_tensor_file(str(w / "tensors.bin"))
    batch = patches[:batch_size]
    params, hp = bundle.params, bundle.hp
    tensors = params.all()
    states = [nnkit.AdamState.for_param(t) for t in tensors]
    rng = np.random.default_rng(seed)
    labels = np.array([float(p.label.to_int()) for p in batch])
    tracemalloc.start()
    try:
        zs = [model.forward(p, params, hp, mode="train", rng=rng) for p in batch]
        batch_loss = nnkit.loss(nnkit.stack(zs), labels, tensors, hp.l2_reg_lambda)
        grads = nnkit.backward(batch_loss, tensors)
        for t, g, s in zip(tensors, grads, states):
            nnkit.adam_step(t, g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def tensor_facts(w: Path) -> dict:
    """Row shares of tensors.bin and the train/serve skew of raw-commit tensors.

    A row is one line slot's (words,) index vector.  serve_skew_share is
    the share of training patches whose tensors, rebuilt from raw commits
    with the checkpoint's function table (as `predict` does), differ
    from the ones `preprocess` wrote.
    """
    patches, dims = read_tensor_file(str(w / "tensors.bin"))
    pad, distinct, rows_per_patch = 0, 0.0, 2 * dims.files * dims.hunks * dims.lines
    for p in patches:
        rows = np.concatenate([p.removed_code, p.added_code]).reshape(-1, dims.words)
        pad += int((rows == 0).all(axis=1).sum())
        distinct += len(np.unique(rows, axis=0)) / rows_per_patch
    bundle = trainer.load_checkpoint(str(w / "model.ckpt"))
    commits = ingest.load_commits(str(w / "train.jsonl"))
    skewed = 0
    for c, p in zip(commits, patches):
        q = assemble_tensors(c, bundle.functions, (bundle.message_vocab, bundle.code_vocab), dims)
        if not (np.array_equal(q.removed_code, p.removed_code) and np.array_equal(q.added_code, p.added_code)
                and np.array_equal(q.message_tokens, p.message_tokens)):
            skewed += 1
    return {
        "preprocess.pad_row_share": pad / (rows_per_patch * len(patches)),
        "preprocess.distinct_row_share": distinct / len(patches),
        "preprocess.serve_skew_share": skewed / len(patches),
    }


def check_source(src: Path) -> None:
    """Refuse to trace a patchnet imported from anywhere but this checkout."""
    if Path(patchnet.__file__).resolve().parent != (src / "patchnet").resolve():
        raise RuntimeError(f"patchnet imported from {patchnet.__file__}, not {src}")
