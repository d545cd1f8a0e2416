"""Command-line pipeline driver.

Subcommands: ingest, label, preprocess, train, predict, evaluate,
baseline, folds.  Exit codes: 0 success, 1 usage error, 2 data error
(any ValueError, OSError or TrainingError, JSON nested past the
recursion limit, or an allocation that fails).
Every run writes a manifest next to its primary output; an optional
flat key=value config file overrides built-in defaults, and explicit
flags override the file.  PATCHNET_SEED serves as a fallback seed.

At top level this module imports only the standard library and the
numpy-free core, ingest and evalkit modules; the handlers of preprocess,
train and predict import the tensor and model code they run, so
--version, ingest, label, folds and baseline without --report never
load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import fields, replace
from datetime import datetime, timezone

from . import __version__
from .core import VARIANTS, HyperParams, Label, PatchDims, TrainConfig, TrainingError, atomic_write
from .evalkit import chrono_folds, keyword_baseline, metrics
from .ingest import (
    build_balanced_dataset,
    check_eligibility,
    extract_stable_evidence,
    label_commit,
    load_commits,
    read_rc_ids,
    write_commits_jsonl,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

SCALAR_METRICS = ("accuracy", "precision", "recall", "f1", "auc")

# train flag (argparse dest) -> the field it sets; the field's default
# is the flag's default.
_HP_FLAGS = {"d_msg": "d_msg", "d_code": "d_code", "filters": "n_filters", "fc_size": "fc_size",
             "dropout": "dropout", "l2": "l2_reg_lambda", "threshold": "threshold"}
_CONFIG_FLAGS = {"batch_size": "batch_size", "epochs": "max_epochs", "patience": "patience",
                 "learning_rate": "learning_rate"}


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PATCHNET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"PATCHNET_SEED must be an integer, got {env!r}")
    return 0


def _write_json(path: str, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, seed, inputs, outputs, started_at, counts=None) -> None:
    """RunManifest JSON beside the primary (first) output path, with the
    counts a handler reports, if any."""
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "config")
    }
    _write_json(
        outputs[0] + ".manifest.json",
        {
            "command": args.command,
            "config": config,
            "seed": seed,
            "inputs": list(inputs),
            "outputs": list(outputs),
            "tool_version": __version__,
            "started_at": started_at,
            "finished_at": _utc_now(),
            **(counts or {}),
        },
    )


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r} expects a boolean, got {raw!r}")


def _convert_config_value(action: argparse.Action, raw: str, key: str):
    if isinstance(action.const, bool) or isinstance(action.default, bool):
        return _parse_bool(raw, key)
    try:
        value = raw if action.type is None else action.type(raw)
    except (TypeError, ValueError):
        raise UsageError(f"config key {key!r}: cannot parse {raw!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key!r}: {raw!r} is not one of {', '.join(map(str, action.choices))}")
    return value


def _apply_config(parser, subparsers_by_name, args, argv):
    """Second parse with file values as defaults; argv still wins."""
    values = _read_config_file(args.config)
    sub = subparsers_by_name[args.command]
    defaults = {}
    for key, raw in values.items():
        action = next(
            (a for a in sub._actions if a.dest == key and key not in ("help", "config")),
            None,
        )
        if action is None:
            raise UsageError(f"unknown config key {key!r} for {args.command}")
        defaults[key] = _convert_config_value(action, raw, key)
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _filter_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"--filter-sizes expects comma-separated ints, got {text!r}")
    if not sizes:
        raise UsageError("--filter-sizes must name at least one size")
    return sizes


# ---------------------------------------------------------------------------
# Shared IO helpers


def _write_jsonl(path: str, rows) -> None:
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def _read_scores(path: str) -> tuple[list[float], list[int]]:
    """The score and 0/1 true label of each non-blank line of a scores JSONL."""
    scores, labels = [], []
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: bad JSON: {exc}")
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected a JSON object")
        for key in ("score", "true_label"):
            if key not in obj:
                raise ValueError(f"{where}: missing {key!r}")
        try:
            if isinstance(obj["score"], bool):
                raise TypeError
            score = float(obj["score"])
        except (TypeError, ValueError):
            raise ValueError(f"{where}: score {obj['score']!r} is not a number")
        if not math.isfinite(score):
            raise ValueError(f"{where}: score {score} is not finite")
        scores.append(score)
        labels.append(_truth_to_int(obj["true_label"], where))
    if not scores:
        raise ValueError(f"{path}: no score rows")
    return scores, labels


def _truth_to_int(value, where: str) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, str):
        try:
            return Label.from_string(value).to_int()
        except ValueError:
            pass
    raise ValueError(f"{where}: true_label must be 0/1 or stable/non-stable")


def _read_functions_file(path: str):
    from .codeprep import FunctionNameTable

    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad JSON: {exc}")
    return FunctionNameTable.from_json_obj(obj)


def _check_indices(patches, message_vocab, code_vocab) -> None:
    """Every token index must address a row of its channel's embedding."""
    from .vocab import PAD_INDEX

    top_msg = max(int(p.message.max(initial=PAD_INDEX)) for p in patches)
    top_code = max(int(p.rows.max(initial=PAD_INDEX)) for p in patches)
    if top_msg >= len(message_vocab) or top_code >= len(code_vocab):
        raise ValueError(
            f"tensor indices do not fit the vocabulary: largest message index {top_msg} "
            f"for {len(message_vocab)} entries, largest code index {top_code} "
            f"for {len(code_vocab)} entries"
        )


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed args and the resolved seed
# (None for commands without --seed) and returns (inputs, outputs) for
# the manifest, optionally with a dict of counts to add to it; run()
# owns everything else.


def _cmd_ingest(args, seed):
    mainline = load_commits(args.mainline)
    stable = load_commits(args.stable)
    rc_ids = read_rc_ids(args.rc_ids) if args.rc_ids else set()
    evidence = extract_stable_evidence(stable, rc_ids)

    entries = []
    ineligible: Counter[str] = Counter()
    for c in mainline:
        report = check_eligibility(c)
        if report.eligible:
            entries.append((c, report.changed_lines, c.label or label_commit(c, evidence)))
        # A commit counts once under each of its reasons; "Other: <why>" under OTHER.
        ineligible.update(r.split(":", 1)[0] for r in report.reasons)
    commits, provenance = build_balanced_dataset(entries, seed=seed)
    write_commits_jsonl(args.out, commits)

    n_stable = sum(c.label is Label.STABLE for c in commits)
    print(
        f"ingest: {len(mainline)} mainline, {len(entries)} eligible, "
        f"{n_stable} stable + {len(commits) - n_stable} non-stable written to {args.out}"
    )
    by_reason = dict(sorted(ineligible.items()))
    print("ineligible by reason: " + (", ".join(f"{r} {n}" for r, n in by_reason.items()) or "none"))
    print(f"provenance: {provenance}")
    inputs = [args.mainline, args.stable] + ([args.rc_ids] if args.rc_ids else [])
    return inputs, [args.out], {"ineligible": by_reason}


def _cmd_label(args, seed):
    commits = load_commits(args.dataset)
    stable = load_commits(args.stable)
    rc_ids = read_rc_ids(args.rc_ids) if args.rc_ids else set()
    evidence = extract_stable_evidence(stable, rc_ids)

    commits = [replace(c, label=label_commit(c, evidence)) for c in commits]
    write_commits_jsonl(args.out, commits)

    n_stable = sum(c.label is Label.STABLE for c in commits)
    print(
        f"label: {n_stable} stable, {len(commits) - n_stable} non-stable "
        f"written to {args.out}"
    )
    inputs = [args.dataset, args.stable] + ([args.rc_ids] if args.rc_ids else [])
    return inputs, [args.out]


def _cmd_preprocess(args, seed):
    from .preprocess import preprocess_commits, write_tensor_file
    from .vocab import save_vocab_pair

    dims = PatchDims(**{f.name: getattr(args, f.name) for f in fields(PatchDims)})
    commits = load_commits(args.dataset)
    if not commits:
        raise ValueError(f"{args.dataset}: no commits")
    patches, table, (msg_vocab, code_vocab), unparsable = preprocess_commits(
        commits, dims, args.min_count
    )
    write_tensor_file(args.out, patches, dims)
    save_vocab_pair(msg_vocab, code_vocab, args.vocab_out)
    functions_out = args.functions_out or args.out + ".functions.json"
    _write_json(functions_out, table.to_json_obj())

    print(
        f"preprocess: {len(patches)} patches -> {args.out} "
        f"(message vocab {len(msg_vocab)}, code vocab {len(code_vocab)}, "
        f"{len(table.retained)} retained functions, {unparsable} unparsable diffs)"
    )
    return [args.dataset], [args.out, args.vocab_out, functions_out]


def _train_settings(args, dims: PatchDims, seed: int) -> tuple[HyperParams, TrainConfig]:
    """The HyperParams and TrainConfig that train's flags describe."""
    hp = HyperParams(
        dims=dims,
        filter_sizes=_filter_sizes(args.filter_sizes),
        variant=args.variant,
        **{name: getattr(args, dest) for dest, name in _HP_FLAGS.items()},
    )
    config = TrainConfig(
        seed=seed,
        shuffle=not args.no_shuffle,
        **{name: getattr(args, dest) for dest, name in _CONFIG_FLAGS.items()},
    )
    return hp, config


def _cmd_train(args, seed):
    from .preprocess import read_tensor_file
    from .trainer import save_checkpoint, train
    from .vocab import load_vocab_pair

    patches, dims = read_tensor_file(args.tensors)
    if not patches:
        raise ValueError(f"{args.tensors}: no patches")
    unlabeled = [p.commit_id for p in patches if p.label is None]
    if unlabeled:
        raise ValueError(
            f"{args.tensors}: {len(unlabeled)} unlabeled patches "
            f"(first: {unlabeled[0]})"
        )
    msg_vocab, code_vocab = load_vocab_pair(args.vocab)
    _check_indices(patches, msg_vocab, code_vocab)
    functions = _read_functions_file(args.functions)

    hp, config = _train_settings(args, dims, seed)
    result = train(patches, hp, config, msg_vocab, code_vocab)
    for epoch, value in enumerate(result.history.epoch_losses, start=1):
        print(f"epoch {epoch}: loss {value:.6f}")
    print(
        f"train: {result.history.epochs_run} epochs "
        f"(best {result.history.best_epoch}, loss {result.history.best_loss:.6f}, "
        f"stopped_early={result.history.stopped_early})"
    )
    save_checkpoint(args.out, result.params, hp, msg_vocab, code_vocab, functions)
    print(f"checkpoint written to {args.out}")
    return [args.tensors, args.vocab, args.functions], [args.out]


def _cmd_predict(args, seed):
    from .preprocess import TENSOR_MAGIC, assemble_tensors, read_tensor_file
    from .trainer import load_checkpoint, score_items

    bundle = load_checkpoint(args.checkpoint)
    with open(args.in_path, "rb") as fh:
        is_tensor_file = fh.read(len(TENSOR_MAGIC)) == TENSOR_MAGIC
    if is_tensor_file:
        patches, dims = read_tensor_file(args.in_path)
        if dims != bundle.hp.dims:
            raise ValueError(
                f"tensor dims {dims} do not match checkpoint dims {bundle.hp.dims}"
            )
    else:
        vocabularies = (bundle.message_vocab, bundle.code_vocab)
        patches = [assemble_tensors(c, bundle.functions, vocabularies, bundle.hp.dims)
                   for c in load_commits(args.in_path)]
    if not patches:
        raise ValueError(f"{args.in_path}: no patches")
    _check_indices(patches, bundle.message_vocab, bundle.code_vocab)

    threshold = bundle.hp.threshold
    rows = []
    for p, z in zip(patches, score_items(patches, bundle.params, bundle.hp).tolist()):
        label = Label.STABLE if z >= threshold else Label.NON_STABLE
        row = {"commit_id": p.commit_id, "score": z, "label": label.value}
        if p.label is not None:
            row["true_label"] = p.label.value
        rows.append(row)
    rows.sort(key=lambda r: (-r["score"], r["commit_id"]))
    _write_jsonl(args.out, rows)

    n_stable = sum(1 for r in rows if r["label"] == Label.STABLE.value)
    print(
        f"predict: {len(rows)} patches scored "
        f"({n_stable} stable at threshold {threshold}) -> {args.out}"
    )
    return [args.checkpoint, args.in_path], [args.out]


def _summary(obj: dict) -> str:
    """The scalar metrics of a report object, as one stdout line's tail."""
    return " ".join(f"{k}={obj[k]:.4f}" for k in SCALAR_METRICS)


def _cmd_evaluate(args, seed):
    import numpy as np

    if args.pr_csv and len(args.scores) != 1:
        raise UsageError("--pr-csv needs exactly one scores file")
    objs = [metrics(*_read_scores(path), args.threshold).to_json_obj() for path in args.scores]

    if len(objs) == 1:
        report_obj = objs[0]
        degenerate = report_obj["degenerate"]
        summary = _summary(report_obj) + (f" degenerate={','.join(degenerate)}" if degenerate else "")
    else:
        values = {k: np.array([obj[k] for obj in objs]) for k in SCALAR_METRICS}
        report_obj = {
            "folds": [{**obj, "scores_file": path} for path, obj in zip(args.scores, objs)],
            "mean": {k: float(v.mean()) for k, v in values.items()},
            "std_population": {k: float(v.std(ddof=0)) for k, v in values.items()},
            "std_sample": {k: float(v.std(ddof=1)) for k, v in values.items()},
        }
        summary = f"{len(objs)} folds, mean " + _summary(report_obj["mean"])

    _write_json(args.report, report_obj)

    if args.pr_csv:
        with atomic_write(args.pr_csv) as fh:
            for recall, precision in objs[0]["pr_points"]:
                fh.write(f"{recall},{precision}\n")

    print("evaluate: " + summary)
    outputs = [args.report] + ([args.pr_csv] if args.pr_csv else [])
    return list(args.scores), outputs


def _cmd_baseline(args, seed):
    commits = load_commits(args.dataset)
    if not commits:
        raise ValueError(f"{args.dataset}: no commits")
    missing = [c.commit_id for c in commits if c.label is None]
    if args.report and missing:
        raise ValueError(
            f"--report needs true labels; {len(missing)} commits lack them "
            f"(first: {missing[0]})"
        )
    rows = []
    predictions = []
    for c in commits:
        pred = keyword_baseline(c.message)
        predictions.append(pred)
        row = {"commit_id": c.commit_id, "label": pred.value}
        if c.label is not None:
            row["true_label"] = c.label.value
        rows.append(row)
    _write_jsonl(args.out, rows)

    n_stable = sum(1 for p in predictions if p is Label.STABLE)
    print(
        f"baseline: {n_stable} stable, {len(rows) - n_stable} non-stable -> {args.out}"
    )

    outputs = [args.out]
    if args.report:
        scores = [p.to_int() for p in predictions]
        truth = [c.label.to_int() for c in commits]
        report_obj = metrics(scores, truth, 0.5).to_json_obj()
        _write_json(args.report, report_obj)
        print("baseline report: " + _summary(report_obj))
        outputs.append(args.report)
    return [args.dataset], outputs


def _cmd_folds(args, seed):
    splits = chrono_folds(load_commits(args.dataset), args.n)
    prefix = args.out_prefix or args.dataset + ".fold"
    outputs = []
    for i, (train_items, test_items) in enumerate(splits, start=1):
        path = f"{prefix}{i}.json"
        _write_json(
            path,
            {
                "fold": i,
                "n_folds": args.n,
                "train_ids": [c.commit_id for c in train_items],
                "test_ids": [c.commit_id for c in test_items],
            },
        )
        outputs.append(path)
    sizes = ", ".join(str(len(test)) for _, test in splits)
    print(f"folds: {len(splits)} splits (test sizes {sizes}) -> {prefix}1..{len(splits)}.json")
    return [args.dataset], outputs


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    parser = _Parser(prog="patchnet", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"patchnet {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    by_name = {}

    def command(name, func, help):
        sub = subparsers.add_parser(name, help=help)
        sub.add_argument("--config", help="flat key=value file overriding defaults")
        sub.set_defaults(func=func)
        by_name[name] = sub
        return sub

    sub = command("ingest", _cmd_ingest, "filter, label, and balance commits")
    sub.add_argument("--mainline", required=True, help="mainline commits (export or JSONL)")
    sub.add_argument("--stable", required=True, help="stable-tree commits (export or JSONL)")
    sub.add_argument("--rc-ids", help="file of release-candidate commit ids")
    sub.add_argument("--out", required=True, help="output dataset JSONL")
    sub.add_argument("--seed", type=int, help="tie-break seed recorded in provenance")

    sub = command("label", _cmd_label, "label commits against stable-tree evidence")
    sub.add_argument("--dataset", required=True, help="commits to label (export or JSONL)")
    sub.add_argument("--stable", required=True, help="stable-tree commits")
    sub.add_argument("--rc-ids", help="file of release-candidate commit ids")
    sub.add_argument("--out", required=True, help="output labeled JSONL")

    sub = command("preprocess", _cmd_preprocess, "build index tensors and vocabularies")
    sub.add_argument("--dataset", required=True, help="labeled dataset JSONL")
    sub.add_argument("--out", required=True, help="output tensors.bin")
    sub.add_argument("--vocab-out", required=True, help="output vocab.json")
    sub.add_argument("--functions-out", help="function table JSON (default: <out>.functions.json)")
    sub.add_argument("--min-count", type=int, default=1, help="minimum token count kept in vocabularies")
    for f in fields(PatchDims):
        sub.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)

    sub = command("train", _cmd_train, "fit the model on preprocessed tensors")
    sub.add_argument("--tensors", required=True, help="tensors.bin from preprocess")
    sub.add_argument("--vocab", required=True, help="vocab.json from preprocess")
    sub.add_argument("--functions", required=True, help="functions JSON from preprocess")
    sub.add_argument("--out", required=True, help="output checkpoint path")
    hp, config = HyperParams(), TrainConfig()
    for owner, flags in ((hp, _HP_FLAGS), (config, _CONFIG_FLAGS)):
        for dest, name in flags.items():
            default = getattr(owner, name)
            sub.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                             help=f"{type(owner).__name__}.{name}")
    sub.add_argument("--filter-sizes", default=",".join(map(str, hp.filter_sizes)),
                     help="comma-separated window sizes")
    sub.add_argument("--variant", choices=VARIANTS, default=hp.variant)
    sub.add_argument("--no-shuffle", action="store_true", help="keep input order within epochs")
    sub.add_argument("--seed", type=int, help="seed for init, shuffling, and dropout")

    sub = command("predict", _cmd_predict, "score patches with a checkpoint")
    sub.add_argument("--checkpoint", required=True, help="checkpoint from train")
    sub.add_argument("--in", dest="in_path", required=True, help="tensors.bin or commits (export or JSONL)")
    sub.add_argument("--out", required=True, help="output scores JSONL")

    sub = command("evaluate", _cmd_evaluate, "metrics from scored patches")
    sub.add_argument("--scores", required=True, nargs="+", help="scores JSONL (several files aggregate as folds)")
    sub.add_argument("--report", required=True, help="output report JSON")
    sub.add_argument("--pr-csv", help="also write recall,precision lines")
    sub.add_argument("--threshold", type=float, default=0.5)

    sub = command("baseline", _cmd_baseline, "keyword baseline labels")
    sub.add_argument("--dataset", required=True, help="commits (export or JSONL)")
    sub.add_argument("--out", required=True, help="output labels JSONL")
    sub.add_argument("--report", help="also write metrics JSON (needs true labels)")

    sub = command("folds", _cmd_folds, "chronological cross-validation splits")
    sub.add_argument("--dataset", required=True, help="commits (export or JSONL)")
    sub.add_argument("--n", type=int, default=5, help="number of folds")
    sub.add_argument("--out-prefix", help="split file prefix (default: <dataset>.fold)")

    return parser, by_name


def run(argv=None) -> int:
    """Parse argv and execute one subcommand; returns the exit code.

    This is the one place that stamps start time, resolves the seed,
    writes the manifest and maps errors to exit codes.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, by_name = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config(parser, by_name, args, argv)
        started = _utc_now()
        seed = _resolve_seed(args) if "seed" in vars(args) else None
        inputs, outputs, *counts = args.func(args, seed)
        _write_manifest(args, seed, inputs, outputs, started, *counts)
        return EXIT_OK
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, TrainingError, RecursionError, MemoryError) as exc:
        # A bare MemoryError has no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
