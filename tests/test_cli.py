"""End-to-end tests for the command-line pipeline driver."""

import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import patchnet
from conftest import KMEMDUP_EXPORT, SAMPLE_EXPORTS, export_record, hex_id, make_commit, simple_diff
from patchnet import __version__
from patchnet import cli, trainer
from patchnet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _train_settings, build_parser, run
from patchnet.core import FileSnapshot, HyperParams, Label, PatchDims, TrainConfig
from patchnet.evalkit import keyword_baseline
from patchnet.ingest import load_commits, write_commits_jsonl
from patchnet.preprocess import read_tensor_file, write_tensor_file
from patchnet.trainer import load_checkpoint, save_checkpoint
from patchnet.vocab import Vocabulary, load_vocab_pair, save_vocab_pair

STABLE_BOUND = 4
NON_STABLE = 5


def _mainline_records():
    records = []
    for i in range(1, STABLE_BOUND + 1):
        records.append(
            export_record(
                hex_id(100 + i),
                hex_id(10_100 + i),
                f"Dev {i}",
                f"dev{i}@example.org",
                1_500_000_000 + i * 86_400,
                f"mm: repair the frobnicator path {i}\n\n"
                "Fixes a leak in the frobnicator.",
                simple_diff(removed=(f"\told{i} = thing;",)),
            )
        )
    for i in range(1, NON_STABLE + 1):
        records.append(
            export_record(
                hex_id(300 + i),
                hex_id(10_300 + i),
                f"Dev {i + 40}",
                f"dev{i + 40}@example.org",
                1_500_100_000 + i * 86_400,
                f"net: tune the flux capacitor {i}\n\n"
                "Adjust thresholds for the capacitor.",
                simple_diff(added=(f"\tlimit = {i};",)),
            )
        )
    # A merge commit: filtered out before labeling.
    records.append(
        export_record(
            hex_id(555),
            f"{hex_id(10_555)} {hex_id(10_556)}",
            "Merge Bot",
            "merge@example.org",
            1_500_200_000,
            "Merge branch 'for-linus'",
            simple_diff(),
        )
    )
    return records


def _stable_records():
    return [
        export_record(
            hex_id(900 + i),
            hex_id(10_900 + i),
            "Stable Maintainer",
            "stable@example.org",
            1_600_000_000 + i,
            f"mm: repair the frobnicator path {i}\n\n"
            f"commit {hex_id(100 + i)} upstream.\n\nBackported for 4.4.",
            simple_diff(),
        )
        for i in range(1, STABLE_BOUND + 1)
    ]


PREPROCESS_DIMS = [
    "--msg-len", "8", "--files", "1", "--hunks", "2", "--lines", "2", "--words", "6",
]
TRAIN_FLAGS = [
    "--d-msg", "3", "--d-code", "3", "--filters", "2", "--fc-size", "3",
    "--dropout", "0.0", "--epochs", "2", "--batch-size", "4",
    "--learning-rate", "0.01", "--seed", "7",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; tests inspect the files it leaves."""
    root = tmp_path_factory.mktemp("cli")
    p = {
        "root": root,
        "mainline": str(root / "mainline.export"),
        "stable": str(root / "stable.export"),
        "dataset": str(root / "data.jsonl"),
        "tensors": str(root / "tensors.bin"),
        "vocab": str(root / "vocab.json"),
        "checkpoint": str(root / "model.ckpt"),
        "scores": str(root / "scores.jsonl"),
        "report": str(root / "report.json"),
        "pr_csv": str(root / "pr.csv"),
        "baseline_out": str(root / "baseline.jsonl"),
        "baseline_report": str(root / "baseline_report.json"),
        "fold_prefix": str(root / "fold"),
    }
    (root / "mainline.export").write_text("".join(_mainline_records()))
    (root / "stable.export").write_text("".join(_stable_records()))

    steps = [
        ["ingest", "--mainline", p["mainline"], "--stable", p["stable"],
         "--out", p["dataset"], "--seed", "3"],
        ["preprocess", "--dataset", p["dataset"], "--out", p["tensors"],
         "--vocab-out", p["vocab"], *PREPROCESS_DIMS],
        ["train", "--tensors", p["tensors"], "--vocab", p["vocab"],
         "--functions", p["tensors"] + ".functions.json",
         "--out", p["checkpoint"], *TRAIN_FLAGS],
        ["predict", "--checkpoint", p["checkpoint"], "--in", p["tensors"],
         "--out", p["scores"]],
        ["evaluate", "--scores", p["scores"], "--report", p["report"],
         "--pr-csv", p["pr_csv"]],
        ["baseline", "--dataset", p["dataset"], "--out", p["baseline_out"],
         "--report", p["baseline_report"]],
        ["folds", "--dataset", p["dataset"], "--n", "2",
         "--out-prefix", p["fold_prefix"]],
    ]
    for argv in steps:
        assert run(argv) == EXIT_OK, argv[0]
    return p


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Pipeline artifacts


def test_ingest_balances_classes(pipeline):
    rows = _read_jsonl(pipeline["dataset"])
    labels = [r["label"] for r in rows]
    assert len(rows) == 2 * STABLE_BOUND
    assert labels.count("stable") == labels.count("non-stable") == STABLE_BOUND
    stable_ids = {r["commit_id"] for r in rows if r["label"] == "stable"}
    assert stable_ids == {hex_id(100 + i) for i in range(1, STABLE_BOUND + 1)}
    assert hex_id(555) not in {r["commit_id"] for r in rows}  # merge dropped


def test_preprocess_outputs(pipeline):
    with open(pipeline["tensors"], "rb") as fh:
        assert fh.read(4) == b"PNTD"
    vocab = json.load(open(pipeline["vocab"]))
    assert {obj["channel"] for obj in vocab} == {"message", "code"}
    functions = json.load(open(pipeline["tensors"] + ".functions.json"))
    assert functions["retained"] == sorted(functions["retained"])


def test_predict_rows_sorted_and_labeled(pipeline):
    rows = _read_jsonl(pipeline["scores"])
    assert len(rows) == 2 * STABLE_BOUND
    keys = [(-r["score"], r["commit_id"]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert set(r) == {"commit_id", "score", "label", "true_label"}
        assert 0.0 < r["score"] < 1.0
        assert r["label"] == ("stable" if r["score"] >= 0.5 else "non-stable")
        assert r["true_label"] in ("stable", "non-stable")


def test_evaluate_report_and_pr_csv(pipeline):
    report = json.load(open(pipeline["report"]))
    for key in ("n", "tp", "fp", "tn", "fn", "accuracy", "precision",
                "recall", "f1", "auc", "pr_points", "degenerate"):
        assert key in report
    assert report["n"] == 2 * STABLE_BOUND
    lines = open(pipeline["pr_csv"]).read().splitlines()
    assert lines and all(len(line.split(",")) == 2 for line in lines)
    pairs = [tuple(float(x) for x in line.split(",")) for line in lines]
    assert [list(p) for p in pairs] == report["pr_points"]
    assert pairs[-1][0] == 1.0


def test_baseline_rows_match_keyword_rule(pipeline):
    rows = {r["commit_id"]: r for r in _read_jsonl(pipeline["baseline_out"])}
    commits = load_commits(pipeline["dataset"])
    assert set(rows) == {c.commit_id for c in commits}
    for c in commits:
        assert rows[c.commit_id]["label"] == keyword_baseline(c.message).value
        assert rows[c.commit_id]["true_label"] == c.label.value
    report = json.load(open(pipeline["baseline_report"]))
    # Every stable commit says "Fixes", no non-stable one does.
    assert report["tp"] == STABLE_BOUND and report["fp"] == 0
    assert report["accuracy"] == 1.0


def test_folds_files(pipeline):
    all_ids = {r["commit_id"] for r in _read_jsonl(pipeline["dataset"])}
    held_out = set()
    for i in (1, 2):
        obj = json.load(open(f"{pipeline['fold_prefix']}{i}.json"))
        assert obj["fold"] == i and obj["n_folds"] == 2
        train_ids, test_ids = set(obj["train_ids"]), set(obj["test_ids"])
        assert train_ids | test_ids == all_ids
        assert not train_ids & test_ids
        assert len(test_ids) == 4
        held_out |= test_ids
    assert held_out == all_ids


def test_manifests_written(pipeline):
    manifest = json.load(open(pipeline["dataset"] + ".manifest.json"))
    assert manifest["command"] == "ingest"
    assert manifest["seed"] == 3
    assert manifest["inputs"] == [pipeline["mainline"], pipeline["stable"]]
    assert manifest["outputs"] == [pipeline["dataset"]]
    assert manifest["tool_version"] == __version__
    assert manifest["started_at"] <= manifest["finished_at"]
    assert "func" not in manifest["config"] and "command" not in manifest["config"]
    assert manifest["ineligible"] == {"MergeCommit": 1}

    train_manifest = json.load(open(pipeline["checkpoint"] + ".manifest.json"))
    assert train_manifest["seed"] == 7
    assert train_manifest["config"]["epochs"] == 2

    pre_manifest = json.load(open(pipeline["tensors"] + ".manifest.json"))
    assert pre_manifest["outputs"] == [
        pipeline["tensors"], pipeline["vocab"], pipeline["tensors"] + ".functions.json"
    ]


def test_ingest_counts_ineligible_commits_by_reason(tmp_path, capsys):
    """One count per reason a commit has; every parse failure under Other."""
    diffs = {
        "merge-too-long": simple_diff(added=tuple(f"\tx{i} = {i};" for i in range(100))),
        "no-c": simple_diff(path="tools/run.py"),
        "bad-header-1": "--- a/x.c\n+++ b/x.c\n@@ nope @@\n",
        "bad-header-2": "@@ -x @@\n",
        "new-only": simple_diff(path="new.c").replace("--- a/new.c", "--- /dev/null"),
        "ok": simple_diff(),
    }
    records = [
        export_record(hex_id(700 + i), f"{hex_id(1)} {hex_id(2)}" if name.startswith("merge") else "",
                      "Dev", "dev@example.org", 1_500_000_000 + i, f"fix {name}", diff)
        for i, (name, diff) in enumerate(diffs.items())
    ]
    mainline, stable = tmp_path / "mainline.export", tmp_path / "stable.export"
    mainline.write_text("".join(records))
    stable.write_text(_stable_records()[0])
    out = str(tmp_path / "data.jsonl")
    assert run(["ingest", "--mainline", str(mainline), "--stable", str(stable), "--out", out]) == EXIT_OK
    want = {"MergeCommit": 1, "NoCOrHFileModified": 1, "OnlyAddsOrRemovesFiles": 1, "Other": 2,
            "TooLong": 1}
    assert json.load(open(out + ".manifest.json"))["ineligible"] == want
    assert ("ineligible by reason: MergeCommit 1, NoCOrHFileModified 1, "
            "OnlyAddsOrRemovesFiles 1, Other 2, TooLong 1") in capsys.readouterr().out.splitlines()


def test_predict_from_commits_file(pipeline, tmp_path):
    out = str(tmp_path / "scores2.jsonl")
    rc = run(["predict", "--checkpoint", pipeline["checkpoint"],
              "--in", pipeline["dataset"], "--out", out])
    assert rc == EXIT_OK
    assert len(_read_jsonl(out)) == 2 * STABLE_BOUND

    raw = tmp_path / "raw.export"
    raw.write_text(KMEMDUP_EXPORT)
    out2 = str(tmp_path / "scores3.jsonl")
    assert run(["predict", "--checkpoint", pipeline["checkpoint"],
                "--in", str(raw), "--out", out2]) == EXIT_OK
    rows = _read_jsonl(out2)
    assert len(rows) == 1
    assert "true_label" not in rows[0]  # raw exports carry no labels


def test_predict_on_commits_matches_tensors_for_same_file_definitions(tmp_path):
    # ring_alloc is called often enough to be retained, but drivers/b.c
    # defines it, so preprocess writes IDENT for its uses there.  predict
    # on raw commits must rebuild exactly those tensors from the checkpoint.
    def commit(n, path, added, label):
        diff = simple_diff(path=path, removed=(), added=added)
        return make_commit(n, date=1_500_000_000 + n, diff=diff, label=label)

    commits = [
        commit(1, "drivers/a.c", ("\tring_alloc(1);", "\tring_alloc(2);"), Label.STABLE),
        commit(2, "drivers/a.c", ("\tring_alloc(3);", "\tx = 1;"), Label.STABLE),
        commit(3, "drivers/b.c", ("ring_alloc(int n)", "\tring_alloc(n - 1);"), Label.NON_STABLE),
        commit(4, "drivers/b.c", ("\tring_alloc(4);", "\ty = 2;"), Label.NON_STABLE),
    ]
    dataset = str(tmp_path / "data.jsonl")
    write_commits_jsonl(dataset, commits)
    tensors, vocab = str(tmp_path / "t.bin"), str(tmp_path / "v.json")
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["preprocess", "--dataset", dataset, "--out", tensors, "--vocab-out", vocab,
                *PREPROCESS_DIMS]) == EXIT_OK
    functions = json.load(open(tensors + ".functions.json"))
    assert functions["retained"] == ["ring_alloc"]
    assert functions["defined_in"] == {"drivers/b.c": ["ring_alloc"]}
    # Enough line filters that the renamed token wins some max-pool, so a
    # tensor that differs also scores differently.
    assert run(["train", "--tensors", tensors, "--vocab", vocab,
                "--functions", tensors + ".functions.json", "--out", ckpt,
                *TRAIN_FLAGS, "--d-code", "8", "--filters", "32", "--fc-size", "8"]) == EXIT_OK

    scores = {}
    for source in (tensors, dataset):
        out = str(tmp_path / "scores.jsonl")
        assert run(["predict", "--checkpoint", ckpt, "--in", source, "--out", out]) == EXIT_OK
        scores[source] = {r["commit_id"]: r["score"] for r in _read_jsonl(out)}
    assert scores[dataset] == scores[tensors]


def test_snapshot_bearing_commits_run_through_the_cli(tmp_path):
    # One commit carries snapshots of a .c file whose changed line sits
    # inside 20,000 nested error `if`s; the kinds come from the snapshot,
    # so the line is handling, which the changed lines alone do not show.
    deep = 20_000
    before = "if (a) {\n" * deep + "\treturn -1;\n" + "}\n" * deep
    diff = ("diff --git a/fs/deep.c b/fs/deep.c\nindex 1111111..2222222 100644\n"
            f"--- a/fs/deep.c\n+++ b/fs/deep.c\n@@ -{deep},3 +{deep},3 @@\n"
            " if (a) {\n-\treturn -1;\n+\treturn -EIO;\n }\n")
    deep_commit = replace(
        make_commit(5, date=1_500_000_005, diff=diff, label=Label.STABLE),
        file_snapshots=(FileSnapshot("fs/deep.c", before, before.replace("return -1;", "return -EIO;")),),
    )
    commits = [
        make_commit(n, date=1_500_000_000 + n, label=Label.STABLE if n % 2 else Label.NON_STABLE,
                    diff=simple_diff(added=(f"\tp{n} = alloc();", f"\treturn p{n};")))
        for n in range(1, 5)
    ] + [deep_commit]
    dataset = str(tmp_path / "data.jsonl")
    write_commits_jsonl(dataset, commits)
    tensors, vocab, ckpt = str(tmp_path / "t.bin"), str(tmp_path / "v.json"), str(tmp_path / "m.ckpt")
    assert run(["preprocess", "--dataset", dataset, "--out", tensors, "--vocab-out", vocab,
                *PREPROCESS_DIMS]) == EXIT_OK
    assert "return@hnd" in load_vocab_pair(vocab)[1].words
    assert run(["train", "--tensors", tensors, "--vocab", vocab, "--functions", tensors + ".functions.json",
                "--out", ckpt, *TRAIN_FLAGS]) == EXIT_OK
    scores = {}
    for source in (tensors, dataset):
        out = str(tmp_path / "scores.jsonl")
        assert run(["predict", "--checkpoint", ckpt, "--in", source, "--out", out]) == EXIT_OK
        scores[source] = {r["commit_id"]: r["score"] for r in _read_jsonl(out)}
    assert sorted(scores[tensors]) == sorted(c.commit_id for c in commits)
    assert scores[dataset] == scores[tensors]


def test_round_trip_at_default_dims(tmp_path):
    """preprocess -> train -> predict at the shipped dims (512 message
    tokens, 5x8x10x120 code per side); a commit scored alone gets the
    score it has among the others."""
    commits = [
        make_commit(
            n,
            date=1_500_000_000 + n,
            subject=f"mm: fix the leak in path {n}",
            diff=simple_diff(removed=(f"\told{n} = thing;",),
                             added=(f"\tp{n} = alloc();", f"\tif (!p{n})", "\t\treturn -ENOMEM;")),
            label=Label.STABLE if n % 2 else Label.NON_STABLE,
        )
        for n in range(1, 7)
    ]
    dataset, one = str(tmp_path / "data.jsonl"), str(tmp_path / "one.jsonl")
    write_commits_jsonl(dataset, commits)
    write_commits_jsonl(one, commits[2:3])
    tensors, vocab, ckpt = str(tmp_path / "t.bin"), str(tmp_path / "v.json"), str(tmp_path / "m.ckpt")
    assert run(["preprocess", "--dataset", dataset, "--out", tensors, "--vocab-out", vocab]) == EXIT_OK
    assert read_tensor_file(tensors)[1] == PatchDims()
    assert run(["train", "--tensors", tensors, "--vocab", vocab, "--functions", tensors + ".functions.json",
                "--out", ckpt, "--epochs", "1", "--seed", "5"]) == EXIT_OK
    scores = {}
    for source in (dataset, one):
        out = str(tmp_path / "scores.jsonl")
        assert run(["predict", "--checkpoint", ckpt, "--in", source, "--out", out]) == EXIT_OK
        scores[source] = {r["commit_id"]: r["score"] for r in _read_jsonl(out)}
    assert sorted(scores[dataset]) == sorted(c.commit_id for c in commits)
    assert all(0.0 <= z <= 1.0 for z in scores[dataset].values())
    assert scores[one] == {commits[2].commit_id: scores[dataset][commits[2].commit_id]}


# ---------------------------------------------------------------------------
# Exit codes


def test_version_flag(capsys):
    assert run(["--version"]) == EXIT_OK
    assert f"patchnet {__version__}" in capsys.readouterr().out


def test_usage_errors():
    assert run([]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["ingest", "--out", "x"]) == EXIT_USAGE  # missing required flags
    assert run(["folds", "--dataset", "x", "--bogus"]) == EXIT_USAGE


def test_train_usage_errors(pipeline, tmp_path):
    out = str(tmp_path / "m.ckpt")
    assert run(["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
                "--functions", pipeline["tensors"] + ".functions.json",
                "--out", out, "--filter-sizes", "a,b"]) == EXIT_USAGE


def test_train_without_functions_exits_usage_and_writes_nothing(pipeline, tmp_path):
    # A checkpoint always carries the function table preprocess built,
    # so predict on raw commits builds the tensors training saw.
    assert run(["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
                "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]) == EXIT_USAGE
    assert os.listdir(tmp_path) == []


def _readme_commands():
    """Every `patchnet ...` command of the README's sh blocks, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("patchnet ")]


def test_readme_commands_parse():
    parser, _ = build_parser()
    commands = _readme_commands()
    assert {"ingest", "preprocess", "train", "predict"} <= {argv[0] for argv in commands}
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: patchnet {shlex.join(argv)}")


def test_data_errors(pipeline, tmp_path):
    garbage = tmp_path / "garbage.export"
    garbage.write_text("this is not an export\n")
    assert run(["folds", "--dataset", str(garbage), "--n", "2"]) == EXIT_DATA
    assert run(["predict", "--checkpoint", str(tmp_path / "missing.ckpt"),
                "--in", pipeline["tensors"], "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert run(["ingest", "--mainline", str(tmp_path / "nope"),
                "--stable", pipeline["stable"],
                "--out", str(tmp_path / "d.jsonl")]) == EXIT_DATA
    # More folds than commits is a data problem, not a crash.
    assert run(["folds", "--dataset", pipeline["dataset"], "--n", "99"]) == EXIT_DATA
    # So is one fold, whose split would train on nothing.
    assert run(["folds", "--dataset", pipeline["dataset"], "--n", "1",
                "--out-prefix", str(tmp_path / "one")]) == EXIT_DATA
    assert not list(tmp_path.glob("one*"))


def test_predict_dim_mismatch_exits_data(pipeline, tmp_path):
    tensors = str(tmp_path / "small.bin")
    rc = run(["preprocess", "--dataset", pipeline["dataset"], "--out", tensors,
              "--vocab-out", str(tmp_path / "v.json"),
              "--msg-len", "8", "--files", "1", "--hunks", "2",
              "--lines", "2", "--words", "4"])
    assert rc == EXIT_OK
    assert run(["predict", "--checkpoint", pipeline["checkpoint"],
                "--in", tensors, "--out", str(tmp_path / "s.jsonl")]) == EXIT_DATA


def _predict_argv(p, tmp_path, checkpoint=None, in_path=None):
    return ["predict", "--checkpoint", checkpoint or p["checkpoint"],
            "--in", in_path or p["tensors"], "--out", str(tmp_path / "s.jsonl")]


def _short_tensor_file(p, tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"PNTD\x01\x00\x00\x00\x02")
    return _predict_argv(p, tmp_path, in_path=str(path))


def _version_1_tensor_file(command):
    def case(p, tmp_path):
        path = str(tmp_path / "v1.bin")
        dims = (8, 1, 2, 2, 6)
        record = hex_id(1).encode("ascii") + b"\x01" + bytes(4 * (8 + 2 * 24))
        with open(path, "wb") as fh:
            fh.write(b"PNTD" + struct.pack("<7I", 1, 1, *dims) + record)
        if command == "predict":
            return _predict_argv(p, tmp_path, in_path=path)
        return ["train", "--tensors", path, "--vocab", p["vocab"],
                "--functions", p["tensors"] + ".functions.json",
                "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]

    return case


def _tensor_file_with(change):
    """predict on the pipeline's tensor file with change(blob, n_rows, grid_at)
    applied to its first record."""
    def case(p, tmp_path):
        blob = bytearray(open(p["tensors"], "rb").read())
        words = struct.unpack_from("<I", blob, 28)[0]
        n_msg, n_rows = struct.unpack_from("<II", blob, 73)
        change(blob, n_rows, 81 + 4 * n_msg + 4 * n_rows * words)
        path = tmp_path / "corrupt.bin"
        path.write_bytes(bytes(blob))
        return _predict_argv(p, tmp_path, in_path=str(path))

    return case


def _only_first_record_with_one_more_row(blob, n_rows, grid_at):
    struct.pack_into("<I", blob, 8, 1)
    del blob[grid_at + 2 * 1 * 2 * 2 :]
    struct.pack_into("<I", blob, 77, n_rows + 1)


def _checkpoint_with_header(header):
    def case(p, tmp_path):
        payload = json.dumps(header).encode("utf-8")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"PNET" + struct.pack("<II", 1, len(payload)) + payload)
        return _predict_argv(p, tmp_path, checkpoint=str(path))

    return case


def _checkpoint_with_header_change(change):
    """predict with the pipeline's checkpoint, its header edited by change(header)."""
    def case(p, tmp_path):
        blob = open(p["checkpoint"], "rb").read()
        (n,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + n])
        change(header)
        payload = json.dumps(header).encode("utf-8")
        path = tmp_path / "changed.ckpt"
        path.write_bytes(blob[:8] + struct.pack("<I", len(payload)) + payload + blob[12 + n :])
        return _predict_argv(p, tmp_path, checkpoint=str(path))

    return case


def _checkpoint_with_float_hyperparameter(key):
    """The pipeline's checkpoint with the integer hyperparameter `key` as a float."""
    def change(header):
        header["hyperparams"][key] = float(header["hyperparams"][key])

    return _checkpoint_with_header_change(change)


def _checkpoint_with_message_words(make):
    def change(header):
        header["message_vocab"] = make(header["message_vocab"])

    return _checkpoint_with_header_change(change)


def _vocab_file_with_message_words(make):
    """train with the pipeline's vocabulary, its message words replaced by make(words)."""
    def case(p, tmp_path):
        objs = json.loads(open(p["vocab"]).read())
        objs[0]["words"] = make(objs[0]["words"])
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(objs))
        return ["train", "--tensors", p["tensors"], "--vocab", str(path),
                "--functions", p["tensors"] + ".functions.json",
                "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]

    return case


# Word lists that neither vocabulary reader may accept, each as long as
# the list it replaces, so the parameter shapes still fit.
BAD_WORDS = {
    "string": lambda words: "x" * len(words),
    "non-string": lambda words: [1, *words[1:]],
    "duplicate": lambda words: [words[1], *words[1:]],
    "pad": lambda words: ["<pad>", *words[1:]],
    "unk": lambda words: [*words[:-1], "<unk>"],
}


def _checkpoint_with_nan_parameter(p, tmp_path):
    blob = bytearray(open(p["checkpoint"], "rb").read())
    blob[-4:] = struct.pack("<f", float("nan"))
    path = tmp_path / "nan.ckpt"
    path.write_bytes(bytes(blob))
    return _predict_argv(p, tmp_path, checkpoint=str(path))


def _index_past_vocabulary(command):
    def case(p, tmp_path):
        patches, dims = read_tensor_file(p["tensors"])
        patches[0].rows[0, 0] = 10**6
        path = str(tmp_path / "big.bin")
        write_tensor_file(path, patches, dims)
        if command == "predict":
            return _predict_argv(p, tmp_path, in_path=path)
        return ["train", "--tensors", path, "--vocab", p["vocab"],
                "--functions", p["tensors"] + ".functions.json",
                "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]

    return case


def _functions_array(p, tmp_path):
    path = tmp_path / "functions.json"
    path.write_text('["kmalloc"]\n')
    return ["train", "--tensors", p["tensors"], "--vocab", p["vocab"], "--functions",
            str(path), "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]


def _non_object_commit_record(p, tmp_path):
    path = tmp_path / "commits.jsonl"
    path.write_text(open(p["dataset"]).readline() + "[1, 2]\n")
    return _predict_argv(p, tmp_path, in_path=str(path))


def _commit_record_with(**fields):
    def case(p, tmp_path):
        obj = {**json.loads(open(p["dataset"]).readline()), **fields}
        path = tmp_path / "commits.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        return ["preprocess", "--dataset", str(path), "--out", str(tmp_path / "t.bin"),
                "--vocab-out", str(tmp_path / "v.json"), *PREPROCESS_DIMS]

    return case


def _functions_file_with_mixed_names(p, tmp_path):
    path = tmp_path / "functions.json"
    path.write_text('{"retained": ["kfree", 1], "defined_in": {}}\n')
    return ["train", "--tensors", p["tensors"], "--vocab", p["vocab"], "--functions",
            str(path), "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]


def _vocab_file(text):
    def case(p, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(text)
        return ["train", "--tensors", p["tensors"], "--vocab", str(path),
                "--functions", p["tensors"] + ".functions.json",
                "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]

    return case


_HP = HyperParams().to_json_obj()
FLOAT_KEYS = ("d_msg", "n_filters", "fc_size", "words", "msg_len")


@pytest.mark.parametrize(
    "make_argv",
    [
        _short_tensor_file,
        _version_1_tensor_file("predict"),
        _version_1_tensor_file("train"),
        _tensor_file_with(lambda blob, n_rows, grid_at: struct.pack_into("<I", blob, 73, 9)),
        _tensor_file_with(_only_first_record_with_one_more_row),
        _tensor_file_with(lambda blob, n_rows, grid_at: blob.__setitem__(grid_at, n_rows + 1)),
        _tensor_file_with(lambda blob, n_rows, grid_at: blob.extend(blob[32:77])),
        _checkpoint_with_header({}),
        _checkpoint_with_header([]),
        _checkpoint_with_header({"hyperparams": {**_HP, "bogus": 1}}),
        _checkpoint_with_header({"hyperparams": {k: v for k, v in _HP.items() if k != "words"}}),
        *[_checkpoint_with_float_hyperparameter(key) for key in FLOAT_KEYS],
        _checkpoint_with_nan_parameter,
        _index_past_vocabulary("predict"),
        _index_past_vocabulary("train"),
        _functions_array,
        _functions_file_with_mixed_names,
        _non_object_commit_record,
        _commit_record_with(subject=5),
        _commit_record_with(date=float("inf")),
        _commit_record_with(files=[{"path": "drivers/net/foo.c", "before": 5}]),
        _vocab_file("[1]\n"),
        _vocab_file('[{"channel": "message"}, {"channel": "code", "words": []}]\n'),
        *[_vocab_file_with_message_words(make) for make in BAD_WORDS.values()],
        *[_checkpoint_with_message_words(make) for make in BAD_WORDS.values()],
        _commit_record_with(commit_id="abc"),
        _commit_record_with(parents="abc"),
    ],
    ids=[
        "tensor-file-under-32-bytes",
        "predict-tensor-file-version-1",
        "train-tensor-file-version-1",
        "tensor-message-count-past-msg-len",
        "tensor-row-count-overruns-record",
        "tensor-row-id-past-rows",
        "tensor-trailing-partial-record",
        "checkpoint-header-without-keys",
        "checkpoint-header-list",
        "checkpoint-unknown-hyperparameter",
        "checkpoint-missing-hyperparameter",
        *[f"checkpoint-float-{key}" for key in FLOAT_KEYS],
        "checkpoint-nan-parameter",
        "predict-index-past-vocabulary",
        "train-index-past-vocabulary",
        "functions-file-array",
        "functions-file-mixed-names",
        "commits-jsonl-non-object",
        "commits-jsonl-subject-not-string",
        "commits-jsonl-infinite-date",
        "commits-jsonl-snapshot-not-string",
        "vocab-non-object-entry",
        "vocab-entry-without-words",
        *[f"vocab-words-{name}" for name in BAD_WORDS],
        *[f"checkpoint-words-{name}" for name in BAD_WORDS],
        "commits-jsonl-short-id",
        "commits-jsonl-parents-string",
    ],
)
def test_bad_input_exits_data_without_traceback(pipeline, tmp_path, capsys, make_argv):
    argv = make_argv(pipeline, tmp_path)
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_ingest_refuses_bad_jsonl_ids_and_parents(pipeline, tmp_path, capsys):
    good = json.loads(open(pipeline["dataset"]).readline())
    out = tmp_path / "data.jsonl"
    for field, value in (("commit_id", "abc"), ("commit_id", 5), ("parents", "abc"), ("parents", [5])):
        mainline = tmp_path / "mainline.jsonl"
        mainline.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        assert run(["ingest", "--mainline", str(mainline), "--stable", pipeline["stable"],
                    "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: bad JSONL record: ") and err.rstrip().endswith("at line 2")
        assert not out.exists()


# Function tables that are not lists of name strings; a string would read
# as its characters.
BAD_FUNCTION_TABLES = {
    "retained-string": {"retained": "kfree", "defined_in": {}},
    "defined-in-string": {"retained": [], "defined_in": {"a.c": "foo"}},
}


@pytest.mark.parametrize("reader", ["train-functions", "checkpoint-header"])
@pytest.mark.parametrize("table", BAD_FUNCTION_TABLES)
def test_function_tables_must_hold_lists_of_strings(pipeline, tmp_path, capsys, reader, table):
    obj = BAD_FUNCTION_TABLES[table]
    if reader == "train-functions":
        path = tmp_path / "functions.json"
        path.write_text(json.dumps(obj))
        argv = ["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"], "--functions",
                str(path), "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]
    else:
        argv = _checkpoint_with_header_change(lambda header: header.update(functions=obj))(pipeline, tmp_path)
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a function table" in err and "Traceback" not in err


def test_ingest_refuses_bad_jsonl_parent_ids_and_dates(pipeline, tmp_path, capsys):
    good = json.loads(open(pipeline["dataset"]).readline())
    out = tmp_path / "data.jsonl"
    for field, value, message in (("parents", ["x"], "malformed commit id 'x'"),
                                  ("date", 1.9, "date must be an integer"),
                                  ("date", True, "date must be an integer"),
                                  ("date", "12", "date must be an integer")):
        mainline = tmp_path / "mainline.jsonl"
        mainline.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        assert run(["ingest", "--mainline", str(mainline), "--stable", pipeline["stable"],
                    "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad JSONL record: {message}") and err.rstrip().endswith("at line 2")
        assert not out.exists()


@pytest.mark.parametrize(
    "setting, flags",
    [("learning_rate", ["--learning-rate", "nan"]), ("learning_rate", ["--learning-rate", "inf"]),
     ("l2_reg_lambda", ["--l2", "nan"]), ("threshold", ["--threshold", "nan"])],
    ids=["learning-rate-nan", "learning-rate-inf", "l2-nan", "threshold-nan"],
)
def test_settings_nothing_can_use_exit_data(pipeline, tmp_path, capsys, setting, flags):
    out = tmp_path / "out"
    if setting == "threshold":
        argv = ["evaluate", "--scores", pipeline["scores"], "--report", str(out)]
    else:
        argv = ["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
                "--functions", pipeline["tensors"] + ".functions.json", "--out", str(out), *TRAIN_FLAGS]
    assert run(argv + flags) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {setting} must be finite") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_train_refuses_a_negative_seed(pipeline, tmp_path, capsys, monkeypatch, source):
    out = tmp_path / "m.ckpt"
    flags = TRAIN_FLAGS[: TRAIN_FLAGS.index("--seed")]
    argv = ["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
            "--functions", pipeline["tensors"] + ".functions.json", "--out", str(out), *flags]
    if source == "flag":
        seed = -1
        argv += ["--seed", str(seed)]
    else:
        seed = -3
        monkeypatch.setenv("PATCHNET_SEED", str(seed))
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert not out.exists()


def test_module_entry_point_runs_the_cli(pipeline, tmp_path):
    src = str(Path(patchnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def module(*args):
        return subprocess.run([sys.executable, "-m", "patchnet.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = module("--version")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.strip() == f"patchnet {__version__}"
    proc = module("predict", "--checkpoint", str(tmp_path / "missing.ckpt"),
                  "--in", pipeline["tensors"], "--out", str(tmp_path / "s.jsonl"))
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "s.jsonl").exists()


# Modules that only preprocess, train, predict and the metrics need.
HEAVY_MODULES = ("numpy", "scipy", "patchnet.preprocess", "patchnet.model", "patchnet.nnkit",
                 "patchnet.trainer")


def test_cli_processes_load_only_what_their_command_runs(pipeline, tmp_path):
    # Every CLI process pays for what it imports: numpy costs about 0.1 s
    # and SciPy over a second, and none of these commands needs either.
    # preprocess runs patchnet.preprocess, which builds its records with
    # the stdlib.
    src = str(Path(patchnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    allowed = {"preprocess": ["patchnet.preprocess"]}
    commands = {
        "import": [],
        "--version": ["--version"],
        "ingest": ["ingest", "--mainline", pipeline["mainline"], "--stable", pipeline["stable"],
                   "--out", str(tmp_path / "data.jsonl")],
        "label": ["label", "--dataset", pipeline["dataset"], "--stable", pipeline["stable"],
                  "--out", str(tmp_path / "labeled.jsonl")],
        "folds": ["folds", "--dataset", pipeline["dataset"], "--n", "2",
                  "--out-prefix", str(tmp_path / "fold")],
        "baseline": ["baseline", "--dataset", pipeline["dataset"], "--out", str(tmp_path / "b.jsonl")],
        "baseline --report": ["baseline", "--dataset", pipeline["dataset"], "--out", str(tmp_path / "b2.jsonl"),
                              "--report", str(tmp_path / "b2.json")],
        "preprocess": ["preprocess", "--dataset", pipeline["dataset"], "--out", str(tmp_path / "t.bin"),
                       "--vocab-out", str(tmp_path / "v.json"), *PREPROCESS_DIMS],
        "evaluate": ["evaluate", "--scores", pipeline["scores"], "--report", str(tmp_path / "r.json"),
                     "--pr-csv", str(tmp_path / "pr.csv")],
    }
    for name, argv in commands.items():
        code = ("import json, sys\nfrom patchnet.cli import run\n"
                f"rc = run({argv!r}) if {argv!r} else 0\n"
                f"print(json.dumps([rc, sorted(set({HEAVY_MODULES!r}) & set(sys.modules))]))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK, allowed.get(name, [])], name


def test_train_rejects_unlabeled_tensors(tmp_path):
    data = tmp_path / "raw.export"
    data.write_text("".join(SAMPLE_EXPORTS))
    tensors = str(tmp_path / "t.bin")
    rc = run(["preprocess", "--dataset", str(data), "--out", tensors,
              "--vocab-out", str(tmp_path / "v.json"), *PREPROCESS_DIMS])
    assert rc == EXIT_OK
    assert run(["train", "--tensors", tensors, "--vocab", str(tmp_path / "v.json"),
                "--functions", tensors + ".functions.json", "--out", str(tmp_path / "m.ckpt"),
                *TRAIN_FLAGS]) == EXIT_DATA


def test_baseline_report_requires_labels(tmp_path):
    data = tmp_path / "raw.export"
    data.write_text("".join(SAMPLE_EXPORTS))
    out = str(tmp_path / "b.jsonl")
    assert run(["baseline", "--dataset", str(data), "--out", out,
                "--report", str(tmp_path / "r.json")]) == EXIT_DATA
    assert run(["baseline", "--dataset", str(data), "--out", out]) == EXIT_OK
    assert all("true_label" not in r for r in _read_jsonl(out))


def test_baseline_without_labels_writes_nothing(tmp_path, capsys):
    data = tmp_path / "raw.export"
    data.write_text("".join(SAMPLE_EXPORTS))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["baseline", "--dataset", str(data), "--out", str(out / "b.jsonl"),
                "--report", str(out / "r.json")]) == EXIT_DATA
    assert list(out.iterdir()) == []
    assert "baseline:" not in capsys.readouterr().out


def test_evaluate_pr_csv_with_folds_writes_nothing(tmp_path):
    fold = tmp_path / "fold.jsonl"
    fold.write_text('{"commit_id": "a1", "score": 0.9, "true_label": 1}\n')
    out = tmp_path / "out"
    out.mkdir()
    assert run(["evaluate", "--scores", str(fold), str(fold), "--report", str(out / "r.json"),
                "--pr-csv", str(out / "pr.csv")]) == EXIT_USAGE
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# Aggregated evaluation


def test_evaluate_multiple_folds(tmp_path):
    fold_a = tmp_path / "fold_a.jsonl"
    fold_a.write_text(
        '{"commit_id": "a1", "score": 0.9, "true_label": 1}\n'
        '{"commit_id": "a2", "score": 0.4, "true_label": 0}\n'
    )
    fold_b = tmp_path / "fold_b.jsonl"
    fold_b.write_text(
        '{"commit_id": "b1", "score": 0.6, "true_label": "non-stable"}\n'
        '{"commit_id": "b2", "score": 0.7, "true_label": "stable"}\n'
    )
    report_path = str(tmp_path / "agg.json")
    assert run(["evaluate", "--scores", str(fold_a), str(fold_b),
                "--report", report_path]) == EXIT_OK
    report = json.load(open(report_path))
    assert [f["scores_file"] for f in report["folds"]] == [str(fold_a), str(fold_b)]
    assert report["folds"][0]["accuracy"] == 1.0
    assert report["folds"][1]["accuracy"] == 0.5
    assert report["mean"]["accuracy"] == 0.75
    assert report["std_population"]["accuracy"] == 0.25
    assert report["std_sample"]["accuracy"] == pytest.approx(math.sqrt(0.125))
    assert report["mean"]["auc"] == 1.0

    # The PR curve is per-fold only.
    assert run(["evaluate", "--scores", str(fold_a), str(fold_b),
                "--report", report_path, "--pr-csv",
                str(tmp_path / "pr.csv")]) == EXIT_USAGE


def test_evaluate_input_validation(tmp_path):
    missing_truth = tmp_path / "scores.jsonl"
    missing_truth.write_text('{"commit_id": "x", "score": 0.5}\n')
    report = str(tmp_path / "r.json")
    assert run(["evaluate", "--scores", str(missing_truth), "--report", report]) == EXIT_DATA
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    assert run(["evaluate", "--scores", str(bad), "--report", report]) == EXIT_DATA
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(["evaluate", "--scores", str(empty), "--report", report]) == EXIT_DATA
    assert run(["evaluate", "--scores", str(tmp_path / "ghost.jsonl"),
                "--report", report]) == EXIT_DATA
    numeric_string = tmp_path / "string.jsonl"
    numeric_string.write_text('{"score": "0.75", "true_label": 1}\n')
    assert run(["evaluate", "--scores", str(numeric_string), "--report", report]) == EXIT_OK


@pytest.mark.parametrize(
    "row",
    ['{"score": NaN, "true_label": 1}', '{"score": null, "true_label": 1}',
     '{"score": Infinity, "true_label": 1}', "5",
     '{"score": true, "true_label": 1}', '{"score": false, "true_label": 0}'],
    ids=["nan", "null", "infinity", "non-object", "true", "false"],
)
def test_evaluate_bad_score_row_exits_data_without_traceback(tmp_path, capsys, row):
    scores = tmp_path / "scores.jsonl"
    scores.write_text('{"score": 0.2, "true_label": 0}\n' + row + "\n")
    assert run(["evaluate", "--scores", str(scores),
                "--report", str(tmp_path / "r.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scores}:2: ") and "Traceback" not in err


def test_train_defaults_come_from_hyperparams_and_train_config():
    parser, _ = build_parser()
    args = parser.parse_args(["train", "--tensors", "t.bin", "--vocab", "v.json",
                              "--functions", "f.json", "--out", "m.ckpt"])
    dims = PatchDims(msg_len=8, files=1, hunks=2, lines=2, words=6)
    hp, config = _train_settings(args, dims, seed=11)
    assert hp == HyperParams(dims=dims)
    assert config == TrainConfig(seed=11)
    assert args.filter_sizes == "1,2"


# ---------------------------------------------------------------------------
# Config file and environment seed


def test_config_file_sets_defaults(pipeline, tmp_path):
    cfg = tmp_path / "patchnet.cfg"
    cfg.write_text("# fold settings\nn = 3\nout-prefix = " + str(tmp_path / "cf") + "\n")
    assert run(["folds", "--dataset", pipeline["dataset"],
                "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "cf3.json").exists()

    # Explicit flags still win over the file.
    assert run(["folds", "--dataset", pipeline["dataset"], "--config", str(cfg),
                "--n", "2", "--out-prefix", str(tmp_path / "argv")]) == EXIT_OK
    assert (tmp_path / "argv2.json").exists()
    assert not (tmp_path / "argv3.json").exists()


def test_config_file_errors(pipeline, tmp_path):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("frobnication=9\n")
    assert run(["folds", "--dataset", pipeline["dataset"],
                "--config", str(unknown)]) == EXIT_USAGE
    bad_value = tmp_path / "bad.cfg"
    bad_value.write_text("n=many\n")
    assert run(["folds", "--dataset", pipeline["dataset"],
                "--config", str(bad_value)]) == EXIT_USAGE
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n")
    assert run(["folds", "--dataset", pipeline["dataset"],
                "--config", str(malformed)]) == EXIT_DATA
    assert run(["folds", "--dataset", pipeline["dataset"],
                "--config", str(tmp_path / "ghost.cfg")]) == EXIT_DATA
    bad_choice = tmp_path / "choice.cfg"
    bad_choice.write_text("variant = bogus\n")
    assert run(["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
                "--functions", pipeline["tensors"] + ".functions.json",
                "--out", str(tmp_path / "m.ckpt"), "--config", str(bad_choice)]) == EXIT_USAGE


def test_env_seed_fallback(pipeline, tmp_path, monkeypatch):
    out = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("PATCHNET_SEED", "5")
    assert run(["ingest", "--mainline", pipeline["mainline"],
                "--stable", pipeline["stable"], "--out", out]) == EXIT_OK
    assert json.load(open(out + ".manifest.json"))["seed"] == 5

    out2 = str(tmp_path / "flag.jsonl")
    assert run(["ingest", "--mainline", pipeline["mainline"],
                "--stable", pipeline["stable"], "--out", out2,
                "--seed", "9"]) == EXIT_OK
    assert json.load(open(out2 + ".manifest.json"))["seed"] == 9

    monkeypatch.setenv("PATCHNET_SEED", "not-a-number")
    assert run(["ingest", "--mainline", pipeline["mainline"],
                "--stable", pipeline["stable"],
                "--out", str(tmp_path / "x.jsonl")]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# label subcommand


def test_label_subcommand_with_rc_ids(pipeline, tmp_path):
    rc_file = tmp_path / "rc.txt"
    rc_file.write_text(f"{hex_id(301)}  # shipped in an rc2 release\n")
    out = str(tmp_path / "labeled.jsonl")
    assert run(["label", "--dataset", pipeline["mainline"],
                "--stable", pipeline["stable"],
                "--rc-ids", str(rc_file), "--out", out]) == EXIT_OK
    labels = {r["commit_id"]: r["label"] for r in _read_jsonl(out)}
    assert labels[hex_id(101)] == "stable"  # back link
    assert labels[hex_id(301)] == "stable"  # rc id
    assert labels[hex_id(302)] == "non-stable"

    bad_rc = tmp_path / "bad_rc.txt"
    bad_rc.write_text("zzz\n")
    assert run(["label", "--dataset", pipeline["mainline"],
                "--stable", pipeline["stable"],
                "--rc-ids", str(bad_rc), "--out", out]) == EXIT_DATA


def test_ingest_keeps_file_labels_and_label_overrides_them(pipeline, tmp_path):
    # 101 is stable by its back link and 301 non-stable by the evidence;
    # the JSONL mainline says the opposite for both and leaves the rest
    # unlabeled.
    preset = {hex_id(101): Label.NON_STABLE, hex_id(301): Label.STABLE}
    mainline = str(tmp_path / "mainline.jsonl")
    write_commits_jsonl(mainline, [replace(c, label=preset.get(c.commit_id))
                                   for c in load_commits(pipeline["mainline"])])
    dataset = str(tmp_path / "data.jsonl")
    assert run(["ingest", "--mainline", mainline, "--stable", pipeline["stable"],
                "--out", dataset]) == EXIT_OK
    labels = {r["commit_id"]: r["label"] for r in _read_jsonl(dataset)}
    assert labels[hex_id(101)] == "non-stable"
    assert labels[hex_id(301)] == "stable"
    assert labels[hex_id(102)] == "stable"  # unlabeled: back link
    assert labels[hex_id(302)] == "non-stable"  # unlabeled: no evidence

    relabeled = str(tmp_path / "relabeled.jsonl")
    assert run(["label", "--dataset", dataset, "--stable", pipeline["stable"],
                "--out", relabeled]) == EXIT_OK
    labels = {r["commit_id"]: r["label"] for r in _read_jsonl(relabeled)}
    assert labels[hex_id(101)] == "stable"
    assert labels[hex_id(301)] == "non-stable"
    assert labels[hex_id(102)] == "stable"


def test_stdout_summaries(pipeline, tmp_path, capsys):
    out = str(tmp_path / "b.jsonl")
    assert run(["baseline", "--dataset", pipeline["dataset"], "--out", out]) == EXIT_OK
    captured = capsys.readouterr().out
    assert captured.startswith(f"baseline: {STABLE_BOUND} stable")


@pytest.mark.parametrize("threshold, label", [(0.5, "stable"), (0.6, "non-stable")])
def test_predict_labels_stable_at_or_above_the_threshold(pipeline, tmp_path, threshold, label):
    # A checkpoint of zero parameters scores every patch exactly 0.5.
    bundle = load_checkpoint(pipeline["checkpoint"])
    for _, t in bundle.params.named():
        t.data[...] = 0.0
    checkpoint = str(tmp_path / "zero.ckpt")
    save_checkpoint(checkpoint, bundle.params, replace(bundle.hp, threshold=threshold),
                    bundle.message_vocab, bundle.code_vocab, bundle.functions)
    out = str(tmp_path / "s.jsonl")
    assert run(["predict", "--checkpoint", checkpoint, "--in", pipeline["tensors"], "--out", out]) == EXIT_OK
    rows = _read_jsonl(out)
    assert len(rows) == 2 * STABLE_BOUND
    assert all(r["score"] == 0.5 and r["label"] == label for r in rows)


def test_preprocess_refuses_dims_past_u32(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["preprocess", "--dataset", pipeline["dataset"], "--out", str(out / "t.bin"),
                "--vocab-out", str(out / "v.json"), *PREPROCESS_DIMS, "--msg-len", "5000000000"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: msg_len must be at most 4294967295") and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 186. GiB for an array"), MemoryError()],
                         ids=["message", "bare"])
def test_failed_allocation_exits_data(pipeline, tmp_path, capsys, monkeypatch, exc):
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(trainer, "init_params", no_memory)
    out = tmp_path / "m.ckpt"
    assert run(["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
                "--functions", pipeline["tensors"] + ".functions.json", "--out", str(out),
                *TRAIN_FLAGS]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: {str(exc) or 'MemoryError'}\n"
    assert not out.exists()


def test_train_summary_line(pipeline, tmp_path, capsys):
    out = str(tmp_path / "m.ckpt")
    capsys.readouterr()
    assert run(["train", "--tensors", pipeline["tensors"], "--vocab", pipeline["vocab"],
                "--functions", pipeline["tensors"] + ".functions.json", "--out", out,
                *TRAIN_FLAGS]) == EXIT_OK
    (summary,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("train:")]
    # No second inference pass: the line ends with the history, not an accuracy.
    assert re.fullmatch(r"train: 2 epochs \(best [12], loss \d+\.\d{6}, stopped_early=False\)",
                        summary)


def test_preprocess_reports_unparsable_diffs(tmp_path, capsys):
    dataset = str(tmp_path / "d.jsonl")
    bad = make_commit(1, diff="@@ not a hunk header\n", label=Label.STABLE)
    write_commits_jsonl(dataset, [bad, make_commit(2, label=Label.NON_STABLE)])
    tensors = str(tmp_path / "t.bin")
    capsys.readouterr()
    assert run(["preprocess", "--dataset", dataset, "--out", tensors,
                "--vocab-out", str(tmp_path / "v.json"), *PREPROCESS_DIMS]) == EXIT_OK
    assert "1 unparsable diffs)" in capsys.readouterr().out
    (p_bad, p_good), _ = read_tensor_file(tensors)
    assert not p_bad.removed_code.any() and not p_bad.added_code.any()
    assert p_good.added_code.any()


def test_empty_message_and_code_channels_run_through(tmp_path):
    # A tag-only message and an unparsable diff give a zero-length
    # message and an empty row table; every stage must take them.
    dataset = str(tmp_path / "d.jsonl")
    empty = make_commit(1, subject="Signed-off-by: Dev One <dev@example.org>", body="",
                        diff="@@ not a hunk header\n", label=Label.STABLE)
    write_commits_jsonl(dataset, [empty, make_commit(2, label=Label.NON_STABLE)])
    tensors, vocab, ckpt = (str(tmp_path / name) for name in ("t.bin", "v.json", "m.ckpt"))
    assert run(["preprocess", "--dataset", dataset, "--out", tensors, "--vocab-out", vocab,
                *PREPROCESS_DIMS]) == EXIT_OK
    (p_empty, _), _ = read_tensor_file(tensors)
    assert len(p_empty.message) == 0 and len(p_empty.rows) == 0
    assert run(["train", "--tensors", tensors, "--vocab", vocab, "--functions", tensors + ".functions.json",
                "--out", ckpt, *TRAIN_FLAGS]) == EXIT_OK
    for source in (tensors, dataset):
        out = str(tmp_path / "s.jsonl")
        assert run(["predict", "--checkpoint", ckpt, "--in", source, "--out", out]) == EXIT_OK
        assert len(_read_jsonl(out)) == 2


def test_a_message_word_of_3000_ys_runs_through(pipeline, tmp_path):
    dataset = str(tmp_path / "d.jsonl")
    long_y = make_commit(1, subject="fix a" + "y" * 3000 + "ing leak", label=Label.STABLE)
    write_commits_jsonl(dataset, [long_y, make_commit(2, label=Label.NON_STABLE)])
    assert run(["preprocess", "--dataset", dataset, "--out", str(tmp_path / "t.bin"),
                "--vocab-out", str(tmp_path / "v.json"), *PREPROCESS_DIMS]) == EXIT_OK
    assert run(["predict", "--checkpoint", pipeline["checkpoint"], "--in", dataset,
                "--out", str(tmp_path / "s.jsonl")]) == EXIT_OK
    assert run(["baseline", "--dataset", dataset, "--out", str(tmp_path / "b.jsonl")]) == EXIT_OK
    assert [row["label"] for row in _read_jsonl(tmp_path / "b.jsonl")] == ["stable", "non-stable"]


# ---------------------------------------------------------------------------
# Outputs appear whole or not at all


def _raising_rows(first):
    yield first
    raise RuntimeError("writer failed mid-write")


def _tensors_then_bad_shape(p, path):
    patches, dims = read_tensor_file(p["tensors"])
    bad = replace(patches[0], grid=patches[0].grid[:1])
    write_tensor_file(path, [patches[0], bad], dims)


def _commits_then_raise(p, path):
    write_commits_jsonl(path, _raising_rows(load_commits(p["dataset"])[0]))


def _vocab_with_unserialisable_word(p, path):
    msg, code = load_vocab_pair(p["vocab"])
    # The constructor, not from_words, which refuses the word before any write.
    save_vocab_pair(msg, Vocabulary("code", (*code.index_to_word, object()), code.word_to_index), path)


def _checkpoint_with_unconvertible_array(p, path):
    bundle = load_checkpoint(p["checkpoint"])
    # save_checkpoint writes the one vector every tensor is a view of.
    bundle.params.flat = np.array(["x"], dtype=object)
    save_checkpoint(path, bundle.params, bundle.hp, bundle.message_vocab, bundle.code_vocab, bundle.functions)


def _json_with_unserialisable_value(p, path):
    cli._write_json(path, {"a": 1, "z": object()})


def _jsonl_then_raise(p, path):
    cli._write_jsonl(path, _raising_rows({"commit_id": "x", "score": 0.5}))


@pytest.mark.parametrize(
    "write",
    [_tensors_then_bad_shape, _commits_then_raise, _vocab_with_unserialisable_word,
     _checkpoint_with_unconvertible_array, _json_with_unserialisable_value, _jsonl_then_raise],
    ids=["tensors", "commits-jsonl", "vocab", "checkpoint", "json", "scores-jsonl"],
)
def test_failed_write_leaves_previous_file(pipeline, tmp_path, write):
    target = tmp_path / "out"
    with pytest.raises(Exception):
        write(pipeline, str(target))
    assert os.listdir(tmp_path) == []
    target.write_bytes(b"previous content\n")
    with pytest.raises(Exception):
        write(pipeline, str(target))
    assert os.listdir(tmp_path) == ["out"]
    assert target.read_bytes() == b"previous content\n"
