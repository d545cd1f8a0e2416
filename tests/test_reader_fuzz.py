"""Every CLI reader against mutated bytes: exit 1 or 2, or a clean result,
never a traceback.

A small pipeline runs once; each property then mutates the bytes of one
of its files (flip, insert, delete, truncate) and runs the command that
reads that file in-process.  `run` maps every expected failure to an
exit code, so an exception escaping it is exactly the traceback a user
would see.  Byte flips rarely keep JSON valid, so the JSON readers also
get documents with one value replaced by an arbitrary JSON value.
"""

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patchnet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run
from test_cli import PREPROCESS_DIMS, TRAIN_FLAGS, _mainline_records, _stable_records

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EDITS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "insert", "delete", "truncate")),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=4,
)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def mutate(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for op, where, value in edits:
        i = where % (len(data) + 1)
        if op == "insert":
            data.insert(i, value)
        elif not data:
            continue
        elif op == "flip":
            data[i % len(data)] ^= 1 << (value % 8)
        elif op == "delete":
            del data[i % len(data)]
        else:
            del data[i:]
    return bytes(data)


def replace_node(doc, which: int, value):
    """doc with its which-th node (pre-order, modulo the count) replaced."""
    slots = [(None, None)]

    def walk(node):
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            slots.append((node, key))
            walk(child)

    walk(doc)
    parent, key = slots[which % len(slots)]
    if parent is None:
        return value
    parent[key] = value
    return doc


def checkpoint_with_header(blob: bytes, edit) -> bytes:
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.dumps(edit(json.loads(blob[12 : 12 + size]))).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + size :]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """One file per reader, written by the real pipeline."""
    root = tmp_path_factory.mktemp("fuzz")
    f = {name: str(root / name) for name in (
        "mainline.export", "stable.export", "data.jsonl", "tensors.bin", "vocab.json",
        "model.ckpt", "scores.jsonl", "report.json")}
    Path(f["mainline.export"]).write_text("".join(_mainline_records()))
    Path(f["stable.export"]).write_text("".join(_stable_records()))
    steps = [
        ["ingest", "--mainline", f["mainline.export"], "--stable", f["stable.export"],
         "--out", f["data.jsonl"]],
        ["preprocess", "--dataset", f["data.jsonl"], "--out", f["tensors.bin"],
         "--vocab-out", f["vocab.json"], *PREPROCESS_DIMS],
        ["train", "--tensors", f["tensors.bin"], "--vocab", f["vocab.json"],
         "--functions", f["tensors.bin"] + ".functions.json", "--out", f["model.ckpt"], *TRAIN_FLAGS],
        ["predict", "--checkpoint", f["model.ckpt"], "--in", f["tensors.bin"],
         "--out", f["scores.jsonl"]],
    ]
    for argv in steps:
        assert run(argv) == EXIT_OK, argv[0]
    f["evaluate.conf"] = str(root / "evaluate.conf")
    Path(f["evaluate.conf"]).write_text("# evaluate settings\nthreshold = 0.5\n")
    f["functions.json"] = f["tensors.bin"] + ".functions.json"
    return f


def run_mutated(base, name, edit, argv_for):
    """Run argv_for(mutated path, out dir) on edit(bytes of base[name])."""
    blob = edit(Path(base[name]).read_bytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        Path(path).write_bytes(blob)
        code = run(argv_for(path, tmp))
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA)


@FUZZ
@given(edits=EDITS)
def test_export_reader(base, edits):
    run_mutated(base, "mainline.export", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "ingest", "--mainline", path, "--stable", base["stable.export"],
        "--out", f"{tmp}/d.jsonl"])


@FUZZ
@given(edits=EDITS)
def test_jsonl_reader(base, edits):
    run_mutated(base, "data.jsonl", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "preprocess", "--dataset", path, "--out", f"{tmp}/t.bin",
        "--vocab-out", f"{tmp}/v.json", *PREPROCESS_DIMS])


@FUZZ
@given(edits=EDITS)
def test_commits_reader_in_predict(base, edits):
    run_mutated(base, "data.jsonl", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "predict", "--checkpoint", base["model.ckpt"], "--in", path, "--out", f"{tmp}/s.jsonl"])


@FUZZ
@given(edits=EDITS)
def test_tensor_reader(base, edits):
    run_mutated(base, "tensors.bin", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "predict", "--checkpoint", base["model.ckpt"], "--in", path, "--out", f"{tmp}/s.jsonl"])


@FUZZ
@given(edits=EDITS)
def test_checkpoint_reader(base, edits):
    run_mutated(base, "model.ckpt", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "predict", "--checkpoint", path, "--in", base["tensors.bin"], "--out", f"{tmp}/s.jsonl"])


@FUZZ
@given(edits=EDITS)
def test_vocab_reader(base, edits):
    run_mutated(base, "vocab.json", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "train", "--tensors", base["tensors.bin"], "--vocab", path,
        "--functions", base["functions.json"], "--out", f"{tmp}/m.ckpt", *TRAIN_FLAGS])


@FUZZ
@given(edits=EDITS)
def test_config_reader(base, edits):
    run_mutated(base, "evaluate.conf", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "evaluate", "--config", path, "--scores", base["scores.jsonl"],
        "--report", f"{tmp}/r.json"])


@FUZZ
@given(edits=EDITS)
def test_scores_reader(base, edits):
    run_mutated(base, "scores.jsonl", lambda blob: mutate(blob, edits), lambda path, tmp: [
        "evaluate", "--scores", path, "--report", f"{tmp}/r.json", "--pr-csv", f"{tmp}/pr.csv"])


JSON_READERS = {
    "data.jsonl": lambda base, path, tmp: [
        "preprocess", "--dataset", path, "--out", f"{tmp}/t.bin",
        "--vocab-out", f"{tmp}/v.json", *PREPROCESS_DIMS],
    "functions.json": lambda base, path, tmp: [
        "train", "--tensors", base["tensors.bin"], "--vocab", base["vocab.json"],
        "--functions", path, "--out", f"{tmp}/m.ckpt", *TRAIN_FLAGS],
    "vocab.json": lambda base, path, tmp: [
        "train", "--tensors", base["tensors.bin"], "--vocab", path,
        "--functions", base["functions.json"], "--out", f"{tmp}/m.ckpt", *TRAIN_FLAGS],
    "scores.jsonl": lambda base, path, tmp: [
        "evaluate", "--scores", path, "--report", f"{tmp}/r.json"],
}


@pytest.mark.parametrize("name", sorted(JSON_READERS))
@FUZZ
@given(which=st.integers(min_value=0, max_value=2**16), value=JSON_VALUES)
def test_json_readers_with_a_replaced_value(base, name, which, value):
    def edit(blob):
        # JSONL: edit the first record; JSON: edit the whole document.
        docs = blob.decode("utf-8").splitlines() if name.endswith(".jsonl") else [blob]
        docs[0] = json.dumps(replace_node(json.loads(docs[0]), which, value))
        return "".join(f"{doc}\n" for doc in docs).encode("utf-8")

    run_mutated(base, name, edit, lambda path, tmp: JSON_READERS[name](base, path, tmp))


@FUZZ
@given(which=st.integers(min_value=0, max_value=2**16), value=JSON_VALUES)
def test_checkpoint_header_with_a_replaced_value(base, which, value):
    def edit(blob):
        return checkpoint_with_header(blob, lambda header: replace_node(header, which, value))

    run_mutated(base, "model.ckpt", edit, lambda path, tmp: [
        "predict", "--checkpoint", path, "--in", base["data.jsonl"], "--out", f"{tmp}/s.jsonl"])


def nested(depth: int = 100_000) -> str:
    """A JSON array nested far past Python's recursion limit."""
    return "[" * depth + "]" * depth


def deep_commit_record(blob: bytes) -> bytes:
    record = json.loads(blob.decode("utf-8").splitlines()[0])
    return json.dumps({**record, "files": "DEEP"}).replace('"DEEP"', nested()).encode("utf-8") + b"\n"


def deep_checkpoint_header(blob: bytes) -> bytes:
    (size,) = struct.unpack_from("<I", blob, 8)
    header = nested().encode("ascii")
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + size :]


# reader -> (file it reads, edit of that file's bytes, argv for the edited path)
DEEP_READERS = {
    "evaluate-scores": ("scores.jsonl", lambda blob: nested().encode("ascii") + b"\n", lambda base, path, tmp: [
        "evaluate", "--scores", path, "--report", f"{tmp}/r.json"]),
    "train-vocab": ("vocab.json", lambda blob: nested().encode("ascii"), JSON_READERS["vocab.json"]),
    "train-functions": ("functions.json", lambda blob: nested().encode("ascii"), JSON_READERS["functions.json"]),
    "ingest-commit-files": ("data.jsonl", deep_commit_record, lambda base, path, tmp: [
        "ingest", "--mainline", path, "--stable", base["stable.export"], "--out", f"{tmp}/d.jsonl"]),
    "predict-checkpoint-header": ("model.ckpt", deep_checkpoint_header, lambda base, path, tmp: [
        "predict", "--checkpoint", path, "--in", base["tensors.bin"], "--out", f"{tmp}/s.jsonl"]),
}


@pytest.mark.parametrize("reader", sorted(DEEP_READERS))
def test_deeply_nested_json_exits_data(base, capsys, reader):
    name, edit, argv_for = DEEP_READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        Path(path).write_bytes(edit(Path(base[name]).read_bytes()))
        capsys.readouterr()
        assert run(argv_for(base, path, tmp)) == EXIT_DATA
        assert sorted(p.name for p in Path(tmp).iterdir()) == [name]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "recursion" in err and "Traceback" not in err
