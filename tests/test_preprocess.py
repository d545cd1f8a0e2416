"""Tests for patch-to-tensor assembly and the tensor file format."""

import importlib
import os
import random
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from patchnet import preprocess
from patchnet.codeprep import FunctionNameTable, classify_line_kinds, strip_comments_strings
from patchnet.core import FileSnapshot, Label, LineKind, PatchDims
from patchnet.ingest import load_commits
from patchnet.preprocess import (
    INDEX_DTYPE,
    NO_LABEL_BYTE,
    TENSOR_MAGIC,
    _encode,
    _parse,
    _tokenize,
    assemble_tensors,
    decode_record,
    grid_dtype,
    preprocess_commits,
    read_tensor_file,
    write_tensor_file,
)
from patchnet.textprep import message_tokens, strip_tags
from patchnet.vocab import PAD_INDEX, UNK_INDEX, Vocabulary, build_vocab, index_of

from conftest import dense_patch, make_commit, simple_diff


def build_vocabs(commits):
    _, table, vocabs, _ = preprocess_commits(commits)
    return table, vocabs


def preprocessed(commits, dims):
    """preprocess_commits with each record decoded to its patch."""
    records, table, vocabs, unparsable = preprocess_commits(commits, dims)
    return [decode_record(r, dims) for r in records], table, vocabs, unparsable


# ---------------------------------------------------------------------------
# Dims


def test_dims_defaults_and_shape():
    d = PatchDims()
    assert (d.msg_len, d.files, d.hunks, d.lines, d.words) == (512, 5, 8, 10, 120)
    assert d.code_shape == (5, 8, 10, 120)
    assert d.grid_shape == (2, 5, 8, 10)
    assert grid_dtype(d) == np.dtype("<u2")
    assert grid_dtype(PatchDims(files=1, hunks=2, lines=1)) == np.dtype("u1")


def test_dims_rejects_nonpositive():
    for field in ("msg_len", "files", "hunks", "lines", "words"):
        with pytest.raises(ValueError, match=field):
            PatchDims(**{field: 0})


def test_dims_must_fit_the_tensor_files_u32_fields():
    for field in ("msg_len", "files", "hunks", "lines", "words"):
        assert getattr(PatchDims(**{field: 2**32 - 1}), field) == 2**32 - 1
        with pytest.raises(ValueError, match=f"{field} must be at most 4294967295"):
            PatchDims(**{field: 2**32})


# ---------------------------------------------------------------------------
# Tensor assembly


def test_assemble_message_round_trips_through_vocab():
    c = make_commit(1)
    table, vocabs = build_vocabs([c])
    p = assemble_tensors(c, table, vocabs, PatchDims(msg_len=16, files=1, hunks=1, lines=2, words=8))
    expected = message_tokens(strip_tags(c.message))
    msg_vocab = vocabs[0]
    decoded = [msg_vocab.index_to_word[i] for i in p.message_tokens[: len(expected)]]
    assert decoded == expected
    assert all(i == PAD_INDEX for i in p.message_tokens[len(expected) :])


def test_assemble_code_tokens_and_padding():
    c = make_commit(1)  # default diff: one file, one hunk
    table, vocabs = build_vocabs([c])
    dims = PatchDims(msg_len=8, files=2, hunks=2, lines=3, words=6)
    p = assemble_tensors(c, table, vocabs, dims)
    code_vocab = vocabs[1]
    decode = lambda row: [
        code_vocab.index_to_word[i] for i in row if i != PAD_INDEX
    ]
    # "\told = thing;" lexes to IDENT = IDENT ; with normal kind.
    assert decode(p.removed_code[0, 0, 0]) == ["IDENT@nrm", "=@nrm", "IDENT@nrm", ";@nrm"]
    assert decode(p.added_code[0, 0, 0]) == ["IDENT@nrm", "=@nrm", "IDENT@nrm", ";@nrm"]
    assert decode(p.added_code[0, 0, 1]) == ["IDENT@nrm", "=@nrm", "NUM@nrm", ";@nrm"]
    # Unused slots stay PAD: second file, second hunk, third line.
    assert not p.removed_code[1].any()
    assert not p.added_code[0, 1].any()
    assert not p.added_code[0, 0, 2].any()
    assert p.label is None
    assert p.commit_id == c.commit_id


def test_assemble_unknown_words_map_to_unk():
    known = make_commit(1)
    other = make_commit(
        2,
        subject="wholly different words",
        body="Nothing shared here.",
        diff=simple_diff(added=("\tqqq->zzz += 9;",)),
    )
    table, vocabs = build_vocabs([known])
    p = assemble_tensors(other, table, vocabs, PatchDims(msg_len=8, files=1, hunks=1, lines=2, words=8))
    non_pad = p.message_tokens[p.message_tokens != PAD_INDEX]
    assert len(non_pad) > 0
    assert set(non_pad) == {UNK_INDEX}


def test_assemble_truncates_files_hunks_lines_words():
    files = [simple_diff(path=f"fs/f{i}.c") for i in range(4)]
    c = make_commit(1, subject="fix leak in probe error path", diff="".join(files))
    table, vocabs = build_vocabs([c])
    dims = PatchDims(msg_len=4, files=2, hunks=1, lines=1, words=2)
    p = assemble_tensors(c, table, vocabs, dims)
    # The message keeps its first msg_len tokens, with no PAD.
    expected = message_tokens(strip_tags(c.message))
    assert len(expected) > dims.msg_len
    assert [vocabs[0].index_to_word[i] for i in p.message_tokens] == expected[: dims.msg_len]
    assert p.removed_code.shape == dims.code_shape
    # Both retained file slots hold the first two tokens of line one.
    for v in range(2):
        assert p.removed_code[v, 0, 0].tolist() == p.removed_code[0, 0, 0].tolist()
        assert (p.removed_code[v, 0, 0] != PAD_INDEX).all()


def test_assemble_irrelevant_files_are_skipped():
    c = make_commit(1, diff=simple_diff(path="tools/script.py"))
    table, vocabs = build_vocabs([make_commit(2)])
    p = assemble_tensors(c, table, vocabs, PatchDims(msg_len=4, files=1, hunks=1, lines=1, words=4))
    assert not p.removed_code.any()
    assert not p.added_code.any()


def test_assemble_unparseable_diff_yields_empty_code():
    c = make_commit(1, diff="@@ badness\n")
    table, vocabs = build_vocabs([make_commit(2)])
    p = assemble_tensors(c, table, vocabs, PatchDims(msg_len=4, files=1, hunks=1, lines=1, words=4))
    assert not p.removed_code.any()
    assert p.message_tokens.shape == (4,)


def test_assemble_label_passthrough():
    c = make_commit(1, label=Label.STABLE)
    table, vocabs = build_vocabs([c])
    p = assemble_tensors(c, table, vocabs, PatchDims(msg_len=4, files=1, hunks=1, lines=1, words=4))
    assert p.label is Label.STABLE


# ---------------------------------------------------------------------------
# Line-kind annotation paths


ERROR_DIFF = (
    "diff --git a/fs/x.c b/fs/x.c\n"
    "index 1111111..2222222 100644\n"
    "--- a/fs/x.c\n"
    "+++ b/fs/x.c\n"
    "@@ -3,3 +3,3 @@ int f(void)\n"
    " \tif (x)\n"
    "-\t\tgoto out;\n"
    "+\t\tgoto fail;\n"
    " \treturn 0;\n"
)

BEFORE_TEXT = "int f(void)\n{\n\tif (x)\n\t\tgoto out;\n\treturn 0;\nout:\n\treturn rc;\n}"
AFTER_TEXT = "int f(void)\n{\n\tif (x)\n\t\tgoto fail;\n\treturn 0;\nfail:\n\treturn rc;\n}"


def annotated(c, monkeypatch):
    """The (text, kind) pairs _tokenize hands the lexer: file -> hunk ->
    (removed, added) -> one pair per line."""
    monkeypatch.setattr(preprocess, "tokenize_code_line", lambda text, kind, table, path: (text, kind))
    return _tokenize(c, _parse(c), FunctionNameTable.empty())[1]


def counted_classify(monkeypatch):
    """The texts preprocess classifies from here on, one per call."""
    calls = []

    def classify(text):
        calls.append(text)
        return classify_line_kinds(text)

    monkeypatch.setattr(preprocess, "classify_line_kinds", classify)
    return calls


def with_snapshots(c, *snapshots):
    return replace(c, file_snapshots=tuple(FileSnapshot("fs/x.c", *texts) for texts in snapshots))


def test_annotate_with_snapshots_uses_real_line_numbers(monkeypatch):
    c = with_snapshots(make_commit(1, diff=ERROR_DIFF), (BEFORE_TEXT, AFTER_TEXT))
    [[(removed, added)]] = annotated(c, monkeypatch)
    assert removed == [("\t\tgoto out;", LineKind.ERROR_HANDLING)]
    assert added == [("\t\tgoto fail;", LineKind.ERROR_HANDLING)]


def test_annotate_snapshot_other_path_falls_back(monkeypatch):
    c = replace(make_commit(1, diff=ERROR_DIFF),
                file_snapshots=(FileSnapshot(path="other.c", before=BEFORE_TEXT),))
    [[(removed, added)]] = annotated(c, monkeypatch)
    # Fallback scans the changed lines alone: a lone goto is normal.
    assert [kind for _, kind in removed] == [LineKind.NORMAL]


def test_annotate_fallback_finds_structure_in_changed_lines(monkeypatch):
    diff = simple_diff(added=("\tif (err)", "\t\tgoto out;"))
    [[(removed, added)]] = annotated(make_commit(1, diff=diff), monkeypatch)
    assert [kind for _, kind in added] == [
        LineKind.ERROR_CHECKING,
        LineKind.ERROR_HANDLING,
    ]
    assert [kind for _, kind in removed] == [LineKind.NORMAL]


def test_each_snapshot_side_is_classified_once_per_commit(monkeypatch):
    calls = counted_classify(monkeypatch)
    c = with_snapshots(make_commit(1, diff=ERROR_DIFF + ERROR_DIFF), (BEFORE_TEXT, AFTER_TEXT))
    hunk = ([("\t\tgoto out;", LineKind.ERROR_HANDLING)], [("\t\tgoto fail;", LineKind.ERROR_HANDLING)])
    assert annotated(c, monkeypatch) == [[hunk], [hunk]]  # fs/x.c named twice
    assert sorted(calls) == sorted(strip_comments_strings(t) for t in (BEFORE_TEXT, AFTER_TEXT))


def test_the_first_snapshot_of_a_path_gives_the_kinds(monkeypatch):
    calls = counted_classify(monkeypatch)
    plain = "\n".join(["x;"] * 8)
    c = with_snapshots(make_commit(1, diff=ERROR_DIFF), (BEFORE_TEXT, AFTER_TEXT), (plain, plain))
    [[(removed, added)]] = annotated(c, monkeypatch)
    assert removed == [("\t\tgoto out;", LineKind.ERROR_HANDLING)]
    assert added == [("\t\tgoto fail;", LineKind.ERROR_HANDLING)]
    assert plain not in calls


def test_code_vocab_carries_kinds():
    diff = simple_diff(added=("\tif (err)", "\t\tgoto out;"))
    _, vocabs = build_vocabs([make_commit(1, diff=diff)])
    words = set(vocabs[1].words)
    assert "if@chk" in words
    assert "goto@hnd" in words
    assert "IDENT@nrm" in words  # from the removed line


def test_message_vocab_matches_textprep():
    commits = [make_commit(1), make_commit(2, subject="mm: fix the leak", body="Fast fix.")]
    _, vocabs = build_vocabs(commits)
    expected = build_vocab(
        (t for c in commits for t in message_tokens(strip_tags(c.message))), "message"
    )
    assert vocabs[0] == expected


def test_vocabularies_count_tokens_past_the_tensor_slots():
    long_lines = tuple(f"\tcall_{i}(x);" for i in range(3))
    c = make_commit(1, subject="leak race lock", diff=simple_diff(added=long_lines))
    dims = PatchDims(msg_len=1, files=1, hunks=1, lines=1, words=1)
    (p,), _, (msg_vocab, code_vocab), _ = preprocessed([c], dims)
    assert {"leak", "race", "lock"} <= set(msg_vocab.words)
    assert {"(@nrm", ";@nrm"} <= set(code_vocab.words)
    assert p.message_tokens.tolist() == [msg_vocab.word_to_index["leak"]]


def test_preprocess_commits_matches_assemble_tensors():
    commits = [random_commit(random.Random(5), i) for i in range(30)]
    dims = PatchDims(msg_len=12, files=2, hunks=2, lines=3, words=5)
    patches, table, vocabs, _ = preprocessed(commits, dims)
    for c, p in zip(commits, patches):
        q = assemble_tensors(c, table, vocabs, dims)
        assert q.commit_id == p.commit_id and q.label == p.label
        for a, b in ((p.message_tokens, q.message_tokens), (p.removed_code, q.removed_code),
                     (p.added_code, q.added_code), (p.message, q.message), (p.rows, q.rows),
                     (p.grid, q.grid)):
            assert np.array_equal(a, b)


def _dense_reference(c, table, vocabs, dims):
    """The dense (msg_len,) and two (files, hunks, lines, words) arrays of
    one commit, filled slot by slot as the dense tensor form was."""
    msg_vocab, code_vocab = vocabs
    message, code = _tokenize(c, _parse(c) or [], table, dims)
    msg = np.zeros(dims.msg_len, dtype=INDEX_DTYPE)
    msg[: min(len(message), dims.msg_len)] = [index_of(msg_vocab, t) for t in message[: dims.msg_len]]
    sides = np.zeros((2, *dims.code_shape), dtype=INDEX_DTYPE)
    for v, hunks in enumerate(code[: dims.files]):
        for h, hunk in enumerate(hunks[: dims.hunks]):
            for s, lines in enumerate(hunk):
                for n, words in enumerate(lines[: dims.lines]):
                    words = words[: dims.words]
                    sides[s, v, h, n, : len(words)] = [index_of(code_vocab, w) for w in words]
    return msg, sides[0], sides[1]


def test_compact_patches_decode_to_the_dense_tensors(tmp_path):
    commits = [random_commit(random.Random(7), i) for i in range(40)]
    commits.append(make_commit(99, subject="Signed-off-by: A <a@b.c>", body="", diff="garbage\n"))
    dims = PatchDims(msg_len=10, files=2, hunks=2, lines=3, words=4)
    patches, table, vocabs, _ = preprocessed(commits, dims)
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    loaded, _ = read_tensor_file(path)
    built = [assemble_tensors(c, table, vocabs, dims) for c in commits]
    for c, *views in zip(commits, patches, built, loaded):
        expected = _dense_reference(c, table, vocabs, dims)
        for p in views:
            assert len(p.message) == min(len(_tokenize(c, [], table)[0]), dims.msg_len)
            assert len(p.rows) == len({r.tobytes() for r in np.concatenate(expected[1:]).reshape(-1, 4)
                                       if r.any()})
            for a, b in zip((p.message_tokens, p.removed_code, p.added_code), expected):
                assert np.array_equal(a, b)
    assert len(patches[-1].message) == 0 and len(patches[-1].rows) == 0


def test_preprocess_commits_counts_unparsable_diffs():
    bad = make_commit(1, subject="fix the leak", diff="@@ not a hunk header\n")
    good = make_commit(2)
    dims = PatchDims(msg_len=4, files=1, hunks=1, lines=2, words=4)
    (p_bad, p_good), _, (msg_vocab, _), unparsable = preprocessed([bad, good], dims)
    assert unparsable == 1
    assert not p_bad.removed_code.any() and not p_bad.added_code.any()
    assert p_bad.message_tokens[0] == msg_vocab.word_to_index["fix"]
    assert p_good.removed_code.any()


# ---------------------------------------------------------------------------
# Tensor file format


def small_patches(n=3):
    commits = [
        make_commit(i, label=(Label.STABLE, Label.NON_STABLE, None)[i % 3])
        for i in range(n)
    ]
    table, vocabs = build_vocabs(commits)
    dims = PatchDims(msg_len=6, files=2, hunks=1, lines=2, words=4)
    return [assemble_tensors(c, table, vocabs, dims) for c in commits], dims


def test_tensor_file_round_trip(tmp_path):
    patches, dims = small_patches()
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    loaded, dims2 = read_tensor_file(path)
    assert dims2 == dims
    assert len(loaded) == len(patches)
    for a, b in zip(patches, loaded):
        assert a.commit_id == b.commit_id
        assert a.label == b.label
        assert np.array_equal(a.message_tokens, b.message_tokens)
        assert np.array_equal(a.removed_code, b.removed_code)
        assert np.array_equal(a.added_code, b.added_code)


def test_tensor_file_label_bytes(tmp_path):
    patches, dims = small_patches()
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    blob = open(path, "rb").read()
    grid_bytes = grid_dtype(dims).itemsize * int(np.prod(dims.grid_shape))
    label_bytes, offset = [], 32
    for _ in range(3):
        label_bytes.append(blob[offset + 40])
        n_msg, n_rows = struct.unpack_from("<II", blob, offset + 41)
        offset += 49 + 4 * n_msg + 4 * n_rows * dims.words + grid_bytes
    assert label_bytes == [1, 0, NO_LABEL_BYTE]
    assert offset == len(blob)


def test_tensor_file_bad_magic(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_tensor_file(path)


def test_tensor_file_bad_version(tmp_path):
    patches, dims = small_patches(1)
    path = str(tmp_path / "v.bin")
    write_tensor_file(path, patches, dims)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 99)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        read_tensor_file(path)


def test_tensor_file_version_1_asks_for_preprocess(tmp_path):
    path = str(tmp_path / "v1.bin")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<7I", 1, 0, 4, 1, 1, 1, 2))
    with pytest.raises(ValueError, match="version 1 .*re-run preprocess"):
        read_tensor_file(path)


def _corrupt(tmp_path, change):
    """A one-patch tensor file with change(blob, grid_at) applied."""
    patches, dims = small_patches(1)
    path = str(tmp_path / "c.bin")
    write_tensor_file(path, patches, dims)
    blob = bytearray(open(path, "rb").read())
    change(blob, len(blob) - grid_dtype(dims).itemsize * int(np.prod(dims.grid_shape)))
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    return path


@pytest.mark.parametrize("change, error", [
    (lambda blob, grid_at: struct.pack_into("<I", blob, 73, 7), "message"),
    (lambda blob, grid_at: struct.pack_into("<I", blob, 77, 9), "rows"),
    (lambda blob, grid_at: struct.pack_into("<I", blob, 77, 3), "truncated"),
    (lambda blob, grid_at: blob.__setitem__(grid_at, 200), "row id"),
    (lambda blob, grid_at: blob.extend(b"\0" * 45), "after the last"),
])
def test_tensor_file_corrupt_record(tmp_path, change, error):
    with pytest.raises(ValueError, match=error):
        read_tensor_file(_corrupt(tmp_path, change))


def test_tensor_file_truncated(tmp_path):
    patches, dims = small_patches(2)
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor_file(path)


def test_records_are_little_endian_on_a_big_endian_host(monkeypatch):
    # There each array item's bytes are reversed in memory, so the
    # encoder swaps every array before writing it.
    c = make_commit(1, subject="fix the leak")
    table, vocabs = build_vocabs([c])
    dims = PatchDims(msg_len=4, files=1, hunks=1, lines=2, words=3)
    tokens = _tokenize(c, _parse(c), table, dims)
    native = _encode(c, tokens, vocabs, dims)
    p = decode_record(native, dims)
    monkeypatch.setattr(sys, "byteorder", "big")
    swapped = b"".join(a.byteswap().tobytes() for a in (p.message, p.rows, p.grid))
    assert _encode(c, tokens, vocabs, dims) == native[:49] + swapped != native


def test_tensor_file_rejects_a_record_laid_out_for_other_dims(tmp_path):
    records, _, _, _ = preprocess_commits([make_commit(1)], PatchDims(msg_len=4, files=1, hunks=1, lines=2, words=3))
    with pytest.raises(ValueError, match="not laid out for"):
        write_tensor_file(str(tmp_path / "x.bin"), records, PatchDims(msg_len=4, files=1, hunks=1, lines=2, words=4))
    assert not (tmp_path / "x.bin").exists()


def test_tensor_file_rejects_bad_commit_id(tmp_path):
    patches, dims = small_patches(1)
    patches[0].commit_id = "short"
    with pytest.raises(ValueError, match="40"):
        write_tensor_file(str(tmp_path / "x.bin"), patches, dims)


def test_tensor_file_rejects_shape_mismatch(tmp_path):
    patches, dims = small_patches(1)
    patches[0].grid = patches[0].grid[:1]
    with pytest.raises(ValueError, match="shape"):
        write_tensor_file(str(tmp_path / "x.bin"), patches, dims)


def _arrays(p):
    return (p.message, p.rows, p.grid)


def test_index_arrays_are_index_dtype(tmp_path):
    assert INDEX_DTYPE == np.dtype("<u4")
    commits = [make_commit(i) for i in range(3)]
    dims = PatchDims(msg_len=6, files=2, hunks=1, lines=2, words=4)
    patches, table, vocabs, _ = preprocessed(commits, dims)
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    loaded, _ = read_tensor_file(path)
    built = [assemble_tensors(c, table, vocabs, dims) for c in commits]
    for p in [*patches, *built, *loaded]:
        assert [a.dtype for a in _arrays(p)] == [INDEX_DTYPE, INDEX_DTYPE, grid_dtype(dims)]


def _root(a):
    """The object that owns an array's memory, through views and memoryviews."""
    while True:
        if isinstance(a, np.ndarray) and a.base is not None:
            a = a.base
        elif isinstance(a, memoryview):
            a = a.obj
        else:
            return a


def test_tensor_file_arrays_are_writable_views_of_one_buffer(tmp_path):
    patches, dims = small_patches()
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    loaded, _ = read_tensor_file(path)
    arrays = [a for p in loaded for a in _arrays(p)]
    assert len({id(_root(a)) for a in arrays}) == 1
    assert all(a.flags.writeable for a in arrays)
    loaded[0].rows[0, 0] = 7
    assert loaded[0].rows[0, 0] == 7
    for a, b in zip(patches[1:], loaded[1:]):
        assert np.array_equal(a.rows, b.rows)


def test_tensor_file_read_peak_is_the_file_size(tmp_path):
    dims = PatchDims(msg_len=128, files=2, hunks=4, lines=8, words=64)
    rng = np.random.default_rng(0)
    patches = [
        dense_patch(f"{i:040x}", rng.integers(0, 900, dims.msg_len),
                          rng.integers(0, 900, dims.code_shape), rng.integers(0, 900, dims.code_shape))
        for i in range(20)
    ]
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    tracemalloc.start()
    try:
        loaded, _ = read_tensor_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded[-1].added_code, patches[-1].added_code)
    assert peak <= 1.1 * os.path.getsize(path)


def _benchmark_corpus(monkeypatch, tmp_path, commits):
    """`commits` eligible commits from the benchmark's corpus generator,
    shaped like its corpus-compact workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    corpus = importlib.import_module("corpus")
    shape = corpus.CorpusShape(
        mainline=commits, backlink_stable=2, subject_stable=1, rc_stable=1, stable_only=2,
        ineligible_share=0.0, files=(1, 2), hunks=(2, 2), lines=(3, 5), message_words=(14, 22),
        call_pool=60, define_share=0.3, planted_stable=0.9, planted_other=0.05,
    )
    return load_commits(corpus.generate(shape, 0, tmp_path)["paths"]["mainline"])


def test_preprocess_peak_per_patch_at_default_dims(monkeypatch, tmp_path):
    # The dense form held 395 KiB per patch here; 82,403 patches must fit in memory.
    commits = _benchmark_corpus(monkeypatch, tmp_path, 100)
    tracemalloc.start()
    try:
        records, *_ = preprocess_commits(commits, PatchDims())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 100 and all(len(decode_record(r, PatchDims()).rows) for r in records)
    assert peak / len(records) <= 24 * 1024


def test_tensor_file_short_read_is_truncated(tmp_path, monkeypatch):
    patches, dims = small_patches(1)
    path = str(tmp_path / "t.bin")
    write_tensor_file(path, patches, dims)
    size = os.path.getsize(path)
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size + 4))
    with pytest.raises(ValueError, match="truncated tensor file"):
        read_tensor_file(path)


def test_tensor_file_empty_list(tmp_path):
    path = str(tmp_path / "empty.bin")
    write_tensor_file(path, [], PatchDims(msg_len=4, files=1, hunks=1, lines=1, words=2))
    loaded, dims = read_tensor_file(path)
    assert loaded == []
    assert dims.msg_len == 4
    assert open(path, "rb").read()[:4] == TENSOR_MAGIC


# ---------------------------------------------------------------------------
# Shape fuzz: assembly is total and always produces exact extents


def random_commit(rng, n):
    words = ("alpha", "beta", "gamma", "delta", "fix", "leak", "race", "guard")
    subject = "x: " + " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
    body = " ".join(rng.choice(words) for _ in range(rng.randint(0, 20)))
    ext = rng.choice((".c", ".h", ".py", ".txt"))
    n_removed = rng.randint(0, 4)
    n_added = rng.randint(0, 4)
    if n_removed == 0 and n_added == 0:
        n_added = 1
    diff = simple_diff(
        path=f"sub/f{n}{ext}",
        removed=tuple(f"\tr{i} = call_{i}(v);" for i in range(n_removed)),
        added=tuple(f"\ta{i} = {i} + q;" for i in range(n_added)),
        context=("\tint ctx;",),
    )
    if rng.random() < 0.1:
        diff = "garbage that cannot parse\n"
    return make_commit(n, subject=subject, body=body, diff=diff)


def test_shape_fuzz_small():
    rng = random.Random(99)
    commits = [random_commit(rng, i) for i in range(40)]
    table, vocabs = build_vocabs(commits)
    for i, c in enumerate(commits):
        dims = PatchDims(
            msg_len=rng.randint(1, 24),
            files=rng.randint(1, 3),
            hunks=rng.randint(1, 3),
            lines=rng.randint(1, 4),
            words=rng.randint(1, 8),
        )
        p = assemble_tensors(c, table, vocabs, dims)
        assert p.message_tokens.shape == (dims.msg_len,)
        assert p.removed_code.shape == dims.code_shape
        assert p.added_code.shape == dims.code_shape
        for arr, vocab in (
            (p.message_tokens, vocabs[0]),
            (p.removed_code, vocabs[1]),
            (p.added_code, vocabs[1]),
        ):
            assert arr.min() >= 0
            assert arr.max() < len(vocab)
