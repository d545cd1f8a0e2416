"""The stdlib record encoder against its numpy predecessor.

`preprocess_oracle` holds `_index` and `write_tensor_file` as they were
when a patch was built as numpy arrays.  On every input the records
that preprocess encodes, and the patches that assemble_tensors decodes
from them, must give the same tensor-file bytes as the oracle.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preprocess_oracle
from conftest import make_commit
from patchnet.core import Label, PatchDims
from patchnet.ingest import load_commits
from patchnet.preprocess import (
    _encode,
    _parse,
    _tokenize,
    assemble_tensors,
    decode_record,
    grid_dtype,
    preprocess_commits,
    write_tensor_file,
)
from patchnet.vocab import Vocabulary
from test_export_reader import _benchmark_run

# Known words, words no vocabulary holds (UNK) and the PAD word itself.
MESSAGE_WORDS = ["fix", "leak", "race", "lock", "ring", "<pad>", "unknown"]
CODE_WORDS = ["a@nrm", "b@nrm", "(@nrm", ";@chk", "kfree@hdl", "<pad>", "unseen@nrm"]
VOCABS = (
    Vocabulary.from_words("message", MESSAGE_WORDS[:5]),
    Vocabulary.from_words("code", CODE_WORDS[:5]),
)


def file_bytes(write, patches, dims):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.bin")
        write(path, patches, dims)
        return Path(path).read_bytes()


def assert_matches_oracle(c, tokens, vocabs, dims):
    """The encoder's record, and the patch decoded from it, written
    byte-equal to the oracle's patch."""
    want = file_bytes(preprocess_oracle.write_tensor_file,
                      [preprocess_oracle._index(c, tokens, vocabs, dims)], dims)
    record = _encode(c, tokens, vocabs, dims)
    assert file_bytes(write_tensor_file, [record], dims) == want
    assert file_bytes(write_tensor_file, [decode_record(record, dims)], dims) == want


def words(pool):
    return st.lists(st.sampled_from(pool), max_size=7)


# _tokenize's nesting: files -> hunks -> (removed, added) -> lines -> words.
CODE = st.lists(st.lists(st.tuples(st.lists(words(CODE_WORDS), max_size=5),
                                   st.lists(words(CODE_WORDS), max_size=5)), max_size=4), max_size=4)
DIMS = st.builds(PatchDims, msg_len=st.integers(1, 8), files=st.integers(1, 3), hunks=st.integers(1, 3),
                 lines=st.integers(1, 4), words=st.integers(1, 6))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(words(MESSAGE_WORDS), CODE, DIMS, st.sampled_from([None, Label.STABLE, Label.NON_STABLE]))
def test_records_match_the_oracle(message, code, dims, label):
    assert_matches_oracle(make_commit(3, label=label), (message, code), VOCABS, dims)


@pytest.mark.parametrize("tokens", [
    ([], []),  # an empty message and no files
    ([], [[([], [])]]),  # a hunk with no lines
    (["fix"], [[([[]], [[], ["<pad>", "<pad>"]])]]),  # lines with no word, or only PAD words
    # Rows that fill `words` exactly, and rows cut to it.
    (["fix"] * 4, [[([["a@nrm", "b@nrm", "(@nrm"]] * 2, [["kfree@hdl"] * 3, ["a@nrm"] * 9])]]),
], ids=["empty", "no-lines", "no-rows", "full-rows"])
def test_records_match_the_oracle_on_edges(tokens):
    assert_matches_oracle(make_commit(4), tokens, VOCABS, PatchDims(msg_len=4, files=2, hunks=2, lines=2, words=3))


# Grid slot counts are 2 * files * hunks * lines, so always even: these
# are the largest below, and the smallest at, each wider row id.
@pytest.mark.parametrize("lines", [127, 128, 32_767, 32_768])
def test_records_match_the_oracle_at_row_id_widths(lines):
    dims = PatchDims(msg_len=1, files=1, hunks=1, lines=lines, words=2)
    vocab = [f"w{i}@nrm" for i in range(300)]
    # Every slot of both sides holds its own row, so the largest row id
    # is the slot count.
    rows = [[vocab[i % 300], vocab[i // 300]] for i in range(2 * lines)]
    tokens = ([], [[(rows[:lines], rows[lines:])]])
    assert grid_dtype(dims) == preprocess_oracle.grid_dtype(dims)
    assert_matches_oracle(make_commit(5), tokens, (VOCABS[0], Vocabulary.from_words("code", vocab)), dims)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 127), (1, 1, 128), (2, 4, 16), (1, 1, 32_767),
                                   (1, 1, 32_768), (3, 7, 11), (1, 1, 2**31 - 1), (1, 1, 2**31)])
def test_grid_dtype_matches_the_oracle(shape):
    dims = PatchDims(msg_len=1, files=shape[0], hunks=shape[1], lines=shape[2], words=1)
    assert grid_dtype(dims) == preprocess_oracle.grid_dtype(dims)


@pytest.mark.parametrize("workload", ["kernel-default", "corpus-compact"])
def test_records_match_the_oracle_on_the_benchmark_exports(workload, tmp_path, monkeypatch):
    run = _benchmark_run(monkeypatch)
    info = run.corpus.generate(run.WORKLOADS[workload].shape, 5, tmp_path)
    flags = run.WORKLOADS[workload].preprocess_args
    dims = PatchDims(**{f[2:].replace("-", "_"): int(v) for f, v in zip(flags[::2], flags[1::2])})
    commits = [c for name in ("mainline", "stable") for c in load_commits(info["paths"][name])]
    records, table, vocabs, _ = preprocess_commits(commits, dims)
    oracle = [preprocess_oracle._index(c, _tokenize(c, _parse(c) or [], table), vocabs, dims) for c in commits]
    want = file_bytes(preprocess_oracle.write_tensor_file, oracle, dims)
    assert file_bytes(write_tensor_file, records, dims) == want
    # predict's path on raw commits builds the same bytes.
    assembled = [assemble_tensors(c, table, vocabs, dims) for c in commits]
    assert file_bytes(write_tensor_file, assembled, dims) == want
