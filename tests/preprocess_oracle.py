"""The patch encoder and tensor-file writer as they were before records
were built with the stdlib: numpy `_index` and the numpy record writer,
kept as the oracle that tests/test_preprocess_oracle.py checks
patchnet.preprocess against.  Only this docstring and the imports are
new; the constants and functions are unchanged, so `_index` returns a
PreprocessedPatch and `write_tensor_file` takes them."""

from __future__ import annotations

import math
import struct

import numpy as np

from patchnet.core import PatchDims, RawCommit, atomic_write
from patchnet.preprocess import PreprocessedPatch
from patchnet.vocab import PAD_INDEX, Vocabulary, index_of

INDEX_DTYPE = np.dtype("<u4")
TENSOR_MAGIC = b"PNTD"
TENSOR_VERSION = 2
NO_LABEL_BYTE = 255


def grid_dtype(dims: PatchDims) -> np.dtype:
    """The smallest unsigned dtype that holds every row id of a grid of
    `dims` (little-endian)."""
    return np.dtype(np.min_scalar_type(math.prod(dims.grid_shape))).newbyteorder("<")


def check_patch(p: PreprocessedPatch, dims: PatchDims) -> None:
    """Raise ValueError unless p's compact arrays fit dims: a message of at
    most msg_len, rows of `words`, the grid's shape, and every row id
    addressing the PAD row or a row of the table."""
    if p.message.ndim != 1 or len(p.message) > dims.msg_len:
        raise ValueError(f"message shape {p.message.shape} does not fit msg_len {dims.msg_len}")
    if tuple(p.grid.shape) != dims.grid_shape:
        raise ValueError(f"code grid shape {p.grid.shape} != {dims.grid_shape}")
    if p.rows.ndim != 2 or p.rows.shape[1] != dims.words or len(p.rows) > p.grid.size:
        raise ValueError(f"code rows shape {p.rows.shape} does not fit {p.grid.size} rows of {dims.words}")
    if p.grid.dtype.kind != "u":
        raise ValueError(f"code grid dtype {p.grid.dtype} is not unsigned")
    if p.grid.max() > len(p.rows):
        raise ValueError(f"code grid row id {int(p.grid.max())} past the {len(p.rows)} rows")


def _index(c: RawCommit, tokens, vocabularies: tuple[Vocabulary, Vocabulary],
           dims: PatchDims) -> PreprocessedPatch:
    """The compact patch of _tokenize's output.

    Extra files, hunks, lines, and tokens are truncated; empty slots get
    the PAD row.  Unknown words map to UNK, never a fault.
    """
    msg_vocab, code_vocab = vocabularies
    message, code = tokens
    message = np.array([index_of(msg_vocab, t) for t in message[: dims.msg_len]], dtype=INDEX_DTYPE)
    row_ids: dict[tuple[int, ...], int] = {}
    grid = np.zeros(dims.grid_shape, dtype=grid_dtype(dims))
    for v, hunks in enumerate(code[: dims.files]):
        for h, sides in enumerate(hunks[: dims.hunks]):
            for s, lines in enumerate(sides):
                for n, words in enumerate(lines[: dims.lines]):
                    row = tuple([index_of(code_vocab, w) for w in words[: dims.words]])
                    if any(row):
                        grid[s, v, h, n] = row_ids.setdefault(row, len(row_ids) + 1)
    rows = np.full((len(row_ids), dims.words), PAD_INDEX, dtype=INDEX_DTYPE)
    for r, row in enumerate(row_ids):
        rows[r, : len(row)] = row
    return PreprocessedPatch(c.commit_id, message, rows, grid, dims.msg_len, c.label)


def write_tensor_file(path: str, patches, dims: PatchDims = PatchDims()) -> None:
    """magic, u32 version, u32 count, five u32 dims, then one record per patch.

    Record: 40-byte ascii commit id, one label byte (1/0/255=none), u32
    message count, u32 row count, then the message and the rows as
    INDEX_DTYPE and the grid as grid_dtype(dims).
    """
    patches = list(patches)
    with atomic_write(path, "wb") as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<7I", TENSOR_VERSION, len(patches), dims.msg_len,
                                            dims.files, dims.hunks, dims.lines, dims.words))
        for p in patches:
            cid = p.commit_id.encode("ascii")
            if len(cid) != 40:
                raise ValueError(f"commit id must be 40 bytes, got {p.commit_id!r}")
            check_patch(p, dims)
            label_byte = NO_LABEL_BYTE if p.label is None else p.label.to_int()
            fh.write(cid + struct.pack("<BII", label_byte, len(p.message), len(p.rows)))
            fh.write(np.ascontiguousarray(p.message, dtype=INDEX_DTYPE).tobytes())
            fh.write(np.ascontiguousarray(p.rows, dtype=INDEX_DTYPE).tobytes())
            fh.write(np.ascontiguousarray(p.grid, dtype=grid_dtype(dims)).tobytes())
