"""Patch-to-tensor assembly: compact token-index arrays per commit.

The code channel uses file snapshots for line-kind classification when
the commit carries them (the first snapshot of a path; each snapshot
text is classified at most once per commit); otherwise kinds come from
a hunk-local scan of the changed lines alone and degrade toward Normal.
Each line's kind is a value handed to the lexer with its text.  A patch
is stored as its message prefix, a table of its distinct non-PAD code
lines and a grid of row ids, one per line slot, in memory and in the
tensor file.  Token indices are INDEX_DTYPE (little-endian uint32) from
indexing through the tensor file, whose records read back as views of
one buffer.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .codeprep import (
    FunctionNameTable,
    build_function_table,
    classify_line_kinds,
    strip_comments_strings,
    tokenize_code_line,
)
from .core import CodeLine, FileDiff, Label, LineKind, PatchDims, RawCommit, atomic_write
from .ingest import ParseError, parse_unified_diff
from .textprep import message_tokens, strip_tags
from .vocab import PAD_INDEX, Vocabulary, build_vocab, index_of

INDEX_DTYPE = np.dtype("<u4")
TENSOR_MAGIC = b"PNTD"
TENSOR_VERSION = 2
NO_LABEL_BYTE = 255


def grid_dtype(dims: PatchDims) -> np.dtype:
    """The smallest unsigned dtype that holds every row id of a grid of
    `dims` (little-endian)."""
    return np.dtype(np.min_scalar_type(math.prod(dims.grid_shape))).newbyteorder("<")


@dataclass
class PreprocessedPatch:
    """One patch's token indices in compact form.

    `message` is the first min(len, msg_len) message indices.  `rows`
    holds the patch's distinct non-PAD code lines, each PAD-filled to
    `words`.  `grid` has one row id per line slot of both sides: 0 is
    the all-PAD line and r >= 1 is rows[r - 1].
    """

    commit_id: str
    message: np.ndarray  # (count,) INDEX_DTYPE, count <= msg_len
    rows: np.ndarray  # (R, words) INDEX_DTYPE
    grid: np.ndarray  # dims.grid_shape, grid_dtype(dims)
    msg_len: int  # the dense message's length, for message_tokens
    label: "Label | None" = None

    # Dense views, decoded afresh on each access, for tests and outside
    # readers; the pipeline reads only the compact arrays.

    @property
    def message_tokens(self) -> np.ndarray:
        """(msg_len,) message indices, PAD-filled."""
        dense = np.full(self.msg_len, PAD_INDEX, dtype=INDEX_DTYPE)
        dense[: len(self.message)] = self.message
        return dense

    def _dense_side(self, side: int) -> np.ndarray:
        pad = np.full((1, self.rows.shape[1]), PAD_INDEX, dtype=INDEX_DTYPE)
        return np.concatenate([pad, self.rows])[self.grid[side]]

    @property
    def removed_code(self) -> np.ndarray:
        """(files, hunks, lines, words) removed-line indices."""
        return self._dense_side(0)

    @property
    def added_code(self) -> np.ndarray:
        """(files, hunks, lines, words) added-line indices."""
        return self._dense_side(1)


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


def _annotate_side(lines: tuple[CodeLine, ...], snapshot: str | None,
                   classified: dict[str, dict[int, LineKind]]) -> list[tuple[str, LineKind]]:
    """One hunk side's (text, kind) pairs.  With the side's file snapshot,
    kinds come from it, classified once per text into `classified`;
    without, from a scan of the changed lines alone."""
    if not lines:
        return []
    if snapshot is None:
        kinds = classify_line_kinds(strip_comments_strings("\n".join(line.text for line in lines)))
        return [(line.text, kinds.get(i + 1, LineKind.NORMAL)) for i, line in enumerate(lines)]
    if snapshot not in classified:
        classified[snapshot] = classify_line_kinds(strip_comments_strings(snapshot))
    kinds = classified[snapshot]
    return [(line.text, kinds.get(line.line_number, LineKind.NORMAL)) for line in lines]


def _parse(c: RawCommit) -> list[FileDiff] | None:
    """The commit's file diffs, or None when its diff does not parse."""
    try:
        return parse_unified_diff(c.diff_text)
    except ParseError:
        return None


def _tokenize(c: RawCommit, files: list[FileDiff], table: FunctionNameTable,
              dims: PatchDims | None = None):
    """(message tokens, code tokens).

    Code tokens nest as relevant file -> hunk -> (removed, added) ->
    line -> "base@kind" token strings, files and hunks in diff order.  With
    dims, code lines past the tensor slots are left out, since only the
    vocabularies read them; without, nothing is truncated.
    """
    n_files, n_hunks, n_lines = (dims.files, dims.hunks, dims.lines) if dims else (None,) * 3
    snapshots: dict[str, tuple[str | None, str | None]] = {}
    for snap in c.file_snapshots:
        snapshots.setdefault(snap.path, (snap.before, snap.after))  # the first of a path wins
    classified: dict[str, dict[int, LineKind]] = {}
    code = [
        [
            tuple([tokenize_code_line(text, kind, table, fd.path)
                   for text, kind in _annotate_side(lines, snapshot, classified)[:n_lines]]
                  for lines, snapshot in zip((h.removed, h.added), snapshots.get(fd.path, (None, None))))
            for h in fd.hunks[:n_hunks]
        ]
        for fd in [f for f in files if f.language_relevant][:n_files]
    ]
    return message_tokens(strip_tags(c.message)), code


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


def assemble_tensors(
    c: RawCommit,
    table: FunctionNameTable,
    vocabularies: tuple[Vocabulary, Vocabulary],
    dims: PatchDims = PatchDims(),
) -> PreprocessedPatch:
    """Build the compact patch of one commit, exactly as
    preprocess_commits builds it.

    Language-relevant files in diff order fill the file slots.  A diff
    that does not parse gives an empty (all-PAD) code channel.
    """
    return _index(c, _tokenize(c, _parse(c) or [], table, dims), vocabularies, dims)


def preprocess_commits(commits, dims: PatchDims = PatchDims(), min_count: int = 1):
    """The preprocess recipe: function table, both vocabularies, tensors.

    Each diff is parsed once and each message and line tokenized once.
    Vocabularies count every token; tensors hold the truncated slots.
    Returns (patches, table, (message_vocab, code_vocab), unparsable),
    where unparsable counts the commits whose diff raised ParseError;
    their code channel is empty.
    """
    commits = list(commits)
    parsed = [_parse(c) for c in commits]
    unparsable = sum(files is None for files in parsed)
    parsed = [files or [] for files in parsed]
    table = build_function_table(fd for files in parsed for fd in files)
    tokens = [_tokenize(c, files, table) for c, files in zip(commits, parsed)]
    del parsed  # free the diffs: only the tokens are read from here on
    message_words = (t for message, _ in tokens for t in message)
    code_words = (t for _, code in tokens for hunks in code for sides in hunks
                  for lines in sides for words in lines for t in words)
    vocabularies = (
        build_vocab(message_words, "message", min_count),
        build_vocab(code_words, "code", min_count),
    )
    patches = [_index(c, t, vocabularies, dims) for c, t in zip(commits, tokens)]
    return patches, table, vocabularies, unparsable


# ---------------------------------------------------------------------------
# Tensor file format ("PNTD")


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


def read_tensor_file(path: str) -> tuple[list[PreprocessedPatch], PatchDims]:
    """Patches and dims of a write_tensor_file output.

    The file is read once into one writable buffer; each patch's arrays
    are views of it, not copies, built straight on the buffer (one array
    object each).  Every count is checked against dims and the bytes
    left, and every row id against its row count.
    """
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(blob) != len(blob):
            raise ValueError(f"{path}: truncated tensor file")
    if blob[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a tensor file (bad magic)")
    if len(blob) < 32:
        raise ValueError(f"{path}: truncated tensor file header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != TENSOR_VERSION:
        raise ValueError(f"{path}: tensor file version {version} is not {TENSOR_VERSION}; "
                         "re-run preprocess")
    dims = PatchDims(*struct.unpack_from("<5I", blob, 12))
    dtype, grid_elems = grid_dtype(dims), math.prod(dims.grid_shape)
    grid_bytes = dtype.itemsize * grid_elems
    patches = []
    offset = 32
    for i in range(count):
        if len(blob) - offset < 49 + grid_bytes:
            raise ValueError(f"{path}: truncated tensor file")
        n_msg, n_rows = struct.unpack_from("<II", blob, offset + 41)
        if n_msg > dims.msg_len or n_rows > grid_elems:
            raise ValueError(f"{path}: record {i} has {n_msg} message indices and {n_rows} rows, "
                             f"past {dims.msg_len} and {grid_elems}")
        rows_at = offset + 49 + 4 * n_msg
        grid_at = rows_at + 4 * n_rows * dims.words
        if grid_at + grid_bytes > len(blob):
            raise ValueError(f"{path}: truncated tensor file")
        grid = np.ndarray(dims.grid_shape, dtype, blob, grid_at)
        if grid.max() > n_rows:
            raise ValueError(f"{path}: record {i} has row id {int(grid.max())} past its {n_rows} rows")
        label_byte = blob[offset + 40]
        patches.append(PreprocessedPatch(
            blob[offset : offset + 40].decode("ascii"),
            np.ndarray((n_msg,), INDEX_DTYPE, blob, offset + 49),
            np.ndarray((n_rows, dims.words), INDEX_DTYPE, blob, rows_at),
            grid,
            dims.msg_len,
            None if label_byte == NO_LABEL_BYTE else Label.from_int(label_byte),
        ))
        offset = grid_at + grid_bytes
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} bytes after the last of {count} records")
    return patches, dims
