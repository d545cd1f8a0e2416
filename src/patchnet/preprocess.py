"""Patch-to-tensor assembly: fixed-shape token-index tensors per commit.

The code channel uses file snapshots for line-kind classification when
the commit carries them; otherwise kinds come from a hunk-local scan of
the changed lines alone and degrade toward Normal.  Each line's kind is
a value handed to the lexer with its text.  Token indices are
INDEX_DTYPE (little-endian uint32) from indexing through the tensor
file, whose records read back as views of one buffer.
"""

from __future__ import annotations

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
from .core import CodeLine, FileDiff, Label, LineKind, RawCommit, atomic_write
from .ingest import ParseError, parse_unified_diff
from .textprep import message_tokens, strip_tags
from .vocab import PAD_INDEX, Vocabulary, build_vocab, index_of

INDEX_DTYPE = np.dtype("<u4")
TENSOR_MAGIC = b"PNTD"
TENSOR_VERSION = 1
NO_LABEL_BYTE = 255


@dataclass(frozen=True)
class PatchDims:
    """Tensor extents: message length and files/hunks/lines/words."""

    msg_len: int = 512
    files: int = 5
    hunks: int = 8
    lines: int = 10
    words: int = 120

    def __post_init__(self) -> None:
        for name in ("msg_len", "files", "hunks", "lines", "words"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def code_shape(self) -> tuple[int, int, int, int]:
        return (self.files, self.hunks, self.lines, self.words)


@dataclass
class PreprocessedPatch:
    """Fixed-shape token-index tensors for one patch."""

    commit_id: str
    message_tokens: np.ndarray  # (msg_len,) INDEX_DTYPE
    removed_code: np.ndarray  # (files, hunks, lines, words) INDEX_DTYPE
    added_code: np.ndarray  # same shape
    label: "Label | None" = None


def _snapshot_kinds(c: RawCommit, path: str) -> tuple[dict | None, dict | None]:
    """(old-side, new-side) line-kind maps from file snapshots, if any."""
    for snap in c.file_snapshots:
        if snap.path == path:
            return tuple(
                None if text is None else classify_line_kinds(strip_comments_strings(text))
                for text in (snap.before, snap.after)
            )
    return None, None


def _annotate_side(lines: tuple[CodeLine, ...], kinds: dict | None) -> list[tuple[str, LineKind]]:
    """One side's (text, kind) pairs: kinds from its snapshot map, else
    from a scan of the changed lines alone (no snapshot)."""
    if kinds is not None:
        return [(line.text, kinds.get(line.line_number, LineKind.NORMAL)) for line in lines]
    if not lines:
        return []
    scanned = classify_line_kinds(strip_comments_strings("\n".join(line.text for line in lines)))
    return [(line.text, scanned.get(i + 1, LineKind.NORMAL)) for i, line in enumerate(lines)]


def annotate_file_lines(c: RawCommit, fd: FileDiff) -> list[tuple[list[tuple[str, LineKind]], ...]]:
    """(removed, added) lists of (text, kind) pairs per hunk of one file."""
    old_kinds, new_kinds = _snapshot_kinds(c, fd.path)
    return [
        (_annotate_side(h.removed, old_kinds), _annotate_side(h.added, new_kinds))
        for h in fd.hunks
    ]


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
    code = [
        [
            tuple([tokenize_code_line(text, kind, table, fd.path) for text, kind in side[:n_lines]]
                  for side in sides)
            for sides in annotate_file_lines(c, fd)[:n_hunks]
        ]
        for fd in [f for f in files if f.language_relevant][:n_files]
    ]
    return message_tokens(strip_tags(c.message)), code


def _index(c: RawCommit, tokens, vocabularies: tuple[Vocabulary, Vocabulary],
           dims: PatchDims) -> PreprocessedPatch:
    """Index tensors from _tokenize's output.

    Extra files, hunks, lines, and tokens are truncated; everything
    shorter is PAD-filled.  Unknown words map to UNK, never a fault.
    """
    msg_vocab, code_vocab = vocabularies
    message, code = tokens
    message = message[: dims.msg_len]
    msg_idx = np.full(dims.msg_len, PAD_INDEX, dtype=INDEX_DTYPE)
    msg_idx[: len(message)] = [index_of(msg_vocab, t) for t in message]
    removed = np.full(dims.code_shape, PAD_INDEX, dtype=INDEX_DTYPE)
    added = np.full(dims.code_shape, PAD_INDEX, dtype=INDEX_DTYPE)
    for v, hunks in enumerate(code[: dims.files]):
        for h, sides in enumerate(hunks[: dims.hunks]):
            for target, lines in zip((removed, added), sides):
                for n, words in enumerate(lines[: dims.lines]):
                    words = words[: dims.words]
                    target[v, h, n, : len(words)] = [index_of(code_vocab, w) for w in words]
    return PreprocessedPatch(c.commit_id, msg_idx, removed, added, c.label)


def assemble_tensors(
    c: RawCommit,
    table: FunctionNameTable,
    vocabularies: tuple[Vocabulary, Vocabulary],
    dims: PatchDims = PatchDims(),
) -> PreprocessedPatch:
    """Build the (msg_len,) and (files, hunks, lines, words) index tensors
    of one commit, exactly as preprocess_commits builds them.

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
    """magic, u32 version, u32 count, five u32 dims, then fixed-size records.

    Record: 40-byte ascii commit id, one label byte (1/0/255=none), then
    message, removed, added index arrays as INDEX_DTYPE.
    """
    patches = list(patches)
    with atomic_write(path, "wb") as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<7I", TENSOR_VERSION, len(patches), dims.msg_len,
                                            dims.files, dims.hunks, dims.lines, dims.words))
        for p in patches:
            cid = p.commit_id.encode("ascii")
            if len(cid) != 40:
                raise ValueError(f"commit id must be 40 bytes, got {p.commit_id!r}")
            label_byte = NO_LABEL_BYTE if p.label is None else p.label.to_int()
            fh.write(cid + struct.pack("<B", label_byte))
            for arr, shape in ((p.message_tokens, (dims.msg_len,)), (p.removed_code, dims.code_shape),
                               (p.added_code, dims.code_shape)):
                if tuple(arr.shape) != shape:
                    raise ValueError(f"patch {p.commit_id}: array shape {arr.shape} != {shape}")
                fh.write(np.ascontiguousarray(arr, dtype=INDEX_DTYPE).tobytes())


def read_tensor_file(path: str) -> tuple[list[PreprocessedPatch], PatchDims]:
    """Patches and dims of a write_tensor_file output.

    The file is read once into one writable buffer; each patch's arrays
    are INDEX_DTYPE views of it, not copies.
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
        raise ValueError(f"{path}: unsupported tensor file version {version}")
    dims = PatchDims(*struct.unpack_from("<5I", blob, 12))
    code_elems = int(np.prod(dims.code_shape))
    elems = dims.msg_len + 2 * code_elems
    record = 40 + 1 + 4 * elems
    if len(blob) != 32 + count * record:
        raise ValueError(f"{path}: truncated tensor file")
    patches = []
    for offset in range(32, len(blob), record):
        arrays = np.frombuffer(blob, dtype=INDEX_DTYPE, count=elems, offset=offset + 41)
        msg, rem, add = np.split(arrays, [dims.msg_len, dims.msg_len + code_elems])
        label_byte = blob[offset + 40]
        label = None if label_byte == NO_LABEL_BYTE else Label.from_int(label_byte)
        patches.append(PreprocessedPatch(blob[offset : offset + 40].decode("ascii"), msg,
                                         rem.reshape(dims.code_shape), add.reshape(dims.code_shape), label))
    return patches, dims
