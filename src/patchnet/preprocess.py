"""Patch-to-tensor assembly: fixed-shape token-index tensors per commit.

The code channel uses file snapshots for line-kind classification when
the commit carries them; otherwise kinds come from a hunk-local scan of
the changed lines alone and degrade toward Normal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .codeprep import (
    FunctionNameTable,
    classify_line_kinds,
    strip_comments_strings_line,
    tokenize_code_line,
)
from .core import CodeLine, FileDiff, Label, LineKind, RawCommit
from .textprep import PAD_TOKEN, message_tokens, normalize_message, strip_tags
from .vocab import PAD_INDEX, Vocabulary, index_of

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
    message_tokens: np.ndarray  # (msg_len,) int64
    removed_code: np.ndarray  # (files, hunks, lines, words) int64
    added_code: np.ndarray  # same shape
    label: "Label | None" = None


def _snapshot_kinds(c: RawCommit, path: str) -> tuple[dict | None, dict | None]:
    """(old-side, new-side) line-kind maps from file snapshots, if any."""
    for snap in c.file_snapshots:
        if snap.path == path:
            return tuple(
                None if text is None else classify_line_kinds(strip_comments_strings_line(text))
                for text in (snap.before, snap.after)
            )
    return None, None


def _fallback_kinds(lines: tuple[CodeLine, ...]) -> list[LineKind]:
    """Kinds from a scan of the changed lines alone (no snapshot)."""
    if not lines:
        return []
    text = strip_comments_strings_line("\n".join(line.text for line in lines))
    kinds = classify_line_kinds(text)
    return [kinds.get(i + 1, LineKind.NORMAL) for i in range(len(lines))]


def _annotate_side(lines: tuple[CodeLine, ...], kinds: dict | None) -> tuple[CodeLine, ...]:
    """One side's lines with kinds from its snapshot map, else the fallback scan."""
    if kinds is not None:
        return tuple(
            replace(line, kind=kinds.get(line.line_number, LineKind.NORMAL)) for line in lines
        )
    return tuple(replace(line, kind=k) for line, k in zip(lines, _fallback_kinds(lines)))


def annotate_file_lines(c: RawCommit, fd: FileDiff) -> list[tuple[CodeLine, ...]]:
    """Kind-annotated (removed, added) line tuples per hunk of one file."""
    old_kinds, new_kinds = _snapshot_kinds(c, fd.path)
    return [
        (_annotate_side(h.removed, old_kinds), _annotate_side(h.added, new_kinds))
        for h in fd.hunks
    ]


def _relevant_files(c: RawCommit) -> list[FileDiff]:
    from .ingest import ParseError, parse_unified_diff

    try:
        files = parse_unified_diff(c.diff_text)
    except ParseError:
        return []
    return [fd for fd in files if fd.language_relevant]


def assemble_tensors(
    c: RawCommit,
    table: FunctionNameTable,
    vocabularies: tuple[Vocabulary, Vocabulary],
    dims: PatchDims = PatchDims(),
) -> PreprocessedPatch:
    """Build the (msg_len,) and (files, hunks, lines, words) index tensors.

    Language-relevant files in diff order fill the file slots; extra
    files, hunks, lines, and tokens are truncated; everything shorter is
    PAD-filled.  Unknown words map to UNK, never a fault.
    """
    msg_vocab, code_vocab = vocabularies
    message = normalize_message(strip_tags(c.message), dims.msg_len)
    msg_idx = np.fromiter(
        (PAD_INDEX if t == PAD_TOKEN else index_of(msg_vocab, t) for t in message),
        dtype=np.int64,
        count=dims.msg_len,
    )

    removed = np.full(dims.code_shape, PAD_INDEX, dtype=np.int64)
    added = np.full(dims.code_shape, PAD_INDEX, dtype=np.int64)
    for v, fd in enumerate(_relevant_files(c)[: dims.files]):
        per_hunk = annotate_file_lines(c, fd)[: dims.hunks]
        for h, (rem_lines, add_lines) in enumerate(per_hunk):
            for target, lines in ((removed, rem_lines), (added, add_lines)):
                for n, line in enumerate(lines[: dims.lines]):
                    tokens = tokenize_code_line(line, table, fd.path)[: dims.words]
                    for w, tok in enumerate(tokens):
                        target[v, h, n, w] = index_of(code_vocab, tok.text)

    return PreprocessedPatch(
        commit_id=c.commit_id,
        message_tokens=msg_idx,
        removed_code=removed,
        added_code=added,
        label=c.label,
    )


def message_token_stream(commits):
    """All normalized message tokens (unpadded), for vocabulary building."""
    for c in commits:
        yield from message_tokens(strip_tags(c.message))


def code_token_stream(commits, table: FunctionNameTable):
    """All annotated code tokens (untruncated), for vocabulary building."""
    for c in commits:
        for fd in _relevant_files(c):
            for rem_lines, add_lines in annotate_file_lines(c, fd):
                for line in (*rem_lines, *add_lines):
                    for tok in tokenize_code_line(line, table, fd.path):
                        yield tok.text


# ---------------------------------------------------------------------------
# Tensor file format ("PNTD")


def write_tensor_file(path: str, patches, dims: PatchDims = PatchDims()) -> None:
    """magic, u32 version, u32 count, five u32 dims, then fixed-size records.

    Record: 40-byte ascii commit id, one label byte (1/0/255=none), then
    message, removed, added index arrays as little-endian u32.
    """
    patches = list(patches)
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", TENSOR_VERSION, len(patches)))
        fh.write(
            struct.pack(
                "<5I", dims.msg_len, dims.files, dims.hunks, dims.lines, dims.words
            )
        )
        for p in patches:
            cid = p.commit_id.encode("ascii")
            if len(cid) != 40:
                raise ValueError(f"commit id must be 40 bytes, got {p.commit_id!r}")
            fh.write(cid)
            label_byte = NO_LABEL_BYTE if p.label is None else p.label.to_int()
            fh.write(struct.pack("<B", label_byte))
            for arr, shape in (
                (p.message_tokens, (dims.msg_len,)),
                (p.removed_code, dims.code_shape),
                (p.added_code, dims.code_shape),
            ):
                if tuple(arr.shape) != shape:
                    raise ValueError(
                        f"patch {p.commit_id}: array shape {arr.shape} != {shape}"
                    )
                fh.write(np.ascontiguousarray(arr, dtype="<u4").tobytes())


def read_tensor_file(path: str) -> tuple[list[PreprocessedPatch], PatchDims]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a tensor file (bad magic)")
    if len(blob) < 32:
        raise ValueError(f"{path}: truncated tensor file header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != TENSOR_VERSION:
        raise ValueError(f"{path}: unsupported tensor file version {version}")
    d = struct.unpack_from("<5I", blob, 12)
    dims = PatchDims(msg_len=d[0], files=d[1], hunks=d[2], lines=d[3], words=d[4])
    code_elems = int(np.prod(dims.code_shape))
    record = 40 + 1 + 4 * (dims.msg_len + 2 * code_elems)
    offset = 32
    if len(blob) != offset + count * record:
        raise ValueError(f"{path}: truncated tensor file")
    patches = []
    for _ in range(count):
        cid = blob[offset : offset + 40].decode("ascii")
        label_byte = blob[offset + 40]
        pos = offset + 41
        msg = np.frombuffer(blob, dtype="<u4", count=dims.msg_len, offset=pos).astype(np.int64)
        pos += 4 * dims.msg_len
        rem = (
            np.frombuffer(blob, dtype="<u4", count=code_elems, offset=pos)
            .astype(np.int64)
            .reshape(dims.code_shape)
        )
        pos += 4 * code_elems
        add = (
            np.frombuffer(blob, dtype="<u4", count=code_elems, offset=pos)
            .astype(np.int64)
            .reshape(dims.code_shape)
        )
        label = None if label_byte == NO_LABEL_BYTE else Label.from_int(label_byte)
        patches.append(
            PreprocessedPatch(
                commit_id=cid,
                message_tokens=msg,
                removed_code=rem,
                added_code=add,
                label=label,
            )
        )
        offset += record
    return patches, dims
