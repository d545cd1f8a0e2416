"""Domain types for commit ingestion and patch classification, and the
one atomic-write helper every output file goes through.

Everything downstream (parsing, preprocessing, the model, evaluation)
speaks in terms of these types.  They are deliberately plain: frozen
dataclasses holding strings, ints, and tuples, so they hash, compare,
and serialize without ceremony.  A commit's label is a field of its
RawCommit, set with dataclasses.replace; no other type carries one.
"""

from __future__ import annotations

import contextlib
import enum
import os
import re
from dataclasses import dataclass

COMMIT_ID_RE = re.compile(r"^[0-9a-f]{40}$")


class Label(enum.Enum):
    """Ground-truth or predicted class of a patch."""

    STABLE = "stable"
    NON_STABLE = "non-stable"

    @classmethod
    def from_string(cls, text: str) -> "Label":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown label {text!r}")

    def to_int(self) -> int:
        return 1 if self is Label.STABLE else 0

    @classmethod
    def from_int(cls, value: int) -> "Label":
        if value == 1:
            return cls.STABLE
        if value == 0:
            return cls.NON_STABLE
        raise ValueError(f"label int must be 0 or 1, got {value}")


class LineKind(enum.Enum):
    """Coarse role of a changed source line, used to annotate code tokens."""

    ERROR_CHECKING = "chk"
    ERROR_HANDLING = "hnd"
    NORMAL = "nrm"


@dataclass(frozen=True)
class CodeLine:
    """One changed line inside a hunk.

    ``line_number`` is the 1-based position in the old file for removed
    lines and in the new file for added lines.  ``sign`` is '-' or '+'.
    A line's LineKind is not stored here: preprocessing classifies it
    and hands it to the lexer with the text.
    """

    line_number: int
    text: str
    sign: str

    def __post_init__(self) -> None:
        if self.sign not in ("-", "+"):
            raise ValueError(f"sign must be '-' or '+', got {self.sign!r}")
        if self.line_number < 1:
            raise ValueError(f"line number must be >= 1, got {self.line_number}")
        if "\n" in self.text:
            raise ValueError("line text contains a newline")


@dataclass(frozen=True)
class Hunk:
    """A contiguous change region of one file.

    ``index`` is the 1-based position of the hunk within its file diff.
    Starts and counts echo the @@ header.  ``removed`` and ``added``
    hold only the changed lines; context lines are not retained beyond
    their effect on line numbering.
    """

    index: int
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    removed: tuple[CodeLine, ...]
    added: tuple[CodeLine, ...]


@dataclass(frozen=True)
class FileDiff:
    """All hunks of one file touched by a commit.

    ``language_relevant`` is true when the path ends in .c or .h; only
    those files feed the code channel of the model.  A binary or otherwise
    opaque change is represented with an empty ``hunks`` tuple.  ``old_path`` is the ---
    side ("" when the file is newly added); ``path`` prefers the +++
    side and falls back to the --- side for deletions.
    """

    path: str
    hunks: tuple[Hunk, ...]
    old_path: str = ""
    is_new_file: bool = False
    is_deleted_file: bool = False

    @property
    def language_relevant(self) -> bool:
        return self.path.endswith((".c", ".h"))

    @property
    def is_modification(self) -> bool:
        """True when both diff sides name a real path (not /dev/null)."""
        return not (self.is_new_file or self.is_deleted_file)


@dataclass(frozen=True)
class FileSnapshot:
    """Optional full before/after text of one file touched by a commit."""

    path: str
    before: str | None = None
    after: str | None = None


@dataclass(frozen=True)
class RawCommit:
    """A commit as parsed from an export stream; ``label`` is None until set."""

    commit_id: str
    parent_ids: tuple[str, ...]
    author_name: str
    author_email: str
    date: int
    subject: str
    body: str
    diff_text: str
    file_snapshots: tuple[FileSnapshot, ...] = ()
    label: "Label | None" = None

    @property
    def message(self) -> str:
        """Subject and body joined the way the preprocessors consume them."""
        if self.body:
            return self.subject + "\n" + self.body
        return self.subject


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Write to a temporary file beside `path` and os.replace it onto
    `path` when the block exits cleanly; on an exception remove it, so
    `path` holds its old content or the whole new one, never a part."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
