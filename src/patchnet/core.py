"""Domain types for commit ingestion and patch classification, the
settings of the tensors, the model and training, and the one
atomic-write helper every output file goes through.

Everything downstream (parsing, preprocessing, the model, evaluation)
speaks in terms of these types.  They are deliberately plain: frozen
dataclasses holding strings, ints, and tuples, so they hash, compare,
and serialize without ceremony.  A commit's label is a field of its
RawCommit; no other type carries one.  Nothing here imports numpy, so
the CLI builds its parser from these settings without loading it.
"""

from __future__ import annotations

import contextlib
import enum
import math
import numbers
import os
import re
from dataclasses import asdict, dataclass, fields

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


# ---------------------------------------------------------------------------
# Settings


U32_MAX = 2**32 - 1  # tensor-file header fields are u32
VARIANTS = ("full", "code", "message")


class TrainingError(Exception):
    """Raised when optimization cannot continue (for example NaN loss)."""


def check_positive_ints(**values) -> None:
    """Raise ValueError unless every value is an integer >= 1; a float or
    a bool is not an integer here, even when it is whole."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if v < 1:
            raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PatchDims:
    """Tensor extents: message length and files/hunks/lines/words."""

    msg_len: int = 512
    files: int = 5
    hunks: int = 8
    lines: int = 10
    words: int = 120

    def __post_init__(self) -> None:
        check_positive_ints(**vars(self))
        for name, v in vars(self).items():
            if v > U32_MAX:
                raise ValueError(f"{name} must be at most {U32_MAX}, got {v}")

    @property
    def code_shape(self) -> tuple[int, int, int, int]:
        return (self.files, self.hunks, self.lines, self.words)

    @property
    def grid_shape(self) -> tuple[int, int, int, int]:
        """(removed/added, files, hunks, lines): one row id per line slot."""
        return (2, self.files, self.hunks, self.lines)


@dataclass(frozen=True)
class HyperParams:
    """Architecture and regularization settings (shipped defaults)."""

    d_msg: int = 50
    d_code: int = 50
    filter_sizes: tuple[int, ...] = (1, 2)
    n_filters: int = 64
    fc_size: int = 100
    dims: PatchDims = PatchDims()
    dropout: float = 0.5
    l2_reg_lambda: float = 1e-5
    threshold: float = 0.5
    variant: str = "full"

    def __post_init__(self) -> None:
        check_positive_ints(d_msg=self.d_msg, d_code=self.d_code, n_filters=self.n_filters, fc_size=self.fc_size)
        if not self.filter_sizes:
            raise ValueError("filter_sizes must not be empty")
        check_positive_ints(**{f"filter_sizes[{i}]": k for i, k in enumerate(self.filter_sizes)})
        if len(set(self.filter_sizes)) != len(self.filter_sizes):
            raise ValueError("filter_sizes must be distinct")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0.0 <= self.l2_reg_lambda < math.inf:
            raise ValueError(f"l2_reg_lambda must be finite and non-negative, got {self.l2_reg_lambda}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        kmax = max(self.filter_sizes)
        if min(self.dims.msg_len, self.dims.words, self.dims.hunks) < kmax:
            raise ValueError("sequence dims must be >= the largest filter size")

    @property
    def line_embed_dim(self) -> int:
        """E: one max-pooled value per filter per filter size."""
        return self.n_filters * len(self.filter_sizes)

    @property
    def file_dim(self) -> int:
        return 2 * self.line_embed_dim

    @property
    def code_dim(self) -> int:
        return self.dims.files * self.file_dim

    @property
    def e_dim(self) -> int:
        """Width of the classifier input under the active variant."""
        if self.variant == "message":
            return self.line_embed_dim
        if self.variant == "code":
            return self.code_dim
        return self.line_embed_dim + self.code_dim

    def to_json_obj(self) -> dict:
        """Flat JSON object: the dims fields sit beside the others."""
        obj = asdict(self)
        obj.update(obj.pop("dims"))
        obj["filter_sizes"] = list(self.filter_sizes)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HyperParams":
        """Inverse of to_json_obj; a missing or unknown key is a ValueError."""
        expected = cls().to_json_obj().keys()
        if not isinstance(obj, dict) or obj.keys() != expected:
            raise ValueError(f"hyperparameters must have exactly the keys {sorted(expected)}")
        obj = dict(obj)
        dims = PatchDims(**{f.name: obj.pop(f.name) for f in fields(PatchDims)})
        obj["filter_sizes"] = tuple(obj["filter_sizes"])
        return cls(dims=dims, **obj)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        check_positive_ints(batch_size=self.batch_size, max_epochs=self.max_epochs, patience=self.patience)
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
