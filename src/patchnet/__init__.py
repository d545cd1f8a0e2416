"""Patch classification toolkit: ingest exported commits, preprocess
messages and code, train a hierarchical convolutional classifier, and
evaluate against the keyword baseline.
"""

__version__ = "0.1.0"

from .core import (
    CodeLine,
    FileDiff,
    FileSnapshot,
    Hunk,
    Label,
    LineKind,
    RawCommit,
)
from .ingest import (
    EligibilityReport,
    ParseError,
    StableEvidence,
    build_balanced_dataset,
    check_eligibility,
    diff_reported_length,
    extract_stable_evidence,
    label_commit,
    load_commits,
    parse_commit_stream,
    parse_unified_diff,
    write_commits_jsonl,
)
from .stemmer import porter_stem
from .textprep import message_tokens, strip_tags
from .codeprep import (
    FunctionNameTable,
    build_function_table,
    classify_line_kinds,
    strip_comments_strings,
    tokenize_code_line,
)
from .vocab import Vocabulary, build_vocab, index_of, load_vocab_pair, save_vocab_pair
from .preprocess import (
    PatchDims,
    PreprocessedPatch,
    assemble_tensors,
    preprocess_commits,
    read_tensor_file,
    write_tensor_file,
)
from .nnkit import Tensor, backward, loss
from .model import (
    HyperParams,
    ModelParams,
    init_params,
)
from .trainer import (
    CheckpointBundle,
    TrainConfig,
    TrainHistory,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
    score_items,
    train,
)
from .evalkit import (
    EvalReport,
    auc_roc,
    chrono_folds,
    keyword_baseline,
    metrics,
    pr_curve,
)

__all__ = [
    "__version__",
    "CheckpointBundle",
    "CodeLine",
    "EligibilityReport",
    "EvalReport",
    "FileDiff",
    "FileSnapshot",
    "FunctionNameTable",
    "Hunk",
    "HyperParams",
    "Label",
    "LineKind",
    "ModelParams",
    "ParseError",
    "PatchDims",
    "PreprocessedPatch",
    "RawCommit",
    "StableEvidence",
    "Tensor",
    "TrainConfig",
    "TrainHistory",
    "TrainResult",
    "Vocabulary",
    "assemble_tensors",
    "auc_roc",
    "backward",
    "build_balanced_dataset",
    "build_function_table",
    "build_vocab",
    "check_eligibility",
    "chrono_folds",
    "classify_line_kinds",
    "diff_reported_length",
    "extract_stable_evidence",
    "index_of",
    "init_params",
    "keyword_baseline",
    "label_commit",
    "load_checkpoint",
    "load_commits",
    "load_vocab_pair",
    "loss",
    "message_tokens",
    "metrics",
    "parse_commit_stream",
    "parse_unified_diff",
    "porter_stem",
    "pr_curve",
    "preprocess_commits",
    "read_tensor_file",
    "save_checkpoint",
    "save_vocab_pair",
    "score_items",
    "strip_comments_strings",
    "strip_tags",
    "tokenize_code_line",
    "train",
    "write_commits_jsonl",
    "write_tensor_file",
]
