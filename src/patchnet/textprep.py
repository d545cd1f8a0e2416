"""Commit-message preprocessing: tag stripping and token normalization."""

from __future__ import annotations

import re

from .stemmer import porter_stem
from .stopwords import STOP_WORDS

TAG_PREFIXES = (
    "cc:",
    "fixes:",
    "signed-off-by:",
    "reviewed-by:",
    "acked-by:",
    "tested-by:",
    "reported-by:",
    "suggested-by:",
    "link:",
)

RE_SPLIT = re.compile(r"[^a-z0-9]+")


def strip_tags(message_body: str) -> str:
    """Remove whole lines whose prefix is a known metadata tag.

    Matching is case-insensitive on the line's leading non-blank text.
    """
    kept = []
    for line in message_body.split("\n"):
        lowered = line.lstrip().lower()
        if any(lowered.startswith(p) for p in TAG_PREFIXES):
            continue
        kept.append(line)
    return "\n".join(kept)


def message_tokens(message: str) -> list[str]:
    """Lowercase, split on non-alphanumeric, drop stop words, stem."""
    tokens = []
    for raw in RE_SPLIT.split(message.lower()):
        if not raw or raw in STOP_WORDS:
            continue
        tokens.append(porter_stem(raw))
    return tokens

