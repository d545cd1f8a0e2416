"""Word↔index vocabularies for the message and code channels.

Index 0 is PAD, index 1 is UNK; real words start at 2, ordered by
descending frequency with lexicographic tie-breaks so builds are
reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .core import atomic_write

PAD_INDEX = 0
UNK_INDEX = 1
PAD_WORD = "<pad>"
UNK_WORD = "<unk>"

CHANNELS = ("message", "code")


@dataclass(frozen=True)
class Vocabulary:
    channel: str
    index_to_word: tuple[str, ...]
    word_to_index: dict[str, int] = field(compare=False)

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")

    def __len__(self) -> int:
        return len(self.index_to_word)

    @property
    def words(self) -> tuple[str, ...]:
        """Real words only (indices 2..size-1)."""
        return self.index_to_word[2:]

    @classmethod
    def from_words(cls, channel: str, words: list[str]) -> "Vocabulary":
        """The vocabulary with PAD, UNK, then `words`: a list of distinct
        strings other than PAD_WORD and UNK_WORD, or a ValueError."""
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ValueError(f"{channel} vocabulary: words must be a list of strings")
        if len(set(words) - {PAD_WORD, UNK_WORD}) != len(words):
            raise ValueError(f"{channel} vocabulary: words must be distinct and not {PAD_WORD} or {UNK_WORD}")
        index_to_word = (PAD_WORD, UNK_WORD, *words)
        return cls(
            channel=channel,
            index_to_word=index_to_word,
            word_to_index={w: i for i, w in enumerate(index_to_word) if i >= 2},
        )


def build_vocab(token_stream, channel: str, min_count: int = 1) -> Vocabulary:
    """Index tokens by descending frequency, ties lexicographic.

    The stream must come from the training split only.  The reserved
    PAD/UNK words never enter the counts.
    """
    counts = Counter(
        t for t in token_stream if t not in (PAD_WORD, UNK_WORD)
    )
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_words(channel, [w for w, k in ordered if k >= min_count])


def index_of(v: Vocabulary, word: str) -> int:
    """Mapped index, or UNK for anything unknown."""
    if word == PAD_WORD:
        return PAD_INDEX
    return v.word_to_index.get(word, UNK_INDEX)


def save_vocab_pair(message_vocab: Vocabulary, code_vocab: Vocabulary, path: str) -> None:
    """Write both channels to one file as a JSON array of {channel, words}
    objects (position in words = index - 2)."""
    with atomic_write(path) as fh:
        objs = [{"channel": v.channel, "words": list(v.words)} for v in (message_vocab, code_vocab)]
        json.dump(objs, fh)
        fh.write("\n")


def load_vocab_pair(path: str) -> tuple[Vocabulary, Vocabulary]:
    """Read what save_vocab_pair wrote; any other shape is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    try:
        by_channel = {
            obj["channel"]: Vocabulary.from_words(obj["channel"], obj["words"]) for obj in data
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"vocabulary file {path}: expected a list of {{channel, words}} objects ({exc!r})"
        ) from exc
    missing = [c for c in CHANNELS if c not in by_channel]
    if missing:
        raise ValueError(f"vocabulary file {path} missing channels: {missing}")
    return by_channel["message"], by_channel["code"]
