"""Tests for vocabulary construction and persistence."""

import json
import random

import pytest

from patchnet.vocab import (
    PAD_INDEX,
    PAD_WORD,
    UNK_INDEX,
    UNK_WORD,
    Vocabulary,
    build_vocab,
    index_of,
    load_vocab_pair,
    save_vocab_pair,
)


def test_reserved_slots():
    v = build_vocab(["fix", "fix", "leak"], "message")
    assert v.index_to_word[PAD_INDEX] == PAD_WORD
    assert v.index_to_word[UNK_INDEX] == UNK_WORD
    assert index_of(v, PAD_WORD) == PAD_INDEX
    assert index_of(v, "never-seen") == UNK_INDEX


def test_frequency_then_lexicographic_order():
    stream = ["b"] * 3 + ["a"] * 3 + ["z"] * 5 + ["m"]
    v = build_vocab(stream, "message")
    assert v.index_to_word == (PAD_WORD, UNK_WORD, "z", "a", "b", "m")
    assert index_of(v, "z") == 2
    assert index_of(v, "m") == 5


def test_min_count_filters_rare_words():
    stream = ["common"] * 4 + ["rare"]
    v = build_vocab(stream, "code", min_count=2)
    assert "common" in v.word_to_index
    assert "rare" not in v.word_to_index
    assert index_of(v, "rare") == UNK_INDEX


def test_reserved_words_never_counted():
    v = build_vocab([PAD_WORD, UNK_WORD, "real"], "message")
    assert v.index_to_word == (PAD_WORD, UNK_WORD, "real")


def test_len_and_words_property():
    v = build_vocab(["x", "y"], "code")
    assert len(v) == 4
    assert v.words == ("x", "y")
    empty = build_vocab([], "code")
    assert len(empty) == 2
    assert empty.words == ()


def test_channel_validation():
    with pytest.raises(ValueError):
        Vocabulary.from_words("bogus", ["a"])


def test_build_is_deterministic_under_shuffle():
    rng = random.Random(7)
    words = [f"w{i}" for i in range(30)]
    stream = [w for i, w in enumerate(words) for _ in range(1 + i % 5)]
    reference = build_vocab(stream, "message")
    for _ in range(10):
        rng.shuffle(stream)
        assert build_vocab(stream, "message") == reference


def test_pair_round_trip(tmp_path):
    msg = build_vocab(["fix", "leak"], "message")
    code = build_vocab(["IDENT@nrm", "if@chk"], "code")
    path = str(tmp_path / "pair.json")
    save_vocab_pair(msg, code, path)
    m2, c2 = load_vocab_pair(path)
    assert m2.index_to_word == msg.index_to_word
    assert c2.index_to_word == code.index_to_word


@pytest.mark.parametrize(
    "words, why",
    [("abc", "list of strings"), (["a", 1], "list of strings"),
     (["a", "b", "a"], "distinct"), (["a", PAD_WORD], "distinct"), ([UNK_WORD], "distinct")],
    ids=["string", "non-string", "duplicate", "pad", "unk"],
)
def test_word_lists_are_checked_by_both_readers(tmp_path, words, why):
    with pytest.raises(ValueError, match=f"code vocabulary: words must be .*{why}"):
        Vocabulary.from_words("code", words)
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([{"channel": "message", "words": ["fix"]},
                                {"channel": "code", "words": words}]))
    with pytest.raises(ValueError, match=why):
        load_vocab_pair(str(path))


def test_from_words_takes_a_list():
    assert Vocabulary.from_words("code", ["a", "b"]).words == ("a", "b")
    for words in (("a", "b"), iter(["a", "b"])):
        with pytest.raises(ValueError, match="list of strings"):
            Vocabulary.from_words("code", words)


def test_pair_missing_channel_rejected(tmp_path):
    path = str(tmp_path / "only-msg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"channel": "message", "words": ["fix"]}, fh)
    with pytest.raises(ValueError, match="code"):
        load_vocab_pair(path)
