"""Tests for commit-message preprocessing."""

from patchnet.stopwords import STOP_WORDS
from patchnet.textprep import message_tokens, strip_tags


def test_strip_tags_removes_metadata_lines():
    body = (
        "Keep the frobnicator in range.\n"
        "\n"
        "Signed-off-by: Dev One <dev@example.org>\n"
        "Reviewed-by: Dev Two <two@example.org>\n"
        "Cc: stable@vger.kernel.org\n"
        "Fixes: 1234567890ab (\"net: earlier change\")\n"
        "Link: https://example.org/patch\n"
    )
    assert strip_tags(body) == "Keep the frobnicator in range.\n\n"


def test_strip_tags_is_case_insensitive_and_tolerates_indent():
    body = "real text\n  SIGNED-OFF-BY: Dev <d@e.org>\n\tacked-BY: X\nmore"
    assert strip_tags(body) == "real text\nmore"


def test_strip_tags_keeps_lines_that_merely_contain_a_tag_word():
    body = "This fixes: nothing\nsee the link: above"
    # "fixes:" and "link:" appear mid-line, not as the line prefix.
    assert strip_tags(body) == body


def test_strip_tags_empty_message():
    assert strip_tags("") == ""


def test_message_tokens_lowercase_split_stopwords_stem():
    msg = "Fixes a race when the buffers are freed"
    # a/when/the/are are stop words; the rest is stemmed.
    assert message_tokens(msg) == ["fix", "race", "buffer", "freed"]


def test_message_tokens_split_on_punctuation_and_digits_kept():
    msg = "btrfs: csum_tree_block: return value of 0xFF (255)"
    toks = message_tokens(msg)
    assert "btrf" in toks  # btrfs -> 1a strips the s
    assert "csum" in toks and "tree" in toks and "block" in toks
    assert "0xff" in toks and "255" in toks


def test_message_tokens_drop_stopwords_before_stemming():
    # "being" is a stop word and must be removed as the raw token, not
    # compared after stemming ("be" is also a stop word but "beings"
    # stems to "be" only after the stopword check has passed).
    assert message_tokens("being") == []
    assert "this" in STOP_WORDS
    assert message_tokens("this this this") == []


def test_message_tokens_empty_and_symbol_only():
    assert message_tokens("") == []
    assert message_tokens("!!! --- ***") == []


def test_stopword_list_is_lowercase_ascii():
    assert len(STOP_WORDS) == 127
    for word in STOP_WORDS:
        assert word == word.lower()
        assert word.isascii()
