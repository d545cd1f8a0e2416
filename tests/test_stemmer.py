"""Tests for the Porter stemmer.

Every expected value below was traced by hand through the published
rule set (measure conditions included), end to end from the raw word.
The groups mirror the algorithm's steps so a failure points at the
step that regressed.  The last tests hold porter_stem equal to the
recursive stemmer kept in stemmer_oracle; its recursion limits the y
runs they try to under 500.
"""

import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stemmer_oracle
from patchnet.ingest import parse_commit_stream
from patchnet.stemmer import porter_stem
from patchnet.textprep import RE_SPLIT
from test_export_reader import _benchmark_run

# Step 1a: plural stripping.
PLURALS = (
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("does", "doe"),
)

# Step 1b: -eed/-ed/-ing with the at/bl/iz, double-consonant and
# cvc+e cleanups.  "feed" keeps its d because the longest match (eed)
# fails its measure condition and ends the step.
PAST_AND_GERUND = (
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("based", "base"),
    ("hopping", "hop"),
    ("hoping", "hope"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("using", "us"),
)

# Step 1c: terminal y when the stem has a vowel.
TERMINAL_Y = (
    ("happy", "happi"),
    ("sky", "sky"),
    ("enjoy", "enjoi"),
    ("buggy", "buggi"),
)

# Step 2 double suffixes, often followed by later steps.  "rational"
# matches -ational first; the measure condition fails on stem "r" and
# the whole step is skipped, leaving step 4 to strip -al.
DOUBLE_SUFFIXES = (
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("agency", "agenc"),
    ("digitizer", "digit"),
    ("comfortably", "comfort"),
    ("radically", "radic"),
    ("differently", "differ"),
    ("analogously", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensitivity", "sensit"),
    ("sensibility", "sensibl"),
)

# Step 3.
SHORT_DOUBLE_SUFFIXES = (
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
)

# Step 4 bare suffixes (measure > 1).
BARE_SUFFIXES = (
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologous", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angularity", "angular"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("religion", "religion"),
)

# Step 5: final e and -ll.
FINAL_CLEANUP = (
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
)

# Words central to patch-message handling.
MESSAGE_WORDS = (
    ("fixes", "fix"),
    ("fixed", "fix"),
    ("fixing", "fix"),
    ("bugs", "bug"),
    ("bugfix", "bugfix"),
    ("commit", "commit"),
    ("stable", "stabl"),
    ("kernel", "kernel"),
    ("memory", "memori"),
    ("leaked", "leak"),
    ("crashes", "crash"),
)

ALL_GROUPS = (
    PLURALS,
    PAST_AND_GERUND,
    TERMINAL_Y,
    DOUBLE_SUFFIXES,
    SHORT_DOUBLE_SUFFIXES,
    BARE_SUFFIXES,
    FINAL_CLEANUP,
    MESSAGE_WORDS,
)


def test_traced_vectors():
    for group in ALL_GROUPS:
        for word, expected in group:
            assert porter_stem(word) == expected, word


def test_short_words_unchanged():
    for word in ("", "a", "is", "as", "be", "on", "io"):
        assert porter_stem(word) == word


def test_uppercase_is_folded():
    assert porter_stem("Fixes") == "fix"
    assert porter_stem("AGREED") == "agre"


def test_never_grows_and_is_deterministic():
    # Every rewrite in the rule table replaces a suffix with one no
    # longer than itself, so stems never exceed their input.
    rng = random.Random(20260813)
    fragments = (
        "ing", "ed", "es", "s", "ational", "iveness", "ly", "y",
        "ment", "able", "ation", "izer", "ful", "ness", "e", "ll",
    )
    for _ in range(500):
        base = "".join(
            rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8))
        )
        word = base + rng.choice(fragments)
        out = porter_stem(word)
        assert len(out) <= len(word)
        assert out == porter_stem(word)
        assert all(c in string.ascii_lowercase for c in out) or out == word


def test_long_y_runs_stem_without_recursion():
    # y's class depends on the letter before it; a run of 3,000 must not
    # cost a stack frame per letter.
    assert porter_stem("a" + "y" * 3000 + "ing") == "a" + "y" * 2999 + "i"


# ---------------------------------------------------------------------------
# Against the recursive stemmer kept in stemmer_oracle.

SUFFIXES = sorted(
    {*stemmer_oracle._STEP2, *stemmer_oracle._STEP3, *stemmer_oracle._STEP4,
     "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "e", "ll", "y",
     "sion", "tion"}
)


@st.composite
def porter_words(draw):
    """A short stem of letters, digits and y runs, then stacked suffixes."""
    stem = draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789", max_size=6))
    stem += "y" * draw(st.integers(0, 6) | st.integers(7, 499)) + draw(st.text("bcaeiouwxl", max_size=2))
    return stem + "".join(draw(st.lists(st.sampled_from(SUFFIXES), max_size=3)))


@given(porter_words())
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
def test_porter_stem_matches_the_oracle(word):
    assert porter_stem(word) == stemmer_oracle.porter_stem(word)


@pytest.mark.parametrize("workload", ["kernel-default", "corpus-compact"])
def test_porter_stem_matches_the_oracle_on_the_benchmark_exports(workload, tmp_path, monkeypatch):
    run = _benchmark_run(monkeypatch)
    info = run.corpus.generate(run.WORKLOADS[workload].shape, 5, tmp_path)
    words = set()
    for name in ("mainline", "stable"):
        for commit in parse_commit_stream(Path(info["paths"][name]).read_text(encoding="utf-8")):
            words.update(RE_SPLIT.split(commit.message.lower()))
    assert len(words) > 100
    for word in words:
        assert porter_stem(word) == stemmer_oracle.porter_stem(word), word
