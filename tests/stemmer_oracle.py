"""The Porter stemmer as it was before the consonant/vowel form: one
recursive consonant test per letter, kept as the oracle that
tests/test_stemmer.py checks patchnet.stemmer.porter_stem against.  Only
this docstring is new; the functions and tables are unchanged.  The
recursion in _is_consonant goes one level per preceding y, so words with
runs of about 1,000 y's exceed Python's default recursion limit here."""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel when preceded by a consonant, else a consonant.
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel→consonant transitions ([C](VC)^m[V] decomposition)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        consonant = _is_consonant(stem, i)
        if consonant and prev_vowel:
            m += 1
        prev_vowel = not consonant
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Consonant-vowel-consonant ending where the last char is not w, x, y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1ab_cleanup(word: str) -> str:
    """Post-processing after -ed/-ing removal."""
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


# suffix -> replacement; _longest_match compares lengths, so the order
# of the suffixes does not matter.
_STEP2 = {
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
}

_STEP3 = {
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
}

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_match(word: str, suffixes) -> str | None:
    best = None
    for s in suffixes:
        if word.endswith(s) and (best is None or len(s) > len(best)):
            best = s
    return best


def porter_stem(word: str) -> str:
    """Stem one lowercase token; strings shorter than 3 are unchanged."""
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a: plurals.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b: -eed / -ed / -ing.
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed"):
        if _has_vowel(word[:-2]):
            word = _step1ab_cleanup(word[:-2])
    elif word.endswith("ing"):
        if _has_vowel(word[:-3]):
            word = _step1ab_cleanup(word[:-3])

    # Step 1c: terminal y.
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2 and 3: double suffixes, then -ic-, -full, -ness etc., m(stem) > 0.
    for step in (_STEP2, _STEP3):
        suffix = _longest_match(word, step)
        if suffix is not None:
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + step[suffix]

    # Step 4: bare suffixes, m(stem) > 1.
    suffix = _longest_match(word, _STEP4)
    if suffix is not None:
        stem = word[: -len(suffix)]
        if _measure(stem) > 1:
            if suffix != "ion" or (stem and stem[-1] in "st"):
                word = stem

    # Step 5a: terminal e.
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b: -ll reduction.
    if (
        word.endswith("l")
        and _ends_double_consonant(word)
        and _measure(word) > 1
    ):
        word = word[:-1]

    return word
