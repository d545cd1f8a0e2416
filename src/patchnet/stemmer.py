"""Porter stemming algorithm (the original 1980 rule set).

Implemented in-repo because message normalization needs exactly this
stemmer and nothing else from an NLP dependency.  The rules follow the
published algorithm: five suffix-stripping steps, longest-match-first
within a step (a failed condition on the longest match ends the step).

Every condition reads a word's form, one `c` or `v` per letter from
`_form`: the measure m of the [C](VC)^m[V] decomposition is the number
of "vc" in it, and a stem has a vowel when it holds a "v".
"""

from __future__ import annotations


def _form(word: str) -> str:
    """`v` for a e i o u and for a y after a consonant, else `c`."""
    form = ""
    for ch in word:
        form += "v" if ch in "aeiou" or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _ends_cvc(word: str, form: str) -> bool:
    """Consonant-vowel-consonant ending where the last letter is not w, x, y."""
    return form.endswith("cvc") and word[-1] not in "wxy"


# suffix -> replacement.  The longest matching suffix is taken, so the
# order within a table does not matter.
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

_STEP4 = dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), "")

# (table, its suffixes, minimum measure) for steps 2, 3 and 4.
_STEPS_2_TO_4 = tuple((t, tuple(t), m) for t, m in ((_STEP2, 0), (_STEP3, 0), (_STEP4, 1)))


def porter_stem(word: str) -> str:
    """Stem one lowercase token; strings shorter than 3 are unchanged."""
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a: plurals.
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]

    # Step 1b: -eed / -ed / -ing, then tidy the stem -ed/-ing left.
    if word.endswith("eed"):
        if "vc" in _form(word[:-3]):
            word = word[:-1]
    elif word.endswith(("ed", "ing")):
        stem = word[: -2 if word.endswith("ed") else -3]
        form = _form(stem)
        if "v" in form:
            word = stem
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif word.endswith(word[-1] * 2) and form.endswith("c") and word[-1] not in "lsz":
                word = word[:-1]
            elif form.count("vc") == 1 and _ends_cvc(word, form):
                word += "e"

    # Step 1c: terminal y.
    if word.endswith("y") and "v" in _form(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2, 3 and 4: double suffixes, -ic-, -full, -ness etc., then
    # bare suffixes; -ion goes only after s or t.
    for table, suffixes, min_m in _STEPS_2_TO_4:
        if word.endswith(suffixes):  # one call rules out most words
            suffix = max((s for s in suffixes if word.endswith(s)), key=len)
            stem = word[: -len(suffix)]
            if (suffix != "ion" or stem.endswith(("s", "t"))) and _form(stem).count("vc") > min_m:
                word = stem + table[suffix]

    # Step 5a: terminal e.
    if word.endswith("e"):
        stem = word[:-1]
        form = _form(stem)
        m = form.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, form)):
            word = stem

    # Step 5b: -ll reduction (l is always a consonant).
    if word.endswith("ll") and _form(word).count("vc") > 1:
        word = word[:-1]

    return word
