import numpy as np
import pytest
from oracles import recursive_distance

from wwspot.lexicon import (
    ConfusableSet,
    LexiconError,
    build_confusable_set,
    levenshtein,
    load_lexicon,
    read_confusables,
    write_confusables,
)

PHONES = ["AA", "IY", "UW", "EH", "OW", "K", "S", "L", "T", "N"]


def random_seq(rng, max_len=8):
    n = int(rng.integers(1, max_len + 1))
    return tuple(PHONES[i] for i in rng.integers(0, len(PHONES), n))


def test_identity_and_single_edit():
    assert levenshtein(("AH", "L", "EH", "K", "S", "AH"), ("AH", "L", "EH", "K", "S", "AH")) == 0
    assert levenshtein(("AH", "L", "EH", "K", "S", "AH"), ("AH", "L", "EH", "K", "S")) == 1
    assert levenshtein(("A",), ("B",)) == 1


def test_empty_sequences_rejected():
    with pytest.raises(LexiconError):
        levenshtein((), ("A",))
    with pytest.raises(LexiconError):
        levenshtein(("A",), ())


def test_matches_recursive_oracle_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = random_seq(rng), random_seq(rng)
        assert levenshtein(a, b) == recursive_distance(a, b)


def test_metric_properties():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = random_seq(rng), random_seq(rng), random_seq(rng)
        dab = levenshtein(a, b)
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= levenshtein(a, c) + levenshtein(c, b)
        assert abs(len(a) - len(b)) <= dab <= max(len(a), len(b))


def _write_lexicon(tmp_path, lines, name="lex.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_lexicon_basics(tmp_path):
    path = _write_lexicon(
        tmp_path,
        ["alexa\tAH L EH K S AH", "read\tR IY D", "read\tR EH D", "Read\tR IY D"],
    )
    lex = load_lexicon(path)
    assert len(lex) == 2
    assert lex.pronunciations("alexa") == [("AH", "L", "EH", "K", "S", "AH")]
    assert lex.pronunciations("READ") == [("R", "IY", "D"), ("R", "EH", "D")]


def test_load_lexicon_malformed_line_reports_lineno(tmp_path):
    path = _write_lexicon(tmp_path, ["good\tG UH D", "bad\t"])
    with pytest.raises(LexiconError, match=r":2:"):
        load_lexicon(path)
    path2 = _write_lexicon(tmp_path, ["no-tab-here"], name="l2.txt")
    with pytest.raises(LexiconError, match=r":1:"):
        load_lexicon(path2)


def test_load_lexicon_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(LexiconError, match="empty"):
        load_lexicon(path)


def test_frequency_ranks(tmp_path):
    lex_path = _write_lexicon(tmp_path, ["aa\tA", "bb\tB", "cc\tC"])
    freq_path = tmp_path / "freq.txt"
    freq_path.write_text("bb\t10\naa\t10\ncc\t3\n")
    lex = load_lexicon(lex_path, freq_path)
    # ties broken lexicographically
    assert lex.frequency_rank == {"aa": 1, "bb": 2, "cc": 3}


def test_confusables_toy_case(tmp_path):
    path = _write_lexicon(tmp_path, ["ww\tA B C", "w1\tA B D", "w2\tX Y Z"])
    lex = load_lexicon(path)
    cs = build_confusable_set(lex, "ww", d_max=1)
    assert cs.members == {"w1": 1}
    assert "w1" in cs and "w2" not in cs and "ww" not in cs


def test_confusables_d_max_zero_is_empty(tmp_path):
    path = _write_lexicon(tmp_path, ["ww\tA B C", "w1\tA B C"])
    lex = load_lexicon(path)
    assert len(build_confusable_set(lex, "ww", 0)) == 0
    # a d=0 homophone is excluded even at d_max >= 1
    assert len(build_confusable_set(lex, "ww", 1)) == 0


def test_confusables_wake_word_absent(tmp_path):
    path = _write_lexicon(tmp_path, ["w1\tA B"])
    lex = load_lexicon(path)
    with pytest.raises(LexiconError, match="not in lexicon"):
        build_confusable_set(lex, "ww", 1)


def _toy_50_word_lexicon(tmp_path):
    rng = np.random.default_rng(13)
    lines = ["wakeword\tK AA L IY P S"]
    for i in range(49):
        pron = " ".join(random_seq(rng, 7))
        lines.append(f"word{i:02d}\t{pron}")
        if rng.random() < 0.3:  # some alternates
            lines.append(f"word{i:02d}\t{' '.join(random_seq(rng, 7))}")
    lines += [
        "wakeword\tK AA L IY S",  # a second wake pronunciation
        "near1\tK AA L IY P",
        "near2\tK AA L IY S T",  # within 1 of the second pronunciation only
        "near3\tK AA T IY P",
        "wordone\tS",
        "wordlong\tK AA L IY P S AA L IY P S K",  # longer than every other word
    ]
    words = sorted({line.split("\t")[0] for line in lines})
    counts = np.random.default_rng(14).permutation(len(words)) + 1
    freq_path = tmp_path / "freq.txt"
    freq_path.write_text("".join(f"{w}\t{c}\n" for w, c in zip(words, counts)))
    return load_lexicon(_write_lexicon(tmp_path, lines), freq_path)


@pytest.mark.parametrize("d_max", [1, 2])
def test_confusables_match_exhaustive_enumeration(tmp_path, d_max):
    lex = _toy_50_word_lexicon(tmp_path)
    wake_prons = lex.pronunciations("wakeword")
    assert len(wake_prons) == 2
    sizes = []
    for top_n in (len(lex), 20):  # every word, then a frequency cut
        cs = build_confusable_set(lex, "wakeword", d_max, top_n_frequent=top_n)
        expected = {}
        for word, prons in lex.entries.items():
            if word == "wakeword" or lex.frequency_rank[word] > top_n:
                continue
            d = min(recursive_distance(p, w) for p in prons for w in wake_prons)
            if 1 <= d <= d_max:
                expected[word] = d
        assert cs.members == expected
        sizes.append(len(expected))
    assert sizes[0] > sizes[1]


def test_confusables_monotone_in_d_max(tmp_path):
    lex = _toy_50_word_lexicon(tmp_path)
    s1 = build_confusable_set(lex, "wakeword", 1).words()
    s2 = build_confusable_set(lex, "wakeword", 2).words()
    s3 = build_confusable_set(lex, "wakeword", 3).words()
    assert s1 <= s2 <= s3


def test_confusables_monotone_in_top_n(tmp_path):
    lex_path = _write_lexicon(
        tmp_path, ["ww\tA B C", "w1\tA B D", "w2\tA C C", "w3\tA B"]
    )
    freq_path = tmp_path / "freq.txt"
    freq_path.write_text("w1\t100\nw2\t50\nw3\t10\nww\t999\n")
    lex = load_lexicon(lex_path, freq_path)
    sizes = [len(build_confusable_set(lex, "ww", 2, top_n_frequent=n)) for n in (1, 2, 3, 4)]
    assert sizes == sorted(sizes)
    small = build_confusable_set(lex, "ww", 2, top_n_frequent=2).words()
    large = build_confusable_set(lex, "ww", 2, top_n_frequent=4).words()
    assert small <= large


def test_confusables_file_round_trip(tmp_path):
    cs = ConfusableSet({"w1": 1, "w2": 2})
    path = tmp_path / "conf.tsv"
    write_confusables(cs, path)
    back = read_confusables(path, "ww")
    assert back.members == cs.members
