import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlab import corpus as C
from beamlab.errors import AlignmentError, FormatError

from helpers import corpus_from_token_pairs
from oracles import (bleu_corpus_reference, dictionary_map,
                     synthetic_pairs_reference, vocabulary_reference,
                     zipf_probs)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------- loading

def test_load_aligned_files(tmp_path):
    write_lines(tmp_path / "a.src", ["x y", "z", "w w w"])
    write_lines(tmp_path / "a.tgt", ["p q", "r", "s s s"])
    corp = C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert len(corp) == 3
    assert [p.pair_id for p in corp] == [0, 1, 2]
    assert corp[0].source == ["x", "y"]
    assert corp[2].target == ["s", "s", "s"]


def test_load_rejects_line_count_mismatch(tmp_path):
    write_lines(tmp_path / "a.src", ["a", "b", "c"])
    write_lines(tmp_path / "a.tgt", ["a", "b"])
    with pytest.raises(AlignmentError) as err:
        C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert "3" in str(err.value) and "2" in str(err.value)


def test_load_collapses_whitespace_runs(tmp_path):
    write_lines(tmp_path / "a.src", ["a  b"])
    write_lines(tmp_path / "a.tgt", ["c\td"])
    corp = C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert corp[0].source == ["a", "b"]
    assert corp[0].target == ["c", "d"]


def test_load_rejects_blank_line_with_line_number(tmp_path):
    write_lines(tmp_path / "a.src", ["a", "", "c"])
    write_lines(tmp_path / "a.tgt", ["a", "b", "c"])
    with pytest.raises(FormatError) as err:
        C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert "2" in str(err.value)


def test_load_rejects_reserved_markers_in_text(tmp_path):
    write_lines(tmp_path / "a.src", ["a </s> b"])
    write_lines(tmp_path / "a.tgt", ["c d e"])
    with pytest.raises(FormatError):
        C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")


def test_load_names_the_first_bad_line(tmp_path):
    write_lines(tmp_path / "a.src", ["a", "b <unk> </s>", "", "c"])
    write_lines(tmp_path / "a.tgt", ["a", "b", "c", "d"])
    with pytest.raises(FormatError) as err:
        C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert str(err.value) == "%s:2: reserved marker '<unk>' in text" \
        % (tmp_path / "a.src")
    write_lines(tmp_path / "a.src", ["a", "b", "c", "d"])
    write_lines(tmp_path / "a.tgt", ["a", "", "<s>", "d"])
    with pytest.raises(FormatError) as err:
        C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert str(err.value) == "%s:2: blank line" % (tmp_path / "a.tgt")


def test_loaded_sides_hold_ids_into_first_seen_tables(tmp_path):
    write_lines(tmp_path / "a.src", ["s9 s10", "s10 s1 s9"])
    write_lines(tmp_path / "a.tgt", ["x", "y x"])
    corp = C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert corp.source.table == ("s9", "s10", "s1")
    assert corp.source.ids.tolist() == [0, 1, 1, 2, 0]
    assert corp.source.offsets.tolist() == [0, 2, 5]
    assert corp.lengths("target").tolist() == [1, 2]
    assert corp.provenance is None


# characters that str.splitlines takes for line breaks; in a file they sit
# inside a line, and str.split takes them for whitespace
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
def test_lines_end_only_at_line_breaks(tmp_path, char):
    write_lines(tmp_path / "a.src", ["a%sb" % char, "c"])
    write_lines(tmp_path / "a.tgt", ["x y%sz" % char, "w"])
    assert C.read_lines(tmp_path / "a.src") == ["a%sb" % char, "c"]
    # two pairs, matched line for line
    corp = C.load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")
    assert [(p.source, p.target) for p in corp] == [
        (["a", "b"], ["x", "y", "z"]), (["c"], ["w"])]


def test_crlf_and_cr_end_one_line_each(tmp_path):
    for ends in (b"\r\n", b"\r"):
        (tmp_path / "a.src").write_bytes(b"a b%sc%s" % (ends, ends))
        (tmp_path / "a.tgt").write_bytes(b"x%s%sy" % (ends, ends))
        assert C.read_lines(tmp_path / "a.src") == ["a b", "c"]
        assert C.read_lines(tmp_path / "a.tgt") == ["x", "", "y"]
    assert C.split_lines("") == []
    assert C.split_lines("\n") == [""]
    assert C.split_lines("a\n\nb") == ["a", "", "b"]


def test_missing_file_is_data_error(tmp_path):
    write_lines(tmp_path / "a.src", ["a"])
    with pytest.raises(FormatError):
        C.load_corpus(tmp_path / "a.src", tmp_path / "missing.tgt")


# ---------------------------------------------------------------- saving

def test_save_then_load_round_trip(tmp_path):
    pairs = [(["a", "b"], ["x"]), (["c"], ["y", "z", "y"])]
    corp = corpus_from_token_pairs(pairs)
    C.save_corpus(corp, tmp_path / "o.src", tmp_path / "o.tgt")
    back = C.load_corpus(tmp_path / "o.src", tmp_path / "o.tgt")
    assert [(p.source, p.target) for p in back] == pairs


def test_save_empty_corpus_writes_empty_files(tmp_path):
    corp = corpus_from_token_pairs([])
    C.save_corpus(corp, tmp_path / "o.src", tmp_path / "o.tgt")
    assert (tmp_path / "o.src").read_text() == ""
    assert (tmp_path / "o.tgt").read_text() == ""
    assert len(C.load_corpus(tmp_path / "o.src", tmp_path / "o.tgt")) == 0


def test_save_unicode_round_trip(tmp_path):
    pairs = [(["héllo", "日本"], ["ß", "ök"])]
    corp = corpus_from_token_pairs(pairs)
    C.save_corpus(corp, tmp_path / "o.src", tmp_path / "o.tgt")
    assert (tmp_path / "o.src").read_bytes() == "héllo 日本\n".encode("utf-8")
    back = C.load_corpus(tmp_path / "o.src", tmp_path / "o.tgt")
    assert [(p.source, p.target) for p in back] == pairs


def test_save_round_trip_of_tokens_holding_nul(tmp_path):
    pairs = [(["a\x00", "b"], ["\x00"]), (["b"], ["c\x00d", "\x00"])]
    corp = corpus_from_token_pairs(pairs)
    C.save_corpus(corp, tmp_path / "o.src", tmp_path / "o.tgt")
    assert (tmp_path / "o.tgt").read_bytes() == b"\x00\nc\x00d \x00\n"
    back = C.load_corpus(tmp_path / "o.src", tmp_path / "o.tgt")
    assert [(p.source, p.target) for p in back] == pairs


token_strategy = st.text(alphabet="abzé日ß0_\x00", min_size=1, max_size=5)
sentence_strategy = st.lists(token_strategy, min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(sentence_strategy, sentence_strategy), max_size=12),
       st.integers(min_value=1, max_value=8))
def test_round_trip_identity_property(tmp_path_factory, pairs, slice_tokens):
    tmp = tmp_path_factory.mktemp("rt")
    corp = corpus_from_token_pairs(pairs)
    # small slices, so that a save spans several of them
    with mock.patch.object(C, "_ROWS_BYTES_SLICE", slice_tokens):
        C.save_corpus(corp, tmp / "o.src", tmp / "o.tgt")
    assert (tmp / "o.src").read_bytes() == "".join(
        " ".join(src) + "\n" for src, _ in pairs).encode("utf-8")
    back = C.load_corpus(tmp / "o.src", tmp / "o.tgt")
    assert [(p.source, p.target) for p in back] == [(list(s), list(t)) for s, t in pairs]


# ---------------------------------------------------------------- vocabulary

def test_vocabulary_orders_by_frequency_then_token():
    corp = corpus_from_token_pairs([(["q"], ["a", "b"]), (["q"], ["a"])])
    vocab = C.build_vocabulary(corp, "target", min_count=1)
    assert vocab.id("a") == 3
    assert vocab.id("b") == 4


def test_vocabulary_min_count_filters():
    corp = corpus_from_token_pairs([(["q"], ["a", "b"]), (["q"], ["a"])])
    vocab = C.build_vocabulary(corp, "target", min_count=2)
    assert vocab.content_tokens() == ["a"]
    assert vocab.id("b") == C.UNK_ID


def test_vocabulary_breaks_frequency_ties_lexicographically():
    corp = corpus_from_token_pairs([(["q"], ["bb", "aa"])])
    vocab = C.build_vocabulary(corp, "target")
    assert vocab.id("aa") == 3
    assert vocab.id("bb") == 4


def test_vocabulary_reserved_ids_fixed():
    corp = corpus_from_token_pairs([(["q"], ["a"])])
    vocab = C.build_vocabulary(corp, "source")
    assert vocab.id(C.BOS) == 0
    assert vocab.id(C.EOS) == 1
    assert vocab.id(C.UNK) == 2
    assert vocab.id("never-seen") == 2
    assert vocab.token(3) == "q"
    assert vocab.decode(vocab.encode(["q", "nope"])) == ["q", C.UNK]


def test_vocabulary_sorts_by_string_not_first_seen_order():
    corp = corpus_from_token_pairs([(["s9", "s10", "s2"], ["x"]),
                                      (["s10", "s9"], ["x"])])
    vocab = C.build_vocabulary(corp, "source")
    assert vocab.content_tokens() == ["s10", "s9", "s2"]


def test_encode_side_maps_rare_tokens_to_unk():
    pairs = [(["q"], ["s9", "s10", "s9"]), (["q"], ["s2", "s10", "s1"])]
    corp = corpus_from_token_pairs(pairs)
    vocab = C.build_vocabulary(corp, "target", min_count=2)
    assert vocab.content_tokens() == ["s10", "s9"]
    assert vocab.encode_side(corp.target).tolist() == \
        [vocab.id(t) for _, tgt in pairs for t in tgt] == [4, 3, 4, 2, 3, 2]


pool_strategy = st.sampled_from(["s1", "s2", "s9", "s10", "s11", "a", "B"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(pool_strategy, min_size=1, max_size=6),
                          st.lists(pool_strategy, min_size=1, max_size=6)),
                min_size=1, max_size=10),
       st.integers(min_value=0, max_value=3),
       st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=10))
def test_vocabulary_and_encoding_match_list_reference(pairs, min_count,
                                                      picks):
    # a resampled corpus keeps the whole token table, so the tokens of
    # pairs it did not pick are in the table with count 0
    picks = [i % len(pairs) for i in picks]
    corp = C.concatenated(corpus_from_token_pairs(pairs), picks,
                          np.arange(len(picks) + 1))
    pairs = [pairs[i] for i in picks]
    for which, index in (("source", 0), ("target", 1)):
        sentences = [pair[index] for pair in pairs]
        vocab = C.build_vocabulary(corp, which, min_count)
        assert vocab.content_tokens() == vocabulary_reference(sentences,
                                                              min_count)
        assert vocab.encode_side(corp.arrays(which)).tolist() == \
            [vocab.id(t) for s in sentences for t in s]
        assert corp.side(which) == sentences
        assert corp.lengths(which).tolist() == [len(s) for s in sentences]


def test_pair_views_index_like_a_list():
    pairs = [(["a"], ["x"]), (["b", "c"], ["y"]), (["d"], ["z", "z"])]
    corp = corpus_from_token_pairs(pairs)
    assert corp[-1] == C.SentencePair(["d"], ["z", "z"], 2)
    assert list(corp) == [corp[i] for i in range(3)]
    with pytest.raises(IndexError):
        corp[3]


# ---------------------------------------------------------------- histograms

def test_histogram_hand_counts():
    corp = corpus_from_token_pairs(
        [(["s"], ["a", "a"]), (["s"], ["b", "b"]), (["s"], ["c"] * 6)])
    hist = C.length_histogram(corp, "target", bucket_width=5)
    assert hist.counts == [2, 1]
    assert math.isclose(hist.mean, 10 / 3, rel_tol=0, abs_tol=1e-12)
    assert hist.total == 3


def test_histogram_width_one_single_sentence():
    corp = corpus_from_token_pairs([(["s"], ["x"] * 7)])
    hist = C.length_histogram(corp, "target", bucket_width=1)
    assert hist.counts[7] == 1
    assert sum(hist.counts) == 1
    assert hist.mean == 7.0


def test_histogram_geometric_law_mean():
    cfg = C.SynthConfig(vocab_size=20, zipf_exponent=1.2,
                        length_law=C.parse_length_law("geometric(0.05)"),
                        noise_prob=0.0, train_size=100_000, dev_size=1,
                        test_size=1, seed=11)
    splits = C.generate_synthetic(cfg)
    hist = C.length_histogram(splits["train"], "target", bucket_width=5)
    assert abs(hist.mean - 20.0) / 20.0 < 0.03
    assert hist.total == 100_000


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=9))
def test_histogram_total_stable_under_bucket_width(lengths, width):
    corp = corpus_from_token_pairs([(["s"], ["t"] * n) for n in lengths])
    hist = C.length_histogram(corp, "target", bucket_width=width)
    assert sum(hist.counts) == hist.total == len(lengths)
    assert math.isclose(hist.mean, sum(lengths) / len(lengths))


def test_histogram_csv_format():
    corp = corpus_from_token_pairs([(["s"], ["a", "a"]), (["s"], ["b"] * 6)])
    hist = C.length_histogram(corp, "target", bucket_width=5)
    lines = hist.to_csv().splitlines()
    assert lines[0] == "bucket_start,bucket_end,count"
    assert lines[1] == "0,5,1"
    assert lines[2] == "5,10,1"
    assert lines[-1] == "# mean=%r total=2" % hist.mean


# ---------------------------------------------------------------- length laws

def test_parse_length_law_forms():
    assert C.parse_length_law("geometric(0.1)") == ("geometric", 0.1)
    assert C.parse_length_law("negative_binomial(3, 0.4)") == ("negative_binomial", 3.0, 0.4)
    assert C.parse_length_law("uniform(4, 16)") == ("uniform", 4, 16)


def test_parse_length_law_rejects_garbage():
    for bad in ["geometric(0)", "geometric(1.5)", "uniform(5,2)", "uniform(0,4)",
                "normal(3)", "geometric", "negative_binomial(-1,0.5)",
                "negative_binomial(nan,0.5)", "negative_binomial(inf,0.5)",
                "geometric(nan)"]:
        with pytest.raises(ValueError):
            C.parse_length_law(bad)


def test_law_means():
    assert C.law_mean(("geometric", 0.05)) == 20.0
    assert C.law_mean(("uniform", 4, 16)) == 10.0
    # shifted by one so every draw is a valid sentence length
    assert C.law_mean(("negative_binomial", 2, 0.5)) == 1 + 2 * 0.5 / 0.5


def test_draw_lengths_negative_binomial_positive():
    rng = np.random.default_rng(0)
    draws = C.draw_lengths(("negative_binomial", 2, 0.5), 10_000, rng)
    assert draws.min() >= 1
    mean = C.law_mean(("negative_binomial", 2, 0.5))
    assert abs(draws.mean() - mean) / mean < 0.05


# ---------------------------------------------------------------- synthesis

def small_cfg(**kw):
    base = dict(vocab_size=30, zipf_exponent=1.2,
                length_law=C.parse_length_law("uniform(2, 9)"),
                noise_prob=0.0, train_size=400, dev_size=50, test_size=60,
                seed=5)
    base.update(kw)
    return C.SynthConfig(**base)


def test_synthetic_noise_free_is_dictionary_image():
    cfg = small_cfg()
    splits = C.generate_synthetic(cfg)
    mapping = dictionary_map(cfg)
    for split in splits.values():
        for pair in split:
            assert len(pair.source) == len(pair.target)
            assert [mapping[s] for s in pair.source] == pair.target


def test_synthetic_noise_free_dictionary_bleu_is_100():
    cfg = small_cfg()
    splits = C.generate_synthetic(cfg)
    mapping = dictionary_map(cfg)
    hyps = [[mapping[s] for s in p.source] for p in splits["test"]]
    refs = [p.target for p in splits["test"]]
    score, _, _, _, _ = bleu_corpus_reference(hyps, refs)
    assert score == 100.0


def test_synthetic_same_seed_identical():
    a = C.generate_synthetic(small_cfg(noise_prob=0.3))
    b = C.generate_synthetic(small_cfg(noise_prob=0.3))
    for split in ("train", "dev", "test"):
        assert [(p.source, p.target) for p in a[split]] == \
               [(p.source, p.target) for p in b[split]]


def test_synthetic_different_seed_differs():
    a = C.generate_synthetic(small_cfg())
    b = C.generate_synthetic(small_cfg(seed=6))
    assert [(p.source, p.target) for p in a["train"]] != \
           [(p.source, p.target) for p in b["train"]]


def test_synthetic_sizes_and_ids():
    splits = C.generate_synthetic(small_cfg())
    assert len(splits["train"]) == 400
    assert len(splits["dev"]) == 50
    assert len(splits["test"]) == 60
    for split in splits.values():
        assert [p.pair_id for p in split] == list(range(len(split)))


def test_synthetic_zipf_frequency_ratio():
    cfg = C.SynthConfig(vocab_size=50, zipf_exponent=1.1,
                        length_law=C.parse_length_law("geometric(0.1)"),
                        noise_prob=0.0, train_size=10_000, dev_size=1,
                        test_size=1, seed=3)
    splits = C.generate_synthetic(cfg)
    counts = Counter(tok for p in splits["train"] for tok in p.source)
    (_, top), (_, second) = counts.most_common(2)
    probs = zipf_probs(1.1, 50)
    expected = probs[0] / probs[1]
    assert abs(top / second - expected) / expected < 0.10


def test_synthetic_test_split_can_use_longer_law():
    cfg = small_cfg(length_law=C.parse_length_law("uniform(2, 4)"),
                    test_length_law=C.parse_length_law("uniform(30, 40)"),
                    train_size=200, test_size=200)
    splits = C.generate_synthetic(cfg)
    train_mean = C.length_histogram(splits["train"], "target", 5).mean
    test_mean = C.length_histogram(splits["test"], "target", 5).mean
    assert train_mean <= 4 and test_mean >= 30


def test_synthetic_noise_rate_close_to_config():
    cfg = small_cfg(noise_prob=0.25, train_size=4000)
    splits = C.generate_synthetic(cfg)
    mapping = dictionary_map(cfg)
    flips = total = 0
    for pair in splits["train"]:
        for s, t in zip(pair.source, pair.target):
            total += 1
            flips += mapping[s] != t
    # replacement may redraw the original token, so the observed flip rate
    # sits a bit under noise_prob
    expected = 0.25 * (1 - 1 / cfg.vocab_size)
    assert abs(flips / total - expected) < 0.02


def test_synthetic_terminal_token_mode():
    cfg = small_cfg(terminal_token=".", noise_prob=0.5, train_size=2000)
    splits = C.generate_synthetic(cfg)
    mapping = dictionary_map(cfg)
    assert mapping["."] == "."
    for pair in splits["train"]:
        assert pair.source[-1] == "." and pair.target[-1] == "."
        assert "." not in pair.source[:-1]
        # noise never touches the terminal and only draws word tokens
        assert all(t != "." for t in pair.target[:-1])
    lengths = [len(p.source) for p in splits["train"]]
    assert min(lengths) >= 2 and max(lengths) <= 9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=14),
       st.sampled_from([None, ".", "s1", "t0"]),
       st.sampled_from([("uniform", 1, 5), ("geometric", 0.4),
                        ("negative_binomial", 2, 0.5)]),
       st.sampled_from([0.0, 0.3]),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=2 ** 31))
def test_synthetic_pairs_match_list_reference(vocab_size, terminal, law,
                                              noise, size, seed):
    cfg = C.SynthConfig(vocab_size=vocab_size, zipf_exponent=1.1,
                        length_law=law, noise_prob=noise, train_size=size,
                        dev_size=1, test_size=3, seed=seed,
                        terminal_token=terminal)
    got = C.generate_synthetic(cfg)
    for name, pairs in synthetic_pairs_reference(cfg).items():
        assert [(p.source, p.target) for p in got[name]] == pairs


def test_synthetic_terminal_named_like_a_word_is_one_token():
    splits = C.generate_synthetic(small_cfg(terminal_token="s1"))
    side = splits["train"].source
    assert side.table.count("s1") == 1
    assert all(p.source[-1] == "s1" for p in splits["train"])


def test_synthetic_validates_config():
    with pytest.raises(ValueError):
        C.generate_synthetic(small_cfg(vocab_size=1))
    with pytest.raises(ValueError):
        C.generate_synthetic(small_cfg(noise_prob=1.5))
    with pytest.raises(ValueError):
        C.generate_synthetic(small_cfg(train_size=0))
    # refused when the config is made: a NaN exponent would reach numpy's
    # choice as NaN probabilities, and a negative seed its seed sequence
    for zipf in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="zipf_exponent"):
            small_cfg(zipf_exponent=zipf)
    with pytest.raises(ValueError, match="seed"):
        small_cfg(seed=-1)


def test_synthetic_sizes_are_capped():
    # refused when the config is made, before anything is drawn
    with pytest.raises(ValueError, match="split sizes"):
        small_cfg(test_size=C.MAX_SPLIT_SIZE + 1)
    with pytest.raises(ValueError, match="vocab_size"):
        small_cfg(vocab_size=C.MAX_VOCAB_SIZE + 1)
    small_cfg(train_size=C.MAX_SPLIT_SIZE, vocab_size=C.MAX_VOCAB_SIZE)
