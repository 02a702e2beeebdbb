import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamlab.analysis as A
import beamlab.metrics as X
from beamlab.errors import DataError
from beamlab.fileio import format_csv


def random_sentence(rng, vocab, lo=1, hi=12):
    return [rng.choice(vocab) for _ in range(rng.randint(lo, hi))]


def tables(hyps_small, hyps_large, refs, metric="bleu"):
    """The (small, large) sentence tables that classify and category_report
    read."""
    return (X.sentence_table(hyps_small, refs, metric),
            X.sentence_table(hyps_large, refs, metric))


# ------------------------------------------------------------ prefix relation

def test_prefix_quote_example():
    short = "i can".split()
    long = "i can do this tomorrow if you wait .".split()
    assert A.is_prefix_modulo_eos(short, long)


def test_prefix_is_reflexive():
    rng = random.Random(0)
    vocab = ["a", "b", "."]
    for _ in range(50):
        s = random_sentence(rng, vocab)
        assert A.is_prefix_modulo_eos(s, s)


def test_prefix_strips_one_trailing_period_from_short_side_only():
    assert A.is_prefix_modulo_eos("i can .".split(), "i can do".split())
    # only a single trailing period is forgiven
    assert not A.is_prefix_modulo_eos("i can . .".split(), "i can do".split())
    # stripping never applies to the long side
    assert not A.is_prefix_modulo_eos("i can do".split(), "i can .".split())


def test_prefix_of_empty_and_period_only():
    assert A.is_prefix_modulo_eos([], ["a", "b"])
    assert A.is_prefix_modulo_eos(["."], ["a", "b"])
    assert not A.is_prefix_modulo_eos(["a"], [])


def test_prefix_rejects_non_prefixes():
    assert not A.is_prefix_modulo_eos(["a", "b"], ["a", "c", "b"])
    assert not A.is_prefix_modulo_eos(["b"], ["a", "b"])


def test_prefix_survives_extending_the_long_side():
    rng = random.Random(1)
    vocab = ["a", "b", "c", "."]
    for _ in range(100):
        long = random_sentence(rng, vocab)
        short = long[:rng.randint(0, len(long))]
        if rng.random() < 0.5:
            short = short + ["."]
        assert A.is_prefix_modulo_eos(short, long)
        assert A.is_prefix_modulo_eos(short, long + [rng.choice(vocab)])


# -------------------------------------------------------------- classification

def test_classify_equal_hypotheses_are_improved():
    refs = [["a", "b", "c"], ["d", "e"]]
    hyps = [["a", "x", "c"], ["d", "e"]]
    large = [list(h) for h in hyps]
    assert A.classify(hyps, large, *tables(hyps, large, refs)) == \
        ["Improved", "Improved"]


def test_classify_degraded_prefix():
    ref = ["a", "b", "c", "d", "e"]
    small = ["a", "b", "c", "d", "e"]
    large = ["a", "b"]
    assert A.classify([small], [large],
                      *tables([small], [large], [ref])) == ["Prefix"]


def test_classify_other_drop():
    ref = ["a", "b", "c", "d"]
    small = ["a", "b", "c", "d"]
    large = ["z", "b", "c", "z"]
    assert A.classify([small], [large],
                      *tables([small], [large], [ref])) == ["OtherDrop"]


def test_classify_improvement_wins_over_prefix_shape():
    # the large-beam output is a prefix of the small-beam one, but it matches
    # the reference better, so the precedence rule files it under Improved
    ref = ["a", "b"]
    small = ["a", "b", "x", "y", "z"]
    large = ["a", "b"]
    assert A.classify([small], [large],
                      *tables([small], [large], [ref])) == ["Improved"]


def test_classify_wer_direction():
    ref = ["a", "b", "c", "d"]
    worse = ["a", "x", "c", "d"]
    perfect = list(ref)
    def classify(small, large):
        return A.classify(small, large, *tables(small, large, [ref], "wer"))

    assert classify([worse], [perfect]) == ["Improved"]
    assert classify([perfect], [worse]) == ["OtherDrop"]
    assert classify([perfect], [["a", "b"]]) == ["Prefix"]


def test_classify_is_exhaustive_and_deterministic():
    rng = random.Random(2)
    vocab = ["a", "b", "c", "."]
    refs = [random_sentence(rng, vocab, 2, 8) for _ in range(60)]
    small = [random_sentence(rng, vocab, 1, 8) for _ in range(60)]
    large = [random_sentence(rng, vocab, 1, 8) for _ in range(60)]
    cats = A.classify(small, large, *tables(small, large, refs))
    assert len(cats) == 60
    assert set(cats) <= set(A.CATEGORIES)
    assert cats == A.classify(small, large, *tables(small, large, refs))


def test_classify_validates_inputs():
    two = [["a"], ["b"]]
    with pytest.raises(DataError):
        A.classify([["a"]], [["a"]], *tables(two, two, two))
    with pytest.raises(ValueError):
        A.classify([["a"]], [["a"]], *tables([["a"]], [["a"]], [["a"]],
                                             "chrf"))
    # the two tables must score one metric
    bleu, _ = tables([["a"]], [["a"]], [["a"]])
    _, wer = tables([["a"]], [["a"]], [["a"]], "wer")
    with pytest.raises(ValueError):
        A.classify([["a"]], [["a"]], bleu, wer)


# ------------------------------------------------------------- category report

def test_contribution_matches_reference_degradation_rows():
    # weighted-difference accounting reproduces fixed reference rows to
    # their printed precision
    assert A.contribution(38.71, 0.13, 0.03) == pytest.approx(-1.16, abs=0.01)
    assert A.contribution(22.9, 86.5, 0.009) == pytest.approx(0.57, abs=0.01)
    assert A.contribution(53.8, 8.72, 0.03) == pytest.approx(-1.35, abs=0.01)


def _random_case(rng, n, vocab):
    refs = [random_sentence(rng, vocab, 2, 9) for _ in range(n)]
    small = [list(r) for r in refs]
    large = []
    for r in refs:
        roll = rng.random()
        if roll < 0.4:
            large.append(list(r))
        elif roll < 0.7:
            large.append(r[:rng.randint(0, len(r) - 1)])
        else:
            large.append(random_sentence(rng, vocab, 1, 9))
    return small, large, refs


def test_category_report_fractions_and_counts():
    rng = random.Random(3)
    small, large, refs = _random_case(rng, 80, ["a", "b", "c", "d"])
    pair = tables(small, large, refs)
    cats = A.classify(small, large, *pair)
    rep = A.category_report(cats, small, large, *pair)
    assert rep["n_sentences"] == 80
    rows = rep["categories"]
    assert [r["category"] for r in rows] == list(A.CATEGORIES)
    assert sum(r["count"] for r in rows) == 80
    assert sum(r["fraction"] for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_category_report_rows_match_direct_recomputation():
    rng = random.Random(4)
    small, large, refs = _random_case(rng, 50, ["a", "b", "c"])
    pair = tables(small, large, refs, "wer")
    cats = A.classify(small, large, *pair)
    rep = A.category_report(cats, small, large, *pair)
    for row in rep["categories"]:
        members = [i for i, c in enumerate(cats) if c == row["category"]]
        assert row["count"] == len(members)
        if not members:
            continue
        ms = X.corpus_wer([small[i] for i in members], [refs[i] for i in members])
        ml = X.corpus_wer([large[i] for i in members], [refs[i] for i in members])
        assert row["metric_small"] == pytest.approx(ms, abs=1e-12)
        assert row["metric_large"] == pytest.approx(ml, abs=1e-12)
        assert row["mean_len_small"] == pytest.approx(
            sum(len(small[i]) for i in members) / len(members), abs=1e-12)
        assert row["contribution"] == pytest.approx(
            (ml - ms) * row["fraction"], abs=1e-12)


def test_category_report_empty_category_is_null():
    refs = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    hyps = [list(r) for r in refs]
    pair = tables(hyps, hyps, refs)
    cats = A.classify(hyps, hyps, *pair)
    assert cats == ["Improved", "Improved"]
    rep = A.category_report(cats, hyps, hyps, *pair)
    by_cat = {r["category"]: r for r in rep["categories"]}
    for cat in ("Prefix", "OtherDrop"):
        row = by_cat[cat]
        assert row["count"] == 0 and row["fraction"] == 0.0
        assert row["metric_small"] is None and row["metric_large"] is None
        assert row["mean_len_small"] is None and row["mean_len_large"] is None
        assert row["contribution"] == 0.0
        assert row["length_contribution"] == 0.0


def test_length_contribution_identity_is_exact():
    rng = random.Random(5)
    small, large, refs = _random_case(rng, 70, ["a", "b", "c", "d", "e"])
    pair = tables(small, large, refs)
    rep = A.category_report(A.classify(small, large, *pair), small, large,
                            *pair)
    mean_small = sum(len(h) for h in small) / len(small)
    mean_large = sum(len(h) for h in large) / len(large)
    total = sum(r["length_contribution"] for r in rep["categories"])
    assert total == pytest.approx(mean_large - mean_small, abs=1e-9)


def test_wer_contribution_identity_under_token_reweighting():
    # with fractions replaced by reference-token shares, the per-category
    # micro WER differences add up to the corpus WER difference exactly
    rng = random.Random(6)
    small, large, refs = _random_case(rng, 60, ["a", "b", "c"])
    pair = tables(small, large, refs, "wer")
    cats = A.classify(small, large, *pair)
    rep = A.category_report(cats, small, large, *pair)
    total_tokens = sum(len(r) for r in refs)
    acc = 0.0
    for row in rep["categories"]:
        if row["count"] == 0:
            continue
        members = [i for i, c in enumerate(cats) if c == row["category"]]
        share = sum(len(refs[i]) for i in members) / total_tokens
        acc += (row["metric_large"] - row["metric_small"]) * share
    want = X.corpus_wer(large, refs) - X.corpus_wer(small, refs)
    assert acc == pytest.approx(want, abs=1e-9)


def test_bleu_contribution_residual_is_finite_and_logged_shape():
    # corpus BLEU is not a per-sentence average, so the identity holds only
    # approximately; the report must still be well-formed
    rng = random.Random(7)
    small, large, refs = _random_case(rng, 40, ["a", "b", "c", "d"])
    pair = tables(small, large, refs)
    rep = A.category_report(A.classify(small, large, *pair), small, large,
                            *pair)
    total = sum(r["contribution"] for r in rep["categories"])
    assert math.isfinite(total)


# --------------------------------------------------------------- length report

def test_length_report_single_hypothesis():
    rep = A.length_report({4: [["w"] * 7]})
    assert rep["means"] == {4: 7.0}


def test_length_report_equal_sets_have_equal_means():
    hyps = [["a", "b"], ["c"], ["d", "e", "f"]]
    rep = A.length_report({1: hyps, 200: [list(h) for h in hyps]})
    assert rep["means"][1] == rep["means"][200] == pytest.approx(2.0)


def test_length_report_validates():
    with pytest.raises(DataError):
        A.length_report({1: [["a"]], 2: [["a"], ["b"]]})


# -------------------------------------------------------------------- buckets

def test_bucket_single_infinite_edge_equals_corpus_metric():
    rng = random.Random(8)
    small, _, refs = _random_case(rng, 30, ["a", "b", "c"])
    rows = A.bucket_quality(X.sentence_table(small, refs), (math.inf,))
    assert len(rows) == 1
    b = rows[0]
    assert (b["bucket_low"], b["bucket_high"], b["count"]) == (0, math.inf, 30)
    assert b["metric"] == pytest.approx(X.corpus_bleu(small, refs),
                                        abs=1e-12)


def test_bucket_boundaries_are_left_open_right_closed():
    refs = [["r"] * 10, ["r"] * 11, ["r"] * 20, ["r"] * 21]
    hyps = [list(r) for r in refs]
    rows = A.bucket_quality(X.sentence_table(hyps, refs), (10, 20))
    assert [(b["bucket_low"], b["bucket_high"]) for b in rows] == \
        [(0, 10), (10, 20), (20, math.inf)]
    assert [b["count"] for b in rows] == [1, 2, 1]


def test_bucket_counts_partition_the_corpus():
    rng = random.Random(9)
    refs = [random_sentence(rng, ["a", "b"], 1, 70) for _ in range(120)]
    hyps = [random_sentence(rng, ["a", "b"], 1, 70) for _ in range(120)]
    rows = A.bucket_quality(X.sentence_table(hyps, refs))
    assert tuple(b["bucket_high"] for b in rows[:-1]) == A.DEFAULT_BUCKET_EDGES
    assert sum(b["count"] for b in rows) == 120
    for b in rows:
        members = [i for i, r in enumerate(refs)
                   if b["bucket_low"] < len(r) <= b["bucket_high"]]
        assert b["count"] == len(members)


def test_bucket_empty_bucket_is_null():
    refs = [["r"] * 3]
    rows = A.bucket_quality(X.sentence_table([["r"] * 3], refs), (10, 20))
    assert rows[0]["metric"] is not None
    assert rows[1]["count"] == 0 and rows[1]["metric"] is None
    assert rows[2]["count"] == 0 and rows[2]["metric"] is None


def test_bucket_metric_matches_member_corpus_metric():
    rng = random.Random(10)
    small, _, refs = _random_case(rng, 60, ["a", "b", "c", "d"])
    rows = A.bucket_quality(X.sentence_table(small, refs, "wer"), (4, 8))
    for b in rows:
        members = [i for i, r in enumerate(refs)
                   if b["bucket_low"] < len(r) <= b["bucket_high"]]
        if members:
            want = X.corpus_wer([small[i] for i in members],
                                [refs[i] for i in members])
            assert b["metric"] == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=20),
       st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True),
       st.booleans(), st.sampled_from(["bleu", "wer"]))
def test_bucket_counts_sum_to_the_pairs_or_refuse_an_empty_reference(
        lengths, edges, open_last, metric):
    hyps = [["a"] * n for n, _ in lengths]
    refs = [["a", "b"] * (m // 2) + ["b"] * (m % 2) for _, m in lengths]
    edges = tuple(sorted(edges)) + ((math.inf,) if open_last else ())
    table = X.sentence_table(hyps, refs, metric)
    if any(m == 0 for _, m in lengths):
        with pytest.raises(DataError, match="reference sentence is empty"):
            A.bucket_quality(table, edges)
    else:
        rows = A.bucket_quality(table, edges)
        assert sum(b["count"] for b in rows) == len(lengths)


def test_bucket_validates():
    table = X.sentence_table([["a"]], [["a", "b"]])
    with pytest.raises(ValueError):
        A.bucket_quality(table, (20, 10))
    with pytest.raises(ValueError):
        A.bucket_quality(table, (0, 10))
    with pytest.raises(ValueError):
        A.bucket_quality(table, ())
    with pytest.raises(DataError):
        A.bucket_quality(X.sentence_table([], []))


# -------------------------------------------------------------- serialization

def test_category_report_csv_shape_and_round_trip():
    rng = random.Random(11)
    small, large, refs = _random_case(rng, 30, ["a", "b", "c"])
    pair = tables(small, large, refs)
    rows = A.category_report(A.classify(small, large, *pair), small, large,
                             *pair)["categories"]
    text = format_csv(A.CATEGORY_COLUMNS, rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("category,count,fraction,metric_small,metric_large,"
                        "mean_len_small,mean_len_large,contribution,"
                        "length_contribution")
    assert len(lines) == 1 + len(A.CATEGORIES)
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert cells[0] == row["category"]
        assert int(cells[1]) == row["count"]
        assert float(cells[2]) == row["fraction"]  # repr round-trips exactly
        if row["metric_small"] is None:
            assert cells[3] == ""
        else:
            assert float(cells[3]) == row["metric_small"]


def test_bucket_report_csv_spells_out_infinity():
    refs = [["r"] * 3, ["r"] * 15]
    hyps = [list(r) for r in refs]
    text = format_csv(A.BUCKET_COLUMNS,
                      A.bucket_quality(X.sentence_table(hyps, refs), (10,)))
    lines = text.strip().split("\n")
    assert lines[0] == "bucket_low,bucket_high,count,metric"
    assert len(lines) == 3
    last = lines[2].split(",")
    assert float(last[1]) == math.inf
    assert int(last[2]) == 1


def test_report_json_blobs():
    rng = random.Random(12)
    small, large, refs = _random_case(rng, 20, ["a", "b"])
    pair = tables(small, large, refs)
    cats = A.classify(small, large, *pair)
    cblob = A.category_report(cats, small, large, *pair)
    assert cblob["metric"] == "bleu"
    assert cblob["n_sentences"] == 20
    assert [r["category"] for r in cblob["categories"]] == list(A.CATEGORIES)
    assert [r["count"] / 20 for r in cblob["categories"]] == \
        [r["fraction"] for r in cblob["categories"]]
    assert [r["count"] for r in cblob["categories"]] == \
        [cats.count(c) for c in A.CATEGORIES]
    rows = A.bucket_quality(pair[0], (5,))
    # the unbounded edge is inf in the rows; the writers of JSON spell it
    # null (test_cli.py pins both spellings)
    assert rows[-1]["bucket_high"] == math.inf
    assert rows[0]["bucket_high"] == 5
