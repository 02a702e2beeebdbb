import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamlab.metrics as X
from beamlab.errors import DataError
from oracles import (bleu_corpus_reference, levenshtein_reference,
                     sentence_bleu_reference, wer_reference)


def random_sentence(rng, vocab, lo=1, hi=12):
    return [rng.choice(vocab) for _ in range(rng.randint(lo, hi))]


def random_pair(rng, vocab):
    """A hypothesis correlated with its reference, so precisions are varied
    rather than uniformly near zero."""
    ref = random_sentence(rng, vocab)
    hyp = list(ref)
    for _ in range(rng.randint(0, 3)):
        op = rng.random()
        if op < 0.4 and hyp:
            hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
        elif op < 0.7 and hyp:
            del hyp[rng.randrange(len(hyp))]
        else:
            hyp.insert(rng.randint(0, len(hyp)), rng.choice(vocab))
    return hyp, ref


# ---------------------------------------------------------------- corpus BLEU

def test_corpus_bleu_identity():
    hyps = [["a", "b", "c", "d", "e"], ["d", "e"]]
    assert X.corpus_bleu(hyps, [list(s) for s in hyps]) == 100.0
    b = X.sentence_table(hyps, [list(s) for s in hyps], "bleu").report()
    assert b["score"] == 100.0
    assert b["breakdown"]["brevity_penalty"] == 1.0
    assert b["breakdown"]["precisions"] == [1.0, 1.0, 1.0, 1.0]
    assert (b["breakdown"]["hyp_len"], b["breakdown"]["ref_len"]) == (7, 7)


def test_corpus_bleu_all_empty_hypotheses():
    assert X.corpus_bleu([[], []], [["a"], ["b", "c"]]) == 0.0
    b = X.sentence_table([[], []], [["a"], ["b", "c"]], "bleu").report()
    assert b["score"] == 0.0
    assert b["breakdown"]["hyp_len"] == 0


def test_corpus_bleu_clipping():
    # "the" occurs once in the reference, so four hypothesis copies clip to
    # a single credited match; no bigram matches, hence score 0
    b = X.sentence_table([["the", "the", "the", "the"]], [["the", "cat"]],
                         "bleu").report()
    assert b["breakdown"]["precisions"][0] == pytest.approx(1 / 4)
    assert b["breakdown"]["precisions"][1] == 0.0
    assert b["score"] == 0.0


def test_corpus_bleu_positive_hand_value():
    b = X.sentence_table([["a", "b", "c", "d", "e"]],
                         [["a", "b", "c", "d", "f"]], "bleu").report()
    assert b["breakdown"]["precisions"] == pytest.approx(
        [4 / 5, 3 / 4, 2 / 3, 1 / 2])
    assert b["breakdown"]["brevity_penalty"] == 1.0
    assert b["score"] == pytest.approx(66.8740304976422, rel=1e-12)


def test_corpus_bleu_brevity_penalty():
    b = X.sentence_table([["a", "b"]], [["a", "b", "c"]], "bleu").report()
    assert b["breakdown"]["brevity_penalty"] == pytest.approx(
        math.exp(1 - 3 / 2), rel=1e-12)
    # the hypothesis has no trigrams at all, which zeroes the corpus score
    assert b["breakdown"]["precisions"][2] == 0.0
    assert b["score"] == 0.0


def test_corpus_bleu_matches_reference_oracle():
    rng = random.Random(11)
    vocab = [chr(ord("a") + i) for i in range(9)]
    for _ in range(50):
        pairs = [random_pair(rng, vocab) for _ in range(rng.randint(1, 12))]
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        want_score, want_ps, want_bp, want_hl, want_rl = \
            bleu_corpus_reference(hyps, refs)
        got = X.sentence_table(hyps, refs, "bleu").report()
        assert got["score"] == X.corpus_bleu(hyps, refs)
        assert got["score"] == pytest.approx(want_score, abs=1e-9)
        breakdown = got["breakdown"]
        assert breakdown["brevity_penalty"] == pytest.approx(want_bp,
                                                             abs=1e-9)
        for g, w in zip(breakdown["precisions"], want_ps):
            assert g == pytest.approx(float(w), abs=1e-9)
        assert (breakdown["hyp_len"], breakdown["ref_len"]) == \
            (want_hl, want_rl)


def test_corpus_bleu_permutation_invariant():
    rng = random.Random(12)
    vocab = ["u", "v", "w", "x"]
    pairs = [random_pair(rng, vocab) for _ in range(8)]
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    base = X.sentence_table(hyps, refs, "bleu").report()
    order = list(range(8))
    rng.shuffle(order)
    shuffled = X.sentence_table([hyps[i] for i in order],
                                [refs[i] for i in order], "bleu").report()
    assert shuffled == base


def test_corpus_bleu_rejects_misaligned_or_empty():
    with pytest.raises(DataError):
        X.corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(DataError):
        X.corpus_bleu([], [])


# -------------------------------------------------------------- sentence BLEU

def test_sentence_bleu_identity_and_empty():
    assert X.sentence_bleu(["a", "b", "c", "d"], ["a", "b", "c", "d"]) == 100.0
    assert X.sentence_bleu([], ["a", "b"]) == 0.0


def test_sentence_bleu_floor_hand_values():
    # one wrong tail token: p_4 floors to eps/1
    got = X.sentence_bleu(["a", "b", "c", "d"], ["a", "b", "c", "e"])
    assert got == pytest.approx(22.360679774997894, rel=1e-9)
    # two-token identity: the 3- and 4-gram denominators are empty, each
    # contributing a flat eps
    assert X.sentence_bleu(["a", "b"], ["a", "b"]) == pytest.approx(10.0, rel=1e-12)


def test_sentence_bleu_matches_oracle_on_random_pairs():
    rng = random.Random(13)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        hyp, ref = random_pair(rng, vocab)
        assert X.sentence_bleu(hyp, ref) == \
            pytest.approx(sentence_bleu_reference(hyp, ref), abs=1e-9)


def test_sentence_bleu_equals_corpus_bleu_when_unsmoothed():
    rng = random.Random(14)
    vocab = ["a", "b", "c"]
    checked = 0
    while checked < 30:
        ref = random_sentence(rng, vocab, lo=5, hi=10)
        hyp = list(ref)
        if rng.random() < 0.5:
            hyp[rng.randrange(1, len(hyp) - 1)] = rng.choice(vocab)
        corpus = X.corpus_bleu([hyp], [ref])
        if corpus == 0.0:
            continue
        assert X.sentence_bleu(hyp, ref) == pytest.approx(corpus, abs=1e-9)
        checked += 1


def test_sentence_bleu_rejects_empty_reference():
    with pytest.raises(DataError):
        X.sentence_bleu(["a"], [])


# ------------------------------------------------------------------------ WER

def test_wer_identity():
    assert X.wer(["a", "b"], ["a", "b"]) == (0, 0, 0, 2)
    assert X.corpus_wer([["a", "b"]], [["a", "b"]]) == 0.0


def test_wer_empty_hypothesis_is_all_deletions():
    assert X.wer([], ["a", "b", "c", "d"]) == (0, 0, 4, 4)
    assert X.corpus_wer([[]], [["a", "b", "c", "d"]]) == 1.0


def test_wer_substitution_hand_case():
    assert X.wer(["a", "b", "c"], ["a", "x", "c"]) == (1, 0, 0, 3)
    assert X.corpus_wer([["a", "b", "c"]], [["a", "x", "c"]]) == \
        pytest.approx(1 / 3)


def test_wer_backtrace_prefers_substitutions():
    # swapping two tokens can be read as two substitutions or as one
    # deletion plus one insertion; the documented tie order picks the former
    assert X.wer(["a", "b"], ["b", "a"])[:3] == (2, 0, 0)


def test_wer_pure_insertion_and_deletion():
    assert X.wer(["a"], ["a", "a"])[:3] == (0, 0, 1)
    long = (["a", "b", "c", "d", "e", "f"], ["a"])
    assert X.wer(*long)[:3] == (0, 5, 0)
    # insertion-heavy hypotheses push WER past 1
    assert X.corpus_wer([long[0]], [long[1]]) == 5.0


def test_wer_components_sum_to_distance_and_distance_is_symmetric():
    rng = random.Random(15)
    vocab = ["a", "b", "c", "d"]
    for _ in range(100):
        hyp, ref = random_pair(rng, vocab)
        if not ref:
            continue
        subs, ins, dels, ref_len = X.wer(hyp, ref)
        dist = levenshtein_reference(hyp, ref)
        assert subs + ins + dels == dist
        assert dist == levenshtein_reference(ref, hyp)
        assert ref_len == len(ref)
        assert X.corpus_wer([hyp], [ref]) == pytest.approx(dist / len(ref),
                                                          abs=1e-12)


def test_wer_rejects_empty_reference():
    with pytest.raises(DataError):
        X.wer(["a"], [])


@st.composite
def wer_pair(draw):
    # one to three symbols force many cost ties in the backtrace
    size = draw(st.one_of(st.integers(1, 3), st.integers(4, 48)))
    symbol = st.integers(0, size - 1).map("w%d".__mod__)
    hyp = draw(st.lists(symbol, max_size=60))
    ref = draw(st.lists(symbol, min_size=1, max_size=60))
    return hyp, ref


@settings(max_examples=300, deadline=None)
@given(wer_pair())
@example(([], ["w0"] * 60))
@example((["w0"] * 60, ["w0"]))
@example((["w0", "w1"] * 30, ["w1", "w0"] * 30))
def test_wer_matches_textbook_oracle_field_for_field(pair):
    hyp, ref = pair
    subs, ins, dels, ref_len = X.wer(hyp, ref)
    assert (subs, ins, dels, ref_len, (subs + ins + dels) / ref_len) == \
        wer_reference(hyp, ref)


def test_corpus_wer_micro_average():
    hyps = [["x"], ["a", "b", "c", "d", "e", "f", "g", "h", "i"]]
    refs = [["y"], ["a", "b", "c", "d", "e", "f", "g", "h", "i"]]
    # micro: 1 error over 10 reference tokens; a macro mean would say 0.5
    assert X.corpus_wer(hyps, refs) == pytest.approx(0.1, abs=1e-12)


def test_corpus_wer_one_error_in_hundred_tokens():
    refs = [["w%d.%d" % (i, j) for j in range(10)] for i in range(10)]
    hyps = [list(r) for r in refs]
    hyps[3][7] = "oops"
    assert X.corpus_wer(hyps, refs) == pytest.approx(0.01, abs=1e-12)


def test_corpus_wer_identity_and_validation():
    refs = [["a", "b"], ["c"]]
    assert X.corpus_wer([list(r) for r in refs], refs) == 0.0
    with pytest.raises(DataError):
        X.corpus_wer([["a"]], refs)


# --------------------------------------------------------- sentence tables

def test_sentence_table_subsets_equal_corpus_scores():
    rng = random.Random(31)
    vocab = ["a", "b", "c", "d", "e"]
    pairs = [random_pair(rng, vocab) for _ in range(40)]
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    bleu = X.sentence_table(hyps, refs, "bleu")
    wer = X.sentence_table(hyps, refs, "wer")
    assert bleu.rows.shape == (40, 10) and wer.rows.shape == (40, 4)
    for subset in (list(range(40)), [3], [0, 5, 7, 39], list(range(1, 40, 3))):
        sub_h = [hyps[i] for i in subset]
        sub_r = [refs[i] for i in subset]
        assert bleu.score(subset) == X.corpus_bleu(sub_h, sub_r)
        assert wer.score(subset) == X.corpus_wer(sub_h, sub_r)
    assert bleu.score() == X.corpus_bleu(hyps, refs)
    assert bleu.sentence_scores() == [X.sentence_bleu(h, r) for h, r in pairs]
    assert wer.sentence_scores() == [X.corpus_wer([h], [r]) for h, r in pairs]
    assert wer.report() == {
        "metric": "wer", "score": wer.score(), "n_sentences": 40,
        "breakdown": dict(zip(("substitutions", "insertions", "deletions",
                               "ref_len"), wer.rows.sum(axis=0).tolist()))}


def test_sentence_table_empty_reference_and_validation():
    hyps = [["a"], ["b", "c"]]
    refs = [["a"], []]
    bleu = X.sentence_table(hyps, refs, "bleu")
    wer = X.sentence_table(hyps, refs, "wer")
    # corpus BLEU allows an empty reference; WER and sentence scores do not
    assert bleu.score() == X.corpus_bleu(hyps, refs)
    assert wer.score([0]) == 0.0
    for fail in (wer.score, wer.report, bleu.sentence_scores,
                 wer.sentence_scores):
        with pytest.raises(DataError, match="empty"):
            fail()
    with pytest.raises(DataError, match="at least one"):
        bleu.score([])
    with pytest.raises(DataError):
        X.sentence_table(hyps, refs[:1], "wer")
    with pytest.raises(ValueError):
        X.sentence_table(hyps, refs, "chrf")


# ------------------------------------------------------------------ bootstrap

def test_paired_bootstrap_identical_systems_tie_everywhere():
    refs = [["a", "b"], ["c", "d"], ["e"]]
    hyps = [["a", "b"], ["c", "x"], ["e"]]
    r = X.paired_bootstrap(hyps, hyps, refs, metric="bleu",
                           n_resamples=200, seed=9)
    assert (r["wins_a"], r["wins_b"], r["ties"]) == (0, 0, 200)
    assert r["p_value"] == 1.0
    assert r["n_resamples"] == 200 and r["seed"] == 9
    assert r["metric"] == "bleu" and r["n_sentences"] == 3


def test_paired_bootstrap_detects_clear_separation():
    rng = random.Random(16)
    vocab = ["a", "b", "c", "d", "e", "f"]
    refs = [random_sentence(rng, vocab, lo=4, hi=9) for _ in range(200)]
    hyps_b = [list(r) for r in refs]
    hyps_a = []
    for r in refs:
        h = list(r)
        if rng.random() < 0.5:
            h[rng.randrange(len(h))] = "zzz"
        hyps_a.append(h)
    res = X.paired_bootstrap(hyps_a, hyps_b, refs, metric="bleu",
                             n_resamples=500, seed=3)
    assert res["wins_a"] + res["wins_b"] + res["ties"] == 500
    # B is the reference itself: it scores 100 on every resample, and A
    # loses whenever at least one corrupted sentence is drawn
    assert res["wins_a"] == 0
    assert res["p_value"] < 0.05


def test_paired_bootstrap_wer_direction():
    refs = [["a", "b", "c"] for _ in range(120)]
    hyps_b = [list(r) for r in refs]
    hyps_a = [["a", "x", "c"] for _ in range(120)]
    res = X.paired_bootstrap(hyps_a, hyps_b, refs, metric="wer",
                             n_resamples=300, seed=5)
    # lower WER must count as the win for B on every resample
    assert (res["wins_a"], res["wins_b"], res["ties"]) == (0, 300, 0)
    assert res["p_value"] == 0.0


def test_paired_bootstrap_single_error_hit_rate():
    # A differs from the references on exactly one sentence out of m, so a
    # resample is a tie precisely when that sentence is never drawn; the
    # win rate for B must sit near 1-(1-1/m)^m
    m = 20
    refs = [["t%d" % i, "u%d" % i, "v%d" % i] for i in range(m)]
    hyps_a = [list(r) for r in refs]
    hyps_a[0][1] = "wrong"
    hyps_b = [list(r) for r in refs]
    res = X.paired_bootstrap(hyps_a, hyps_b, refs, metric="wer",
                             n_resamples=2000, seed=7)
    assert res["wins_a"] == 0
    want = 1 - (1 - 1 / m) ** m  # 0.6415...
    sigma = math.sqrt(want * (1 - want) / 2000)
    assert abs(res["wins_b"] / 2000 - want) < 5 * sigma


def test_paired_bootstrap_deterministic_and_validated():
    refs = [["a", "b"], ["c", "d"], ["e", "f"]]
    hyps_a = [["a", "b"], ["c", "x"], ["e", "f"]]
    hyps_b = [["a", "y"], ["c", "d"], ["e", "f"]]
    first = X.paired_bootstrap(hyps_a, hyps_b, refs, metric="bleu",
                               n_resamples=150, seed=21)
    again = X.paired_bootstrap(hyps_a, hyps_b, refs, metric="bleu",
                               n_resamples=150, seed=21)
    assert first == again
    assert first["score_a"] == X.corpus_bleu(hyps_a, refs)
    assert first["score_b"] == X.corpus_bleu(hyps_b, refs)
    wer = X.paired_bootstrap(hyps_a, hyps_b, refs, metric="wer",
                             n_resamples=100, seed=0)
    assert (wer["score_a"], wer["score_b"]) == (X.corpus_wer(hyps_a, refs),
                                                X.corpus_wer(hyps_b, refs))
    with pytest.raises(DataError, match="empty"):
        X.paired_bootstrap(hyps_a, hyps_b, refs[:2] + [[]], metric="wer",
                           n_resamples=100, seed=0)
    with pytest.raises(ValueError):
        X.paired_bootstrap(hyps_a, hyps_b, refs, metric="bleu",
                           n_resamples=99, seed=0)
    with pytest.raises(ValueError):
        X.paired_bootstrap(hyps_a, hyps_b, refs, metric="rouge",
                           n_resamples=100, seed=0)
    with pytest.raises(DataError):
        X.paired_bootstrap(hyps_a[:2], hyps_b, refs, metric="bleu",
                           n_resamples=100, seed=0)
