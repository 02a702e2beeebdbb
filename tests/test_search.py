import functools
import itertools
import math
import pickle
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamlab import corpus as C
from beamlab import model as M
from beamlab import search as S

from helpers import corpus_from_token_pairs, decode_one, saturating_width
from oracles import (beam_search_reference, context_code, dictionary_map,
                     enumerate_best_sequence, gnmt_penalty_reference,
                     normalize_score, rank_reference, select_reference,
                     transducer_logprob_reference,
                     transducer_prob_reference)


def pair_corpus(*pairs):
    return corpus_from_token_pairs(
        [(src.split(), tgt.split()) for src, tgt in pairs])


def random_tiny_model(rng):
    """A randomly trained model with at most 4 emittable symbols."""
    src_alpha = ["a", "b"]
    tgt_alpha = ["x", "y", "z"][: rng.randint(1, 3)]
    pairs = []
    for _ in range(rng.randint(1, 8)):
        src = [rng.choice(src_alpha) for _ in range(rng.randint(1, 3))]
        tgt = [rng.choice(tgt_alpha) for _ in range(rng.randint(1, 4))]
        pairs.append((src, tgt))
    corp = corpus_from_token_pairs(pairs)
    return M.train(corp, order=rng.choice([1, 2, 3]),
                   add_k_lex=rng.choice([0.1, 0.5, 1.0]),
                   add_k_ngram=rng.choice([0.1, 0.5, 1.0]),
                   lam=rng.choice([0.0, 0.3, 0.6, 1.0]))


def random_source(rng):
    return [rng.choice(["a", "b", "q"]) for _ in range(rng.randint(1, 3))]


def reference_logprob(model, source, tokens):
    """Oracle log probability of the target tokens (plus EOS) given the
    source tokens."""
    return transducer_logprob_reference(
        model, [model.source_vocab.id(t) for t in source],
        [model.target_vocab.id(t) for t in tokens], C.BOS_ID, C.EOS_ID)


# ---------------------------------------------------------------- scoring

def test_normalize_score_identity():
    assert normalize_score(-10.0, 5, ("none",)) == -10.0


def test_normalize_score_by_length():
    assert normalize_score(-10.0, 5, ("by_length", 1.0)) == -2.0
    assert normalize_score(-9.0, 2, ("by_length", 0.0)) == -9.0


def test_normalize_score_gnmt():
    got = normalize_score(-10.0, 5, ("gnmt", 0.6))
    assert got == pytest.approx(-10.0 * 0.6 ** 0.6, abs=1e-12)
    assert got == pytest.approx(-7.360219228178333, abs=1e-9)
    assert got == pytest.approx(gnmt_penalty_reference(-10.0, 5, 0.6), abs=1e-12)


def test_parse_normalization():
    assert S.parse_normalization("none") == ("none",)
    assert S.parse_normalization("by_length:1") == ("by_length", 1.0)
    assert S.parse_normalization("gnmt:0.6") == ("gnmt", 0.6)
    for bad in ["length", "by_length", "by_length:-1", "gnmt:x", ""]:
        with pytest.raises(ValueError):
            S.parse_normalization(bad)


def test_normalization_alpha_is_capped():
    # at the cap, the score stays finite at a length of 10**29
    for kind in ("by_length", "gnmt"):
        norm = S.parse_normalization("%s:%g" % (kind, S.MAX_ALPHA))
        assert math.isfinite(normalize_score(-1.0, 10 ** 29, norm))
        for bad in ("400", "1e300", "10.000001", "inf", "nan"):
            with pytest.raises(ValueError, match="finite and in"):
                S.parse_normalization("%s:%s" % (kind, bad))


@settings(max_examples=300, deadline=None)
@given(st.builds("{}:{}".format, st.sampled_from(["by_length", "gnmt"]),
                 st.one_of(st.floats(0, 10).map("%g".__mod__),
                           st.floats().map(repr),
                           st.decimals(0, 10, places=8).map(str),
                           st.sampled_from(["-0", "-0.0", "0", "1e-320",
                                            "5e-324", "1.0000001",
                                            "2.2250738585072014e-308"]))))
@example("by_length:1.0000001")
@example("by_length:1e-320")
@example("by_length:-0")
def test_normalization_names_round_trip(text):
    # an accepted alpha is what its name spells, so two alphas never share
    # a decode file name, and -0 is never written
    try:
        norm = S.parse_normalization(text)
    except ValueError as exc:
        assert str(exc).startswith("bad normalization")
        return
    assert repr(S.parse_normalization(S.format_normalization(norm))) == \
        repr(norm)
    assert math.copysign(1.0, norm[1]) == 1.0


def test_lossy_normalization_names_are_refused():
    for text in ("by_length:1.0000001", "by_length:1e-320", "gnmt:0.1234567",
                 "gnmt:5e-324"):
        with pytest.raises(ValueError, match="six significant digits"):
            S.parse_normalization(text)
    for text in ("by_length:-0", "gnmt:-0.0"):
        norm = S.parse_normalization(text)
        assert repr(norm[1]) == "0.0"
        assert S.normalization_slug(norm) == text.split(":")[0] + "_0"
    assert S.parse_normalization("gnmt:0.123456") == ("gnmt", 0.123456)


# --------------------------------------------------------------- ranking

def finished_set(entries):
    """A DecodeResult holding (tokens, logprob) entries in the given
    order."""
    return S.DecodeResult(
        np.array([t for tokens, _ in entries for t in tokens],
                 dtype=np.int64),
        np.cumsum([0] + [len(tokens) for tokens, _ in entries]),
        np.array([lp for _, lp in entries], dtype=np.float64))


NORMS = [("none",), ("by_length", 0.0), ("by_length", 0.5),
         ("by_length", 1.0), ("by_length", 2.0), ("gnmt", 0.0),
         ("gnmt", 0.6), ("gnmt", 1.0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.lists(st.integers(3, 5), max_size=4).map(tuple),
              # few values, so entries tie in logprob, and by_length:1
              # makes score ties across lengths (-2 / 2 == -4 / 4); only
              # a positive logprob, which no search makes, ties a shorter
              # entry's score with a longer one of higher logprob
              st.sampled_from([0.0, -0.0, -1.0, -2.0, -3.0, -4.0, -6.0,
                               -1e-300, 1.0, 2.0])),
    max_size=24, unique_by=lambda entry: entry[0]),
    st.sampled_from(NORMS), st.randoms(use_true_random=False))
# a score tie that logprob breaks against length, a logprob tie that length
# breaks against the tokens, and one that the tokens break
@example([((), 1.0), ((3,), 2.0)], ("by_length", 1.0), random.Random(0))
@example([((3, 3), -1.0), ((4,), -1.0)], ("none",), random.Random(0))
@example([((4,), -1.0), ((3,), -1.0)], ("gnmt", 0.6), random.Random(0))
# entries tied in score, logprob and length across the boundary of k = 1
# and of k = 2, admitted in reverse token order
@example([((4,), -1.0), ((3, 4), -3.0), ((3,), -1.0)], ("none",),
         random.Random(0))
@example([((4, 4), -2.0), ((4, 3), -2.0), ((3, 4), -2.0), ((3,), -1.0)],
         ("by_length", 1.0), random.Random(0))
def test_rerank_top_k_equals_full_sort_prefix(entries, norm, rng):
    # a finished set holds each token sequence once, in any admission order
    want = rank_reference(entries,
                          lambda lp, n: normalize_score(lp, n, norm))
    shuffled = list(entries)
    rng.shuffle(shuffled)
    for result in (finished_set(entries), finished_set(shuffled)):
        # repr tells -0.0 from 0.0
        assert repr(triples(S.rerank(result, norm))) == repr(want)
        for k in range(1, len(entries) + 2):
            assert repr(triples(S.rerank(result, norm, k))) == \
                repr(want[:k])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300),
                          st.floats(-1e4, 0.0, allow_subnormal=True)),
                min_size=1, max_size=40),
       st.sampled_from(NORMS))
def test_array_scores_equal_the_scalar_expression(entries, norm):
    # realistic lengths and logprobs: the vectorised scores keep the bits
    # of normalize_score, whose length counts the EOS step
    lengths = np.array([n for n, _ in entries], dtype=np.int64)
    logprobs = np.array([lp for _, lp in entries])
    got = S._normalized_scores(logprobs, lengths, norm).tolist()
    assert repr(got) == repr([normalize_score(lp, n + 1, norm)
                              for n, lp in entries])


def test_rerank_refuses_topk_below_one():
    result = finished_set([((3,), -1.0)])
    for topk in (0, -1):
        with pytest.raises(ValueError, match="topk"):
            S.rerank(result, ("none",), topk)


def test_beam_config_validation():
    with pytest.raises(ValueError):
        S.BeamConfig(width=0)
    assert S.BeamConfig(width=S.MAX_STEP_CANDIDATES).width == \
        S.MAX_STEP_CANDIDATES
    with pytest.raises(ValueError, match="width must be in"):
        S.BeamConfig(width=S.MAX_STEP_CANDIDATES + 1)
    with pytest.raises(ValueError):
        S.BeamConfig(width=4, max_len_a=0.0, max_len_b=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_width_is_refused_above_the_step_candidate_cap(monkeypatch, jobs):
    # support {EOS, x}: a step holds width * 2 candidates at most, but
    # this model keeps one live row, so the search at the cap is cheap
    m = M.train(pair_corpus(("a", "x")), order=2)
    assert len(m.support) == 2
    at_cap = S.MAX_STEP_CANDIDATES // 2
    calls = count_scoring(monkeypatch)
    beam = S.BeamConfig(width=at_cap, max_len_a=0.0, max_len_b=3)
    assert decode_one(m, ["a"], beam).hypotheses
    assert S.decode_corpus(m, [["a"], ["a"]], beam, jobs=1)[1].hypotheses
    assert calls
    del calls[:]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(S.multiprocessing, "get_context", no_pool)
    # the width is refused before a scorer is built
    monkeypatch.setattr(S.DenseScorer, "__init__",
                        lambda self, model: calls.append(model))
    above = S.BeamConfig(width=at_cap + 1, max_len_a=0.0, max_len_b=3)
    with pytest.raises(ValueError, match="candidates a beam step"):
        S.decode_corpus(m, [["a"], ["a"]], above, jobs=jobs)
    with pytest.raises(ValueError, match="candidates a beam step"):
        decode_one(m, ["a"], above)
    assert calls == []


def test_saturating_width():
    assert saturating_width(5, 6) == sum(4 ** k for k in range(7))
    assert saturating_width(2, 3) == 4


# ---------------------------------------------------------------- semantics

def greedy_reference(model, source, cap):
    """Greedy decode via the oracle distribution, argmax each step with
    ties broken toward the smallest token id."""
    src_ids = [model.source_vocab.id(t) for t in source]

    def dist(prefix):
        return {y: transducer_prob_reference(model, src_ids, prefix, y,
                                             C.BOS_ID)
                for y in model.support}

    tokens = []
    logprob = 0.0
    while len(tokens) < cap:
        probs = dist(tokens)
        best = min(probs, key=lambda y: (-probs[y], y))
        logprob += math.log(probs[best])
        if best == C.EOS_ID:
            return tokens, logprob, False
        tokens.append(best)
    return tokens, logprob + math.log(dist(tokens)[C.EOS_ID]), True


def test_width_one_equals_greedy():
    rng = random.Random(42)
    for _ in range(40):
        m = random_tiny_model(rng)
        src = random_source(rng)
        cfg = S.BeamConfig(width=1, max_len_a=1.0, max_len_b=4)
        result = decode_one(m, src, cfg)
        top = result.hypotheses[0]
        cap = math.ceil(1.0 * len(src)) + 4
        want_tokens, want_lp, _ = greedy_reference(m, src, cap)
        assert list(top.tokens) == want_tokens
        assert top.logprob == pytest.approx(want_lp, abs=1e-9)


def test_saturating_width_matches_exact_search():
    rng = random.Random(7)
    for _ in range(30):
        m = random_tiny_model(rng)
        src = random_source(rng)
        cap = math.ceil(0.5 * len(src)) + 3
        width = saturating_width(len(m.support), cap)
        result = decode_one(m, src, S.BeamConfig(width=width,
                                                    max_len_a=0.5, max_len_b=3))
        exact = S.exact_search(m, src, cap)
        top = result.hypotheses[0]
        assert top.tokens == exact.tokens
        assert top.logprob == exact.logprob


def test_exact_search_agrees_with_naive_enumeration():
    rng = random.Random(3)
    for _ in range(10):
        m = random_tiny_model(rng)
        src = random_source(rng)

        src_ids = [m.source_vocab.id(t) for t in src]

        def logp(prefix_ids, y):
            return math.log(transducer_prob_reference(m, src_ids, prefix_ids,
                                                      y, C.BOS_ID))

        want_tokens, want_lp = enumerate_best_sequence(
            logp, m.support, C.EOS_ID, max_len=3)
        got = S.exact_search(m, src, 3)
        assert list(got.tokens) == want_tokens
        assert got.logprob == pytest.approx(want_lp, abs=1e-9)


def test_beam_never_beats_exact_on_raw_logprob():
    rng = random.Random(11)
    for _ in range(30):
        m = random_tiny_model(rng)
        src = random_source(rng)
        exact = S.exact_search(m, src, 4)
        for width in (1, 2, 3):
            result = decode_one(m, src, S.BeamConfig(width=width,
                                                        max_len_a=1.0,
                                                        max_len_b=4 - len(src)))
            assert result.hypotheses[0].logprob <= exact.logprob + 1e-12


def test_empty_hypothesis_wins_when_eos_dominates():
    vocab = C.Vocabulary(["x"])
    # keys are key * |vocab| + token: source 3 and context (BOS,), then EOS
    lex = M.CountTable(0.1, [3 * len(vocab) + C.EOS_ID], [10], len(vocab))
    ngram = M.CountTable(0.1, [C.BOS_ID * len(vocab) + C.EOS_ID], [10],
                         len(vocab))
    m = M.TransducerModel(lam=0.5, order=2, ngram=ngram, lex=lex,
                          source_vocab=vocab, target_vocab=vocab,
                          support=[C.EOS_ID, 3])
    best = S.exact_search(m, ["x"], 4)
    assert best.tokens == ()
    result = decode_one(m, ["x"], S.BeamConfig(width=8))
    assert result.hypotheses[0].tokens == ()


def test_exact_search_max_len_zero():
    m = M.train(pair_corpus(("a", "x")))
    best = S.exact_search(m, ["a"], 0)
    assert best.tokens == ()


def test_exact_search_guards_large_instances():
    m = M.train(pair_corpus(("a", "x y z w v u t s r q")))
    with pytest.raises(ValueError):
        S.exact_search(m, ["a"], 12)
    # 11 symbols: 11^7 is the first power above 1e7
    assert len(m.support) == 11
    for max_len in (7, 8, 30):
        with pytest.raises(ValueError, match="1e7 guard"):
            S.exact_search(m, ["a"], max_len)


def test_eos_admission_needs_top_width_rank():
    # p(x) > p(EOS) > p(y) in the first step: width 1 must keep decoding,
    # width 2 must also bank the empty hypothesis
    corp = pair_corpus(("a", "x x"), ("a", "x"), ("a", "x"), ("a", "y"))
    m = M.train(corp, order=2, add_k_lex=0.1, add_k_ngram=0.1, lam=0.5)
    scorer = S.DenseScorer(m)
    row = scorer.mixed_log_rows(m.source_vocab.id("a"),
                                [context_code((C.BOS_ID,), scorer.base)])[0]
    x, y = (m.support.index(m.target_vocab.id(t)) for t in "xy")
    assert row[x] > row[m.support.index(C.EOS_ID)] > row[y]

    narrow = decode_one(m, ["a"], S.BeamConfig(width=1))
    assert len(narrow.hypotheses[0].tokens) > 0
    wide = decode_one(m, ["a"], S.BeamConfig(width=2))
    assert any(h.tokens == () for h in wide.hypotheses)


def test_force_finish_at_length_cap():
    # two strong alternating continuations keep EOS out of the admission
    # window at every step, so the cap is the only way to stop
    corp = pair_corpus(("a", "x y x y x y x y"))
    m = M.train(corp, order=2)
    result = decode_one(m, ["a"], S.BeamConfig(width=2, max_len_a=1.0,
                                                  max_len_b=2))
    assert len(result.hypotheses) == 2
    for hyp in result.hypotheses:
        assert len(hyp.tokens) == 3
        tokens = m.target_vocab.decode(list(hyp.tokens))
        assert hyp.logprob == pytest.approx(
            reference_logprob(m, ["a"], tokens), abs=1e-9)


def test_finished_scores_match_sequence_logprob():
    rng = random.Random(23)
    for _ in range(10):
        m = random_tiny_model(rng)
        src = random_source(rng)
        result = decode_one(m, src, S.BeamConfig(width=4, max_len_a=1.0,
                                                    max_len_b=3))
        for hyp in result.hypotheses:
            tokens = m.target_vocab.decode(list(hyp.tokens))
            assert hyp.logprob == pytest.approx(
                reference_logprob(m, src, tokens), abs=1e-9)
            assert hyp.normalized_score == normalize_score(
                hyp.logprob, len(hyp.tokens) + 1, ("none",))


def test_result_sorted_by_normalized_score():
    rng = random.Random(31)
    for norm in (("none",), ("by_length", 1.0), ("gnmt", 0.6)):
        for _ in range(10):
            m = random_tiny_model(rng)
            src = random_source(rng)
            hyps = S.rerank(decode_one(m, src, S.BeamConfig(
                width=6, max_len_a=1.0, max_len_b=3)), norm)
            resorted = sorted(hyps, key=lambda h: (-h.normalized_score,
                                                   -h.logprob,
                                                   len(h.tokens),
                                                   list(h.tokens)))
            assert [h.tokens for h in hyps] == [h.tokens for h in resorted]
            for a, b in zip(hyps, hyps[1:]):
                assert a.normalized_score >= b.normalized_score


def test_width_invariance_beyond_saturation():
    rng = random.Random(5)
    m = random_tiny_model(rng)
    src = ["a"]
    cap = math.ceil(0.5 * 1) + 3
    w_star = saturating_width(len(m.support), cap)
    a = decode_one(m, src, S.BeamConfig(width=w_star, max_len_a=0.5, max_len_b=3))
    b = decode_one(m, src, S.BeamConfig(width=w_star + 50, max_len_a=0.5,
                                           max_len_b=3))
    assert [(h.tokens, h.logprob) for h in a.hypotheses] == \
           [(h.tokens, h.logprob) for h in b.hypotheses]


# ------------------------------------------------- selection against oracle

def reference_decode(m, source, config, scorer, norm=("none",)):
    """The full-argsort reference search of one source, fed rows by
    `scorer`: its (tokens, logprob, normalized score) triples, best first
    under `norm`."""
    def rows_fn(x, contexts):
        codes = np.array([context_code(c, scorer.base) for c in contexts],
                         dtype=np.int64)
        return scorer.mixed_log_rows(x, codes)

    src_ids = [m.source_vocab.id(t) for t in source]
    return beam_search_reference(
        rows_fn, src_ids, m.support, C.EOS_ID, C.BOS_ID, m.order,
        config.width, config.cap(len(src_ids)),
        lambda lp, n: normalize_score(lp, n, norm))


def triples(hyps):
    return [(h.tokens, h.logprob, h.normalized_score) for h in hyps]


def assert_matches_reference(m, source, config, scorer=None,
                             norm=("none",)):
    """beam_search, reranked under `norm`, agrees with the full-argsort
    reference search, fed rows by the same scorer, on every finished
    hypothesis: tokens, logprob, normalized score and order, bit for bit."""
    scorer = scorer or S.DenseScorer(m)
    got = S.rerank(decode_one(m, source, config, scorer), norm)
    assert triples(got) == reference_decode(m, source, config, scorer, norm)
    return got


def assert_batch_matches_reference(m, sources, config, scorer=None,
                                   norm=("none",)):
    """decode_corpus decodes `sources` in lock step; each sentence's result,
    reranked under `norm`, equals the reference search of that sentence
    alone, bit for bit."""
    scorer = scorer or S.DenseScorer(m)
    got = S.decode_corpus(m, sources, config, scorer=scorer)
    assert len(got) == len(sources)
    for source, result in zip(sources, got):
        assert triples(S.rerank(result, norm)) == reference_decode(
            m, source, config, scorer, norm)
    return got


@functools.lru_cache(maxsize=None)
def reference_like():
    """A model and 40 test sources with the reference config's vocabulary,
    order and length laws."""
    cfg = C.SynthConfig(vocab_size=48, zipf_exponent=1.3,
                        length_law=C.parse_length_law(
                            "negative_binomial(10, 0.35)"),
                        noise_prob=0.02, train_size=400, dev_size=1,
                        test_size=40, seed=1234,
                        test_length_law=C.parse_length_law("uniform(6, 44)"))
    splits = C.generate_synthetic(cfg)
    return M.train(splits["train"], order=3, lam=0.8), [
        p.source for p in splits["test"]]


def test_selection_matches_reference_on_reference_like_model():
    # widths up to 200 run the selection over thousands of candidates
    m, test = reference_like()
    scorer = S.DenseScorer(m)
    by_length = sorted(test, key=len)
    sources = [by_length[i] for i in (0, 10, 20, 30, 39)]
    assert len(sources[0]) <= 10 and len(sources[-1]) >= 38
    for i, source in enumerate(sources):
        for width in (1, 4, 32, 200):
            norm = ("none",) if i % 2 else ("by_length", 1.0)
            hyps = assert_matches_reference(
                m, source, S.BeamConfig(width=width), scorer, norm)
            assert hyps
    # all 40 sentences in one call, in test order: each group of several
    # runs in lock step, its sentences leaving it at different steps
    for width in (1, 4, 32, 200):
        assert_batch_matches_reference(m, test, S.BeamConfig(width=width),
                                       scorer)


def test_selection_matches_reference_when_whole_rows_tie():
    words = ["w%d" % i for i in range(20)]
    vocab = C.Vocabulary(words)
    support = [C.EOS_ID] + list(range(3, 3 + len(words)))
    untrained = M.TransducerModel(
        lam=0.6, order=3, ngram=M.CountTable(0.5, [], [], len(vocab)),
        lex=M.CountTable(0.5, [], [], len(vocab)), source_vocab=vocab,
        target_vocab=vocab, support=support)
    rng = random.Random(11)
    pairs = [([rng.choice(words[:6]) for _ in range(rng.randint(1, 4))],
              [rng.choice(words) for _ in range(rng.randint(1, 4))])
             for _ in range(30)]
    corp = corpus_from_token_pairs(pairs)
    models = [untrained] + [M.train(corp, order=order, lam=lam)
                            for order in (1, 2, 3) for lam in (0.0, 1.0)]
    for m in models:
        size = len(m.support)
        for width in (2, size - 1, size + 1, 3 * size, 40):
            for source in (["w0"], ["w1", "w2", "w3"]):
                assert_matches_reference(
                    m, source, S.BeamConfig(width=width, max_len_a=1.0,
                                            max_len_b=3))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_select_matches_stable_sort_reference(data):
    n_sent = data.draw(st.integers(1, 6), label="sentences")
    size = data.draw(st.integers(2, 6), label="size")
    per = data.draw(st.integers(1, 8), label="per")
    non_eos = per * (size - 1)
    # widths below, at and above a sentence's non-EOS candidates; width 1
    # is a per-row argmin, whose EOS head leaves its row nothing to keep
    width = data.draw(st.sampled_from([non_eos - 1, non_eos, non_eos + 1])
                      | st.integers(2, 3 * non_eos + 2), label="width")
    assume(width >= max(2, per))
    # a few values, so that ties at the threshold and between EOS and
    # non-EOS candidates are common
    value = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0, 10)
    cost = np.array(data.draw(st.lists(value, min_size=n_sent * per * size,
                                       max_size=n_sent * per * size),
                              label="cost")).reshape(-1, size)
    eos_pos = data.draw(st.integers(0, size - 1), label="eos_pos")
    before = cost.copy()
    admitted, kept = S._select(cost, per, width, eos_pos)
    assert (admitted.tolist(), kept.tolist()) == select_reference(
        cost, per, width, eos_pos)
    assert cost.tobytes() == before.tobytes()


@functools.lru_cache(maxsize=None)
def batch_models():
    """Small models over the source words w0..w5: untrained ones, whose
    rows all tie, and trained ones of each order."""
    words = ["w%d" % i for i in range(12)]
    rng = random.Random(19)
    pairs = [([rng.choice(words[:6]) for _ in range(rng.randint(1, 4))],
              [rng.choice(words[:k]) for _ in range(rng.randint(1, 5))])
             for k in (2, 5, 12) for _ in range(12)]
    corp = corpus_from_token_pairs(pairs)
    models = []
    for n_words in (1, 4, 11):
        vocab = C.Vocabulary(words[:max(6, n_words)])
        models.append(M.TransducerModel(
            lam=0.5, order=2, ngram=M.CountTable(0.5, [], [], len(vocab)),
            lex=M.CountTable(0.5, [], [], len(vocab)), source_vocab=vocab,
            target_vocab=vocab,
            support=[C.EOS_ID] + list(range(3, 3 + n_words))))
    models += [M.train(corp, order=order, lam=lam, add_k_lex=0.2,
                       add_k_ngram=0.3)
               for order in (1, 2, 3) for lam in (0.0, 0.6, 1.0)]
    return tuple(models)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batch_decode_matches_reference_sentence_by_sentence(data):
    m = data.draw(st.sampled_from(batch_models()), label="model")
    size = len(m.support)
    width = data.draw(st.sampled_from(
        sorted({1, 2, max(1, size - 1), size + 1, 40})), label="width")
    words = st.sampled_from(["w%d" % i for i in range(6)] + ["unseen"])
    sources = data.draw(st.lists(st.lists(words, min_size=1, max_size=12),
                                 min_size=1, max_size=12), label="sources")
    # caps from 1 (hit by nearly every sentence) to 2 * |x| + 10
    max_len_a = data.draw(st.sampled_from([0.0, 0.5, 2.0]), label="a")
    max_len_b = data.draw(st.sampled_from([1, 3, 10]), label="b")
    norm = data.draw(st.sampled_from(
        [("none",), ("by_length", 1.0), ("gnmt", 0.6)]), label="norm")
    assert_batch_matches_reference(
        m, sources, S.BeamConfig(width=width, max_len_a=max_len_a,
                                 max_len_b=max_len_b), norm=norm)


def test_batch_oracle_inputs_hit_the_cap_and_fill_the_finished_set():
    # the property above runs both ways a search stops: at the length cap
    # (force-finished entries are as long as the cap) and with a full
    # finished set (no entry reaches the cap)
    source = ["w1", "w2"]
    for m in batch_models():
        capped = S.BeamConfig(width=2, max_len_a=0.0, max_len_b=1)
        assert any(len(h.tokens) == 1 for h in
                   decode_one(m, source, capped).hypotheses)
    m = batch_models()[-1]
    free = S.BeamConfig(width=2, max_len_a=2.0, max_len_b=10)
    hyps = decode_one(m, source, free).hypotheses
    assert len(hyps) >= 2
    assert all(len(h.tokens) < free.cap(len(source)) for h in hyps)


# ------------------------------------------------------- context codes

def test_rolled_code_equals_code_of_padded_context():
    rng = random.Random(17)
    for order in (1, 2, 3, 4):
        corp = pair_corpus(("a b", "x y z"), ("b", "y"), ("a", "z x"))
        m = M.train(corp, order=order)
        scorer = S.DenseScorer(m)
        non_eos = [t for t in m.support if t != C.EOS_ID]
        for _ in range(20):
            prefix = [rng.choice(non_eos) for _ in range(rng.randint(0, 7))]
            code = 0
            for t in range(len(prefix) + 1):
                padded = (C.BOS_ID,) * (order - 1) + tuple(prefix[:t])
                ctx = padded[len(padded) - (order - 1):]
                assert code == context_code(ctx, scorer.base)
                if t < len(prefix):
                    code = scorer.roll(code, prefix[t])
            codes = np.array([0] * 3)
            for tok in prefix:
                codes = scorer.roll(codes, np.array([tok] * 3))
            assert codes.tolist() == [code] * 3


def test_trained_and_unseen_context_rows():
    corp = pair_corpus(("a b", "x y z"), ("b", "y"), ("a", "z x"))
    m = M.train(corp, order=3, add_k_ngram=0.3, lam=0.45)
    scorer = S.DenseScorer(m)
    size = len(m.support)
    src_ids = [m.source_vocab.id("a")]
    ids = [C.BOS_ID] + m.support
    contexts = list(itertools.product(ids, repeat=2))
    trained = set(m.ngram.keys.tolist())
    base = len(m.target_vocab)
    unseen = [ctx for ctx in contexts
              if context_code(ctx, base) not in trained]
    assert unseen and len(unseen) < len(contexts)
    for ctx in contexts:
        prefix = [t for t in ctx if t != C.BOS_ID]
        if ctx != (C.BOS_ID,) * (2 - len(prefix)) + tuple(prefix):
            continue  # BOS after a token: no prefix reaches it
        row = scorer.mixed_log_rows(src_ids[0], [context_code(ctx, base)])[0]
        for j, y in enumerate(m.support):
            want = transducer_prob_reference(m, src_ids, prefix, y, C.BOS_ID)
            assert row[j] == pytest.approx(math.log(want), abs=1e-12)
    codes = np.array([context_code(ctx, base) for ctx in unseen])
    rows = scorer.mixed_log_rows(src_ids[0], codes)
    # every unseen context reads the one shared add-k row
    assert (rows == rows[0]).all()
    pure = M.train(corp, order=3, add_k_ngram=0.3, lam=0.0)
    pure_scorer = S.DenseScorer(pure)
    rows = pure_scorer.mixed_log_rows(src_ids[0], codes)
    assert (rows == np.log(0.3 / (0.3 * size))).all()


def lazy_scorer(model):
    """A scorer of `model` whose rows are built on first use, as for a model
    over the whole-table budget."""
    with mock.patch.object(S, "WHOLE_TABLE_CELLS", 0):
        scorer = S.DenseScorer(model)
    assert not scorer.whole
    return scorer


def test_rows_are_built_on_first_use_in_any_order():
    corp = pair_corpus(("a b", "x y z"), ("b", "y"), ("a", "z x"),
                       ("b a", "y x x"))
    m = M.train(corp, order=3, add_k_ngram=0.3, lam=0.45)
    forward, backward = lazy_scorer(m), lazy_scorer(m)
    assert forward._ngram.filled == forward._lex.filled == 0
    codes = [context_code(ctx, forward.base)
             for ctx in itertools.product([C.BOS_ID] + m.support, repeat=2)]
    rows = {}
    for code in codes:
        rows[code] = forward.mixed_log_rows(3, np.array([code]))[0]
    for code in reversed(codes):
        row = backward.mixed_log_rows(3, np.array([code]))[0]
        assert np.array_equal(row, rows[code])
    together = lazy_scorer(m).mixed_log_rows(3, np.array(codes))
    assert np.array_equal(together, np.array([rows[c] for c in codes]))
    # one row per trained context, one shared unseen row, one source row
    assert forward._ngram.filled == len(m.ngram.keys) + 1
    assert forward._lex.filled == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), order=st.integers(1, 4),
       lam=st.sampled_from([0.0, 0.6, 1.0]))
def test_whole_tables_equal_rows_built_on_first_use(data, order, lam):
    words = st.lists(st.sampled_from("abcd"), min_size=1, max_size=5)
    pairs = data.draw(st.lists(st.tuples(words, words), min_size=1,
                               max_size=8))
    m = M.train(corpus_from_token_pairs(pairs), order=order, lam=lam,
                add_k_lex=data.draw(st.sampled_from([0.1, 0.7])),
                add_k_ngram=data.draw(st.sampled_from([0.05, 1.0])))
    whole, lazy = S.DenseScorer(m), lazy_scorer(m)
    assert whole.whole
    top = whole.modulus - 1
    # trained codes, any code (most are unseen) and the last code
    codes = data.draw(st.lists(st.sampled_from(m.ngram.keys.tolist())
                               | st.integers(0, top), min_size=1,
                               max_size=12)) + [top]
    ids = st.integers(0, len(m.source_vocab) - 1)
    # one id per run of consecutive contexts: runs of all of them, of one,
    # or of any length that divides them
    runs = data.draw(st.sampled_from([n for n in range(1, len(codes) + 1)
                                      if len(codes) % n == 0]))
    run_ids = np.array(data.draw(st.lists(ids, min_size=runs,
                                          max_size=runs)))
    for source_ids in (data.draw(ids), np.array(data.draw(
            st.lists(ids, min_size=len(codes), max_size=len(codes)))),
            run_ids):
        # the second call reads rows the lazy scorer has built
        for _ in range(2):
            got = whole.mixed_log_rows(source_ids, np.array(codes))
            want = lazy.mixed_log_rows(source_ids, np.array(codes))
            assert got.tobytes() == want.tobytes()
    # a run's id reads as that id given to each of its contexts, or to the
    # run alone
    run = len(codes) // runs
    for scorer in (whole, lazy):
        got = scorer.mixed_log_rows(run_ids, np.array(codes))
        for want in (scorer.mixed_log_rows(run_ids.repeat(run),
                                           np.array(codes)),
                     np.concatenate([scorer.mixed_log_rows(
                         x, np.array(codes[i * run:(i + 1) * run]))
                         for i, x in enumerate(run_ids.tolist())])):
            assert got.tobytes() == want.tobytes()


def test_small_model_scorer_holds_every_row_from_the_start(monkeypatch):
    m, sources = realistic_batch(41)
    scorer = S.DenseScorer(m)
    assert scorer.whole
    # every trained row and the shared row of each table, in key order
    assert scorer._ngram.filled == len(m.ngram.keys) + 1
    assert scorer._lex.filled == len(m.lex.keys) + 1
    assert scorer._code_row.shape == (scorer.modulus,)

    def no_build(self, idx):
        raise AssertionError("a row was built")

    monkeypatch.setattr(S._RowTable, "_build", no_build)
    # the width-200 decode forks: the workers read the parent's tables
    for width, jobs in ((1, 1), (4, 1), (200, 2)):
        assert len(S.decode_corpus(m, sources[:6], S.BeamConfig(width=width),
                                   jobs=jobs, scorer=scorer)) == 6
    assert scorer._ngram.filled == len(m.ngram.keys) + 1
    assert scorer._lex.filled == len(m.lex.keys) + 1


def test_context_without_ngram_entry_scores():
    # no n-gram counts at all, and a code above every trained code: both
    # look up past the last trained context
    vocab = C.Vocabulary(["p", "q", "r"])
    empty = M.TransducerModel(lam=0.5, order=3,
                              ngram=M.CountTable(1.0, [], [], len(vocab)),
                              lex=M.CountTable(1.0, [], [], len(vocab)),
                              source_vocab=vocab, target_vocab=vocab,
                              support=[C.EOS_ID, 3, 4, 5])
    scorer = S.DenseScorer(empty)
    top = scorer.modulus - 1
    rows = scorer.mixed_log_rows(3, [0, 1, top])
    assert np.array_equal(rows, np.full((3, 4), np.log(0.25)))
    assert decode_one(empty, ["p"], S.BeamConfig(width=3)).hypotheses

    m = M.train(pair_corpus(("a", "x"), ("b", "y")), order=3)
    scorer = S.DenseScorer(m)
    top = scorer.modulus - 1
    assert top > m.ngram.keys.max()
    rows = scorer.mixed_log_rows(
        3, [top, context_code((C.BOS_ID, C.BOS_ID), scorer.base)])
    assert np.isfinite(rows).all()
    assert not np.array_equal(rows[0], rows[1])


def test_model_refuses_contexts_that_overflow_int64():
    vocab = C.Vocabulary(["w%d" % i for i in range(48)])
    for order, fits in ((11, True), (12, False)):
        def make():
            return M.TransducerModel(
                lam=0.5, order=order, ngram=M.CountTable(1.0, [], [], 51),
                lex=M.CountTable(1.0, [], [], 51), source_vocab=vocab,
                target_vocab=vocab, support=[C.EOS_ID] + list(range(3, 51)))
        if fits:
            scorer = S.DenseScorer(make())
            assert scorer.modulus == 51 ** 10
            # far over the budget: rows on first use, no code index
            assert not scorer.whole
            assert not hasattr(scorer, "_code_row")
            assert scorer._ngram.filled == scorer._lex.filled == 0
        else:
            with pytest.raises(ValueError, match="int64"):
                make()


# ---------------------------------------------------------------- corpus decode

def test_dictionary_task_decodes_to_dictionary_image():
    # on a noiseless dictionary task the decoder should read the mapping
    # back off the model.  Raw scores cannot settle the very last step: the
    # final source token absorbs both the period emission and the stop
    # event during training, so its lexical row splits evenly between them
    # and the period-less prefix ties with the full sequence.  Length
    # normalization breaks that tie toward the full image.
    cfg = C.SynthConfig(vocab_size=12, zipf_exponent=1.1,
                        length_law=C.parse_length_law("uniform(2, 6)"),
                        noise_prob=0.0, train_size=600, dev_size=1,
                        test_size=40, seed=2, terminal_token=".")
    splits = C.generate_synthetic(cfg)
    mapping = dictionary_map(cfg)
    m = M.train(splits["train"])
    norm = S.parse_normalization("by_length:1.0")
    rng = random.Random(0)
    tgt_words = sorted(set(mapping.values()))
    for pair in splits["test"]:
        hyps = S.rerank(decode_one(m, pair.source,
                                      S.BeamConfig(width=8)), norm)
        got = m.target_vocab.decode(list(hyps[0].tokens))
        want = [mapping[s] for s in pair.source]
        assert got == want
        # the decoded output should out-score random same-length alternatives
        top_lp = hyps[0].logprob
        for _ in range(5):
            alt = [rng.choice(tgt_words) for _ in want]
            assert reference_logprob(m, pair.source, alt) <= top_lp + 1e-9


def assert_same_arrays(a, b):
    """Two DecodeResults hold the same arrays: dtypes, shapes and bits."""
    assert [x.dtype for x in a] == [x.dtype for x in b] == \
        [np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64)]
    assert [x.shape for x in a] == [x.shape for x in b]
    assert [x.tobytes() for x in a] == [x.tobytes() for x in b]


@functools.lru_cache(maxsize=None)
def realistic_batch(test_size):
    """A model and `test_size` test sources of the reference test lengths,
    uniform(6, 44)."""
    cfg = C.SynthConfig(vocab_size=10, zipf_exponent=1.2,
                        length_law=C.parse_length_law("uniform(2, 5)"),
                        noise_prob=0.1, train_size=200, dev_size=1,
                        test_size=test_size, seed=4,
                        test_length_law=C.parse_length_law("uniform(6, 44)"))
    splits = C.generate_synthetic(cfg)
    return M.train(splits["train"], order=2), [p.source
                                               for p in splits["test"]]


def test_decode_corpus_parallel_matches_serial(monkeypatch):
    m, sources = realistic_batch(41)
    whole_serial = {}
    # whole tables, then rows built on first use (in each worker)
    for budget, width in itertools.product((S.WHOLE_TABLE_CELLS, 0),
                                           (1, 4, 200)):
        monkeypatch.setattr(S, "WHOLE_TABLE_CELLS", budget)
        assert S.DenseScorer(m).whole == (budget > 0)
        # lock-step groups of two sentences: 21 groups, the last of one
        # sentence, a task each at two workers
        monkeypatch.setattr(S, "ROW_BUDGET", 2 * width)
        cfg_b = S.BeamConfig(width=width)
        serial = S.decode_corpus(m, sources, cfg_b, jobs=1)
        parallel = S.decode_corpus(m, sources, cfg_b, jobs=2)
        # the workers send back the arrays of each finished set as they
        # are, and a set survives a pickle round trip
        assert len(serial) == len(parallel) == len(sources)
        # both paths decode the same arrays
        for a, b in zip(serial, whole_serial.setdefault(width, serial)):
            assert_same_arrays(a, b)
        for a, b in zip(serial, parallel):
            assert_same_arrays(a, b)
            assert_same_arrays(a, pickle.loads(pickle.dumps(b)))
            # CSR: one offset more than entries, from 0 to every id
            assert a.offsets[0] == 0 and a.offsets[-1] == len(a.ids)
            assert len(a.offsets) == len(a.logprobs) + 1 >= 2
        assert [triples(r.hypotheses) for r in serial] == \
            [triples(r.hypotheses) for r in parallel]
        norm = ("by_length", 1.0)
        assert [triples(S.rerank(r, norm)) for r in serial] == \
            [triples(S.rerank(r, norm)) for r in parallel]


def test_groups_of_several_sentences_decode_as_one_sentence_groups(
        monkeypatch):
    m, sources = realistic_batch(41)
    for cells, width in itertools.product((S.WHOLE_TABLE_CELLS, 0),
                                          (1, 4, 32, 200)):
        monkeypatch.setattr(S, "WHOLE_TABLE_CELLS", cells)
        scorer = S.DenseScorer(m)
        assert scorer.whole == (cells > 0)
        beam = S.BeamConfig(width=width)
        # the shipped budget groups several sentences at every width
        assert S.ROW_BUDGET // width >= 5
        grouped = S.decode_corpus(m, sources, beam, scorer=scorer)
        with monkeypatch.context() as patch:
            patch.setattr(S, "ROW_BUDGET", width)
            alone = S.decode_corpus(m, sources, beam, scorer=scorer)
        assert len(grouped) == len(alone) == len(sources)
        for a, b in zip(grouped, alone):
            assert_same_arrays(a, b)


def test_decode_memory_is_bounded_by_the_row_budget():
    """A decode holds one step's candidate arrays of a group at a time, and
    the back-pointers of the group's steps; the results it returns grow
    with the corpus."""
    m, test = reference_like()
    scorer = S.DenseScorer(m)
    cell_bytes = S.ROW_BUDGET * len(m.support) * 8
    for width, sources in ((200, test), (32, test * 3)):
        # at least three groups
        assert len(sources) > 2 * (S.ROW_BUDGET // width)
        tracemalloc.start()
        try:
            results = S.decode_corpus(m, sources, S.BeamConfig(width=width),
                                      scorer=scorer)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == len(sources)
        assert peak - held < 6 * cell_bytes


@pytest.mark.parametrize("width, n_sent", [(1, 256), (4, 30), (4, 64),
                                           (200, 1)])
def test_one_group_decodes_in_process(monkeypatch, width, n_sent):
    m, sources = realistic_batch(256)
    sources = sources[:n_sent]
    beam = S.BeamConfig(width=width)
    serial = S.decode_corpus(m, sources, beam, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(S.multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(S.os, "cpu_count", lambda: 4)
    for a, b in zip(serial, S.decode_corpus(m, sources, beam, jobs=4)):
        assert_same_arrays(a, b)


@pytest.mark.parametrize("width, jobs, n_sent, budget", [
    # two groups of 64 and 6 sentences: two tasks, two workers of four
    (4, 4, 70, 256),
    # groups of 256, 256 and 88 sentences: three tasks, three workers
    (1, 3, 600, 256),
    # one sentence a group: 30 groups, a task each
    (200, 4, 30, 256),
    # 21 groups of two sentences, the last of one: 21 tasks, two workers
    (4, 2, 41, 8),
])
def test_pool_tasks_are_runs_of_whole_consecutive_groups(
        monkeypatch, width, jobs, n_sent, budget):
    m, sources = realistic_batch(600)
    sources = sources[:n_sent]
    beam = S.BeamConfig(width=width)
    monkeypatch.setattr(S, "ROW_BUDGET", budget)
    serial = S.decode_corpus(m, sources, beam, jobs=1)
    seen = {}

    class InlinePool:
        """A pool that records its tasks and runs them in this process."""

        def __init__(self, processes, initializer, initargs):
            seen["processes"] = processes
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize):
            seen["tasks"] = tasks
            return [func(task) for task in tasks]

    class Fork:
        Pool = InlinePool

    monkeypatch.setattr(S, "_WORKER", {})
    monkeypatch.setattr(S.multiprocessing, "get_context",
                        lambda method: Fork)
    monkeypatch.setattr(S.os, "cpu_count", lambda: 4)
    parallel = S.decode_corpus(m, sources, beam, jobs=jobs)
    for a, b in zip(serial, parallel):
        assert_same_arrays(a, b)
    assert len(parallel) == n_sent
    # a task is one group: a list of `size` source-id lists, the last of
    # 1 to `size`
    tasks = seen["tasks"]
    size = max(1, budget // width)
    assert len(tasks) == -(-n_sent // size)
    assert [len(task) for task in tasks[:-1]] == [size] * (len(tasks) - 1)
    assert 1 <= len(tasks[-1]) <= size
    # the tasks' sentences, in task order, are the batch
    assert [ids for task in tasks for ids in task] == [
        [m.source_vocab.id(t) for t in source] for source in sources]
    assert seen["processes"] == min(jobs, len(tasks))


def count_scoring(monkeypatch):
    """Record the number of contexts of every mixed_log_rows call."""
    calls = []
    real = S.DenseScorer.mixed_log_rows

    def counting(self, source_ids, contexts):
        calls.append(len(contexts))
        return real(self, source_ids, contexts)

    monkeypatch.setattr(S.DenseScorer, "mixed_log_rows", counting)
    return calls


def test_width_one_batch_scores_once_per_lock_step(monkeypatch):
    cfg = C.SynthConfig(vocab_size=10, zipf_exponent=1.2,
                        length_law=C.parse_length_law("uniform(2, 6)"),
                        noise_prob=0.1, train_size=200, dev_size=1,
                        test_size=20, seed=8)
    splits = C.generate_synthetic(cfg)
    m = M.train(splits["train"], order=2)
    sources = [p.source for p in splits["test"]]
    beam = S.BeamConfig(width=1)
    calls = count_scoring(monkeypatch)
    alone, rows_alone = [], 0
    for source in sources:
        decode_one(m, source, beam)
        alone.append(len(calls))
        rows_alone += sum(calls)
        del calls[:]
    batch = S.decode_corpus(m, sources, beam)
    # one call per lock step: at most the longest cap plus its EOS step,
    # where one call per sentence step would take the sum
    assert len(calls) <= max(beam.cap(len(s)) for s in sources) + 1
    assert max(alone) <= len(calls) < sum(alone)
    # the same rows are scored, only in fewer calls
    assert sum(calls) == rows_alone
    assert [triples(r.hypotheses) for r in batch] == [
        triples(decode_one(m, s, beam).hypotheses) for s in sources]


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_source_in_a_batch_is_refused_before_scoring(monkeypatch,
                                                           jobs):
    m = M.train(pair_corpus(("a b", "x y"), ("b", "y")), order=2)
    calls = count_scoring(monkeypatch)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(S.multiprocessing, "get_context", no_pool)
    for sources in ([[], ["a"]], [["a"], ["b"], []], [["a"], [], ["b"]]):
        with pytest.raises(ValueError, match="source sentence is empty"):
            S.decode_corpus(m, sources, S.BeamConfig(width=2), jobs=jobs)
    assert calls == []


def test_resolve_jobs_clamps_to_cpu_count(monkeypatch, capsys):
    # only the resolver runs here: no pool is started for any value
    monkeypatch.setattr(S.os, "cpu_count", lambda: 4)
    assert S.resolve_jobs(1) == 1
    assert S.resolve_jobs(4) == 4
    assert capsys.readouterr().err == ""
    assert S.resolve_jobs(0) == 1
    assert S.resolve_jobs(-3) == 1
    assert S.resolve_jobs(10 ** 6) == 4
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 3
    assert all(line.startswith("warning: --jobs") for line in warnings)
    monkeypatch.setattr(S.os, "cpu_count", lambda: None)
    assert S.resolve_jobs(2) == 1


# ---------------------------------------------------------------- files

def test_decode_tsv_round_trip(tmp_path):
    corp = pair_corpus(("a b", "x y"), ("b", "y"))
    m = M.train(corp, order=2)
    results = [S.rerank(r, ("none",), topk=2) for r in S.decode_corpus(
        m, [p.source for p in corp], S.BeamConfig(width=3), jobs=1)]
    text = S.format_decode_tsv(results, m.target_vocab)
    lines = text.splitlines()
    assert all(len(line.split("\t")) == 4 for line in lines)
    parsed = S.parse_decode_tsv(text)
    assert len(parsed) == 2
    for result, entries in zip(results, parsed):
        assert len(entries) == len(result) <= 2
        for hyp, entry in zip(result, entries):
            rank, norm, lp, tokens = entry
            assert lp == hyp.logprob
            assert norm == hyp.normalized_score
            assert tokens == m.target_vocab.decode(list(hyp.tokens))
    assert parsed[0][0][0] == 1


def test_empty_hypothesis_survives_tsv_round_trip():
    vocab = C.Vocabulary(["x"])
    # keys are key * |vocab| + token: source 3 and context (BOS,), then EOS
    lex = M.CountTable(0.1, [3 * len(vocab) + C.EOS_ID], [10], len(vocab))
    ngram = M.CountTable(0.1, [C.BOS_ID * len(vocab) + C.EOS_ID], [10],
                         len(vocab))
    m = M.TransducerModel(lam=0.5, order=2, ngram=ngram, lex=lex,
                          source_vocab=vocab, target_vocab=vocab,
                          support=[C.EOS_ID, 3])
    results = S.decode_corpus(m, [["x"]], S.BeamConfig(width=1), jobs=1)
    text = S.format_decode_tsv([r.hypotheses for r in results],
                               m.target_vocab)
    parsed = S.parse_decode_tsv(text)
    assert parsed[0][0][3] == []
