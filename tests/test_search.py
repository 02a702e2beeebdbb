import math
import random

import pytest

from beamlab import corpus as C
from beamlab import model as M
from beamlab import search as S

from oracles import (enumerate_best_sequence, gnmt_penalty_reference,
                     transducer_logprob_reference, transducer_prob_reference)


def pair_corpus(*pairs):
    return C.corpus_from_token_pairs(
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
    corp = C.corpus_from_token_pairs(pairs)
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
    assert S.normalize_score(-10.0, 5, ("none",)) == -10.0


def test_normalize_score_by_length():
    assert S.normalize_score(-10.0, 5, ("by_length", 1.0)) == -2.0
    assert S.normalize_score(-9.0, 2, ("by_length", 0.0)) == -9.0


def test_normalize_score_gnmt():
    got = S.normalize_score(-10.0, 5, ("gnmt", 0.6))
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


def test_beam_config_validation():
    with pytest.raises(ValueError):
        S.BeamConfig(width=0)
    with pytest.raises(ValueError):
        S.BeamConfig(width=4, max_len_a=0.0, max_len_b=0)


def test_saturating_width():
    assert S.saturating_width(5, 6) == sum(4 ** k for k in range(7))
    assert S.saturating_width(2, 3) == 4


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
        result = S.beam_search(m, src, cfg)
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
        width = S.saturating_width(len(m.support), cap)
        result = S.beam_search(m, src, S.BeamConfig(width=width,
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
            result = S.beam_search(m, src, S.BeamConfig(width=width,
                                                        max_len_a=1.0,
                                                        max_len_b=4 - len(src)))
            assert result.hypotheses[0].logprob <= exact.logprob + 1e-12


def test_empty_hypothesis_wins_when_eos_dominates():
    vocab = C.Vocabulary(["x"])
    lex = M.LexTable(add_k=0.1)
    lex.add(3, C.EOS_ID, 10)
    ngram = M.NGramTable(order=2, add_k=0.1)
    ngram.add((C.BOS_ID,), C.EOS_ID, 10)
    m = M.TransducerModel(lam=0.5, ngram=ngram, lex=lex, source_vocab=vocab,
                          target_vocab=vocab, support=[C.EOS_ID, 3])
    best = S.exact_search(m, ["x"], 4)
    assert best.tokens == ()
    result = S.beam_search(m, ["x"], S.BeamConfig(width=8))
    assert result.hypotheses[0].tokens == ()


def test_exact_search_max_len_zero():
    m = M.train(pair_corpus(("a", "x")))
    best = S.exact_search(m, ["a"], 0)
    assert best.tokens == ()


def test_exact_search_guards_large_instances():
    m = M.train(pair_corpus(("a", "x y z w v u t s r q")))
    with pytest.raises(ValueError):
        S.exact_search(m, ["a"], 12)


def test_eos_admission_needs_top_width_rank():
    # p(x) > p(EOS) > p(y) in the first step: width 1 must keep decoding,
    # width 2 must also bank the empty hypothesis
    corp = pair_corpus(("a", "x x"), ("a", "x"), ("a", "x"), ("a", "y"))
    m = M.train(corp, order=2, add_k_lex=0.1, add_k_ngram=0.1, lam=0.5)
    row = S.DenseScorer(m).mixed_log_rows(m.source_vocab.id("a"),
                                          [(C.BOS_ID,)])[0]
    x, y = (m.support.index(m.target_vocab.id(t)) for t in "xy")
    assert row[x] > row[m.support.index(C.EOS_ID)] > row[y]

    narrow = S.beam_search(m, ["a"], S.BeamConfig(width=1))
    assert len(narrow.hypotheses[0].tokens) > 0
    wide = S.beam_search(m, ["a"], S.BeamConfig(width=2))
    assert any(h.tokens == () for h in wide.hypotheses)


def test_force_finish_at_length_cap():
    # two strong alternating continuations keep EOS out of the admission
    # window at every step, so the cap is the only way to stop
    corp = pair_corpus(("a", "x y x y x y x y"))
    m = M.train(corp, order=2)
    result = S.beam_search(m, ["a"], S.BeamConfig(width=2, max_len_a=1.0,
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
        result = S.beam_search(m, src, S.BeamConfig(width=4, max_len_a=1.0,
                                                    max_len_b=3))
        for hyp in result.hypotheses:
            tokens = m.target_vocab.decode(list(hyp.tokens))
            assert hyp.logprob == pytest.approx(
                reference_logprob(m, src, tokens), abs=1e-9)
            assert hyp.normalized_score == S.normalize_score(
                hyp.logprob, len(hyp.tokens) + 1, ("none",))


def test_result_sorted_by_normalized_score():
    rng = random.Random(31)
    for norm in (("none",), ("by_length", 1.0), ("gnmt", 0.6)):
        for _ in range(10):
            m = random_tiny_model(rng)
            src = random_source(rng)
            result = S.beam_search(m, src, S.BeamConfig(width=6,
                                                        normalization=norm,
                                                        max_len_a=1.0,
                                                        max_len_b=3))
            hyps = result.hypotheses
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
    w_star = S.saturating_width(len(m.support), cap)
    a = S.beam_search(m, src, S.BeamConfig(width=w_star, max_len_a=0.5, max_len_b=3))
    b = S.beam_search(m, src, S.BeamConfig(width=w_star + 50, max_len_a=0.5,
                                           max_len_b=3))
    assert [(h.tokens, h.logprob) for h in a.hypotheses] == \
           [(h.tokens, h.logprob) for h in b.hypotheses]


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
    mapping = C.dictionary_map(cfg)
    m = M.train(splits["train"])
    norm = S.parse_normalization("by_length:1.0")
    rng = random.Random(0)
    tgt_words = sorted(set(mapping.values()))
    for pair in splits["test"]:
        result = S.beam_search(m, pair.source,
                               S.BeamConfig(width=8, normalization=norm))
        got = m.target_vocab.decode(list(result.hypotheses[0].tokens))
        want = [mapping[s] for s in pair.source]
        assert got == want
        # the decoded output should out-score random same-length alternatives
        top_lp = result.hypotheses[0].logprob
        for _ in range(5):
            alt = [rng.choice(tgt_words) for _ in want]
            assert reference_logprob(m, pair.source, alt) <= top_lp + 1e-9


def test_decode_corpus_parallel_matches_serial():
    cfg = C.SynthConfig(vocab_size=10, zipf_exponent=1.2,
                        length_law=C.parse_length_law("uniform(2, 5)"),
                        noise_prob=0.1, train_size=200, dev_size=1,
                        test_size=30, seed=4)
    splits = C.generate_synthetic(cfg)
    m = M.train(splits["train"], order=2)
    sources = [p.source for p in splits["test"]]
    cfg_b = S.BeamConfig(width=4, normalization=("by_length", 1.0))
    serial = S.decode_corpus(m, sources, cfg_b, jobs=1)
    parallel = S.decode_corpus(m, sources, cfg_b, jobs=4)
    key = lambda rs: [[(h.tokens, h.logprob, h.normalized_score)
                       for h in r.hypotheses] for r in rs]
    assert key(serial) == key(parallel)


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
    results = S.decode_corpus(m, [p.source for p in corp],
                              S.BeamConfig(width=3), jobs=1)
    text = S.format_decode_tsv(results, m.target_vocab, topk=2)
    lines = text.splitlines()
    assert all(len(line.split("\t")) == 4 for line in lines)
    parsed = S.parse_decode_tsv(text)
    assert len(parsed) == 2
    for result, entries in zip(results, parsed):
        for hyp, entry in zip(result.hypotheses[:2], entries):
            rank, norm, lp, tokens = entry
            assert lp == hyp.logprob
            assert norm == hyp.normalized_score
            assert tokens == m.target_vocab.decode(list(hyp.tokens))
    assert parsed[0][0][0] == 1


def test_empty_hypothesis_survives_tsv_round_trip():
    vocab = C.Vocabulary(["x"])
    lex = M.LexTable(add_k=0.1)
    lex.add(3, C.EOS_ID, 10)
    ngram = M.NGramTable(order=2, add_k=0.1)
    ngram.add((C.BOS_ID,), C.EOS_ID, 10)
    m = M.TransducerModel(lam=0.5, ngram=ngram, lex=lex, source_vocab=vocab,
                          target_vocab=vocab, support=[C.EOS_ID, 3])
    results = S.decode_corpus(m, [["x"]], S.BeamConfig(width=1), jobs=1)
    text = S.format_decode_tsv(results, m.target_vocab, topk=1)
    parsed = S.parse_decode_tsv(text)
    assert parsed[0][0][3] == []
