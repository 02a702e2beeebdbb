import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlab import augment as A
from beamlab import corpus as C
from beamlab import model as M
from beamlab import search as S
from beamlab.errors import DataError, ModelFormatError

from helpers import corpus_from_token_pairs, decode_one
from oracles import (context_code, count_reference, count_rows,
                     model_json_reference, transducer_logprob_reference)


def pair_corpus(*pairs):
    return corpus_from_token_pairs(
        [(src.split(), tgt.split()) for src, tgt in pairs])


# ---------------------------------------------------------------- training

def test_train_hand_counts_single_pair():
    corp = pair_corpus(("a", "x"))
    m = M.train(corp, order=2, add_k_lex=1.0, add_k_ngram=1.0, lam=0.5)
    a = m.source_vocab.id("a")
    x = m.target_vocab.id("x")
    lex, ngram = count_rows(m.lex), count_rows(m.ngram)
    base = len(m.target_vocab)
    assert lex[a][x] == 1
    assert lex[a][C.EOS_ID] == 1
    assert ngram[context_code((C.BOS_ID,), base)][x] == 1
    assert ngram[context_code((x,), base)][C.EOS_ID] == 1
    assert m.support == [C.EOS_ID, x]


def test_train_monotone_alignment_clamps_to_last_source_token():
    corp = pair_corpus(("a b", "x y z"))
    m = M.train(corp, order=2)
    a, b = m.source_vocab.id("a"), m.source_vocab.id("b")
    x, y, z = (m.target_vocab.id(t) for t in "xyz")
    assert count_rows(m.lex)[a] == {x: 1}
    assert count_rows(m.lex)[b] == {y: 1, z: 1, C.EOS_ID: 1}


def token_counts(model):
    """Re-key both tables by token strings so models with different id
    assignments can be compared."""
    sv, tv = model.source_vocab, model.target_vocab
    lex = {(sv.token(s), tv.token(y)): c
           for s, row in count_rows(model.lex).items() for y, c in row.items()}
    ngram = {(tuple(tv.token(i) for i in context_of(model, code)),
              tv.token(y)): c
             for code, row in count_rows(model.ngram).items()
             for y, c in row.items()}
    return lex, ngram


def context_of(model, code):
    """The (order-1)-tuple of target ids that an n-gram key codes."""
    base = len(model.target_vocab)
    ids = []
    for _ in range(model.order - 1):
        code, digit = divmod(code, base)
        ids.append(digit)
    return tuple(reversed(ids))


def test_train_duplicated_corpus_doubles_counts():
    corp = pair_corpus(("a b", "x y"), ("b", "y z"))
    doubled = corpus_from_token_pairs(
        [(p.source, p.target) for p in corp] * 2)
    lex1, ng1 = token_counts(M.train(corp, order=3))
    lex2, ng2 = token_counts(M.train(doubled, order=3))
    assert lex2 == {k: 2 * v for k, v in lex1.items()}
    assert ng2 == {k: 2 * v for k, v in ng1.items()}


def test_train_total_lex_events():
    corp = pair_corpus(("a b", "x y"), ("b a a", "z"), ("a", "x y z"))
    m = M.train(corp, order=2)
    total = sum(c for row in count_rows(m.lex).values() for c in row.values())
    assert total == sum(len(p.target) + 1 for p in corp)
    ng_total = sum(c for row in count_rows(m.ngram).values()
                   for c in row.values())
    assert ng_total == total


def test_train_additivity_over_disjoint_shards():
    shard_a = pair_corpus(("a b", "x y"), ("c", "z"))
    shard_b = pair_corpus(("b", "y y"), ("a c", "x z"))
    both = corpus_from_token_pairs(
        [(p.source, p.target) for p in shard_a] +
        [(p.source, p.target) for p in shard_b])
    lex_a, ng_a = token_counts(M.train(shard_a, order=3))
    lex_b, ng_b = token_counts(M.train(shard_b, order=3))
    lex_ab, ng_ab = token_counts(M.train(both, order=3))
    for key in set(lex_a) | set(lex_b):
        assert lex_ab[key] == lex_a.get(key, 0) + lex_b.get(key, 0)
    for key in set(ng_a) | set(ng_b):
        assert ng_ab[key] == ng_a.get(key, 0) + ng_b.get(key, 0)


def test_train_min_count_maps_rare_targets_to_unk():
    corp = pair_corpus(("a", "x"), ("a", "x"), ("a", "q"))
    m = M.train(corp, order=2, min_count=2)
    assert m.target_vocab.id("q") == C.UNK_ID
    assert C.UNK_ID in m.support
    a = m.source_vocab.id("a")
    assert count_rows(m.lex)[a][C.UNK_ID] == 1


def test_train_unk_absent_from_support_when_never_seen():
    m = M.train(pair_corpus(("a", "x"), ("b", "y")), order=2)
    assert C.UNK_ID not in m.support
    assert m.support == sorted([C.EOS_ID, m.target_vocab.id("x"),
                                m.target_vocab.id("y")])


def test_train_rejects_empty_corpus_and_bad_params(tmp_path):
    corp = pair_corpus(("a", "x"))
    with pytest.raises(DataError):
        M.train(corpus_from_token_pairs([]))
    with pytest.raises(ValueError):
        M.train(corp, order=0)
    # refused before any counting, without building the huge power
    with pytest.raises(ValueError, match="int64"):
        M.train(corp, order=10 ** 10)
    with pytest.raises(ValueError):
        M.train(corp, add_k_lex=0.0)
    with pytest.raises(ValueError):
        M.train(corp, lam=1.5)
    for bad in (math.nan, math.inf, -math.inf):
        for key in ("add_k_lex", "add_k_ngram", "lam"):
            with pytest.raises(ValueError, match="lambda" if key == "lam"
                               else key):
                M.train(corp, **{key: bad})
    # a model file with a NaN add_k is malformed, not a model that decodes
    # to nothing
    path = tmp_path / "m.json"
    M.save_model(M.train(corp), path)
    path.write_text(path.read_text().replace('"add_k_ngram": 0.1',
                                             '"add_k_ngram": NaN'))
    with pytest.raises(ModelFormatError, match="add_k_ngram"):
        M.load_model(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
           st.lists(st.sampled_from("abcd"), min_size=1, max_size=7),
           st.lists(st.sampled_from("vwxyz"), min_size=1, max_size=7)),
           min_size=1, max_size=12),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=200))
def test_train_counts_equal_the_per_token_loop(pairs, n_pairs, order,
                                               min_count, block_tokens):
    # up to 300 pairs in blocks of a few target tokens, so that a corpus
    # spans several blocks, some of them single sentences longer than the
    # block; the stride mixes sources shorter and longer than their
    # targets, and the first target token occurs once, so min_count 2 maps
    # it to UNK
    corp = corpus_from_token_pairs(
        [(["a"], ["once", "x"])]
        + [pairs[(i * 7) % len(pairs)] for i in range(n_pairs)])
    with mock.patch.object(M, "_BLOCK_TOKENS", block_tokens):
        m = M.train(corp, order=order, min_count=min_count)
    lex, ngram, unk_seen = count_reference(
        corp, m.source_vocab, m.target_vocab, order, C.BOS_ID, C.EOS_ID,
        C.UNK_ID)
    base = len(m.target_vocab)
    assert count_rows(m.lex) == {key: dict(row) for key, row in lex.items()}
    assert count_rows(m.ngram) == {context_code(ctx, base): dict(row)
                                   for ctx, row in ngram.items()}
    for table, want in ((m.lex, lex), (m.ngram, ngram)):
        assert sorted(table.totals.tolist()) == \
            sorted(sum(row.values()) for row in want.values())
    assert (C.UNK_ID in m.support) == unk_seen == (min_count > 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_alignment_at_realistic_lengths(data):
    # sources of 1-60 tokens, the i-th token of each being s<i>, and every
    # step from 1 to the default length cap, 2 |x| + 10, past the source end
    lengths = data.draw(st.lists(st.integers(1, 60), min_size=1,
                                 max_size=6), label="source lengths")
    caps = [S.BeamConfig(width=1).cap(n) for n in lengths]
    src = np.arange(100, 100 + sum(lengths))
    starts = np.cumsum(lengths) - lengths
    steps = np.arange(1, max(caps) + 1)
    got = M.source_at(src, starts, np.array(lengths), steps[:, None])
    assert got.tolist() == [[int(src[a + min(t, n) - 1])
                             for a, n in zip(starts, lengths)]
                            for t in steps.tolist()]
    # training reads the same alignment: targets of up to cap - 1 tokens,
    # whose last step, the EOS step, is the cap; blocks of a few tokens
    pairs = []
    for n, cap in zip(lengths, caps):
        size = data.draw(st.integers(1, cap - 1), label="target length")
        pairs.append((["s%d" % i for i in range(n)],
                      ["xyz"[(i * i + n) % 3] for i in range(size)]))
    corp = corpus_from_token_pairs(pairs)
    block = data.draw(st.integers(1, 300), label="block tokens")
    with mock.patch.object(M, "_BLOCK_TOKENS", block):
        m = M.train(corp, order=2)
    lex, _, _ = count_reference(corp, m.source_vocab, m.target_vocab, 2,
                                C.BOS_ID, C.EOS_ID, C.UNK_ID)
    assert count_rows(m.lex) == {key: dict(row) for key, row in lex.items()}


# ---------------------------------------------------------------- scoring
#
# The model holds counts; search.DenseScorer is what turns them into
# probabilities, so the distribution's properties are checked on its rows.

def state_key(model, source, prefix_ids=()):
    """(aligned source id, n-gram context) of the step after prefix_ids."""
    src_ids = [model.source_vocab.id(t) for t in source]
    k = model.order - 1
    padded = [C.BOS_ID] * k + list(prefix_ids)
    return (src_ids[min(len(prefix_ids) + 1, len(src_ids)) - 1],
            tuple(padded[len(padded) - k:]))


def dense_probs(scorer, source, prefix_ids=()):
    """p(. | source, prefix) over model.support, from the scorer's row."""
    x, ctx = state_key(scorer.model, source, prefix_ids)
    return np.exp(scorer.mixed_log_rows(
        x, [context_code(ctx, scorer.base)])[0])


def test_next_distribution_hand_value():
    m = M.train(pair_corpus(("a", "x")), order=2, add_k_lex=1.0,
                add_k_ngram=1.0, lam=0.5)
    probs = dense_probs(S.DenseScorer(m), ["a"])
    x = m.support.index(m.target_vocab.id("x"))
    eos = m.support.index(C.EOS_ID)
    assert probs[x] == pytest.approx(0.5 * 2 / 4 + 0.5 * 2 / 3, abs=1e-12)
    assert probs[eos] == pytest.approx(0.5 * 2 / 4 + 0.5 * 1 / 3, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_next_distribution_uniform_when_untrained():
    vocab = C.Vocabulary(["p", "q", "r"])
    m = M.TransducerModel(lam=0.6, order=2,
                          ngram=M.CountTable(0.5, [], [], len(vocab)),
                          lex=M.CountTable(0.5, [], [], len(vocab)),
                          source_vocab=vocab,
                          target_vocab=vocab,
                          support=[C.EOS_ID, 3, 4, 5])
    probs = dense_probs(S.DenseScorer(m), ["p"])
    assert all(p == pytest.approx(0.25, abs=1e-12) for p in probs)


def test_next_distribution_normalized_and_positive():
    corp = pair_corpus(("a b c", "x y"), ("c b", "z z y"), ("a", "x"))
    m = M.train(corp, order=3, lam=0.7)
    scorer = S.DenseScorer(m)
    rng = random.Random(0)
    ids = m.support
    for _ in range(50):
        src = [rng.choice("abcq") for _ in range(rng.randint(1, 5))]
        prefix = [rng.choice(ids) for _ in range(rng.randint(0, 6))]
        probs = dense_probs(scorer, src, prefix)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert probs.min() > 0
        assert len(probs) == len(ids)


def test_sequence_logprob_uniform_model():
    # every finished hypothesis of a uniform model scores log(1/4) a step
    vocab = C.Vocabulary(["p", "q", "r"])
    m = M.TransducerModel(lam=0.5, order=2,
                          ngram=M.CountTable(1.0, [], [], len(vocab)),
                          lex=M.CountTable(1.0, [], [], len(vocab)),
                          source_vocab=vocab,
                          target_vocab=vocab,
                          support=[C.EOS_ID, 3, 4, 5])
    result = decode_one(m, ["p"], S.BeamConfig(width=13, max_len_a=0.0,
                                                  max_len_b=2))
    by_text = {tuple(vocab.decode(list(h.tokens))): h.logprob
               for h in result.hypotheses}
    assert len(by_text) == 13
    assert by_text[("q", "r")] == pytest.approx(3 * math.log(1 / 4),
                                                abs=1e-12)
    for text, lp in by_text.items():
        assert lp == pytest.approx((len(text) + 1) * math.log(1 / 4),
                                   abs=1e-12)


def test_sequence_logprob_matches_manual_replay():
    # a finished hypothesis's score is the sum of the scorer's per-step
    # log probabilities along its tokens, EOS step included
    corp = pair_corpus(("a b", "x y"), ("b", "y"), ("a a", "x x y"))
    m = M.train(corp, order=2, lam=0.4)
    scorer = S.DenseScorer(m)
    src = ["a", "b"]
    result = decode_one(m, src, S.BeamConfig(width=4), scorer)
    assert result.hypotheses
    for hyp in result.hypotheses:
        ids = list(hyp.tokens) + [C.EOS_ID]
        manual = 0.0
        for t, y in enumerate(ids):
            x, ctx = state_key(m, src, ids[:t])
            row = scorer.mixed_log_rows(x, [context_code(ctx, scorer.base)])[0]
            manual += row[m.support.index(y)]
        assert hyp.logprob == pytest.approx(manual, abs=1e-12)


def test_unseen_source_token_scores_like_unk():
    corp = pair_corpus(("a b", "x y"), ("b", "y"))
    m = M.train(corp, order=2)
    cfg = S.BeamConfig(width=4)
    unseen = decode_one(m, ["zzz"], cfg)
    unk = decode_one(m, [C.UNK], cfg)
    assert [(h.tokens, h.logprob) for h in unseen.hypotheses] == \
        [(h.tokens, h.logprob) for h in unk.hypotheses]


def test_order_one_model_ignores_context():
    corp = pair_corpus(("a b", "x y"), ("b", "y"))
    m = M.train(corp, order=1)
    # one n-gram row, keyed by the empty context
    assert m.ngram.keys.tolist() == [0]
    # search scores agree with the definition, which reads no context
    src = ["a", "b"]
    src_ids = [m.source_vocab.id(t) for t in src]
    result = decode_one(m, src, S.BeamConfig(width=4))
    for hyp in result.hypotheses:
        assert hyp.logprob == pytest.approx(transducer_logprob_reference(
            m, src_ids, hyp.tokens, C.BOS_ID, C.EOS_ID), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from("ab"), min_size=1, max_size=3),
                          st.lists(st.sampled_from("xy"), min_size=1, max_size=3)),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3))
def test_distribution_property_random_corpora(pairs, order):
    corp = corpus_from_token_pairs(pairs)
    m = M.train(corp, order=order)
    probs = dense_probs(S.DenseScorer(m), pairs[0][0])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert probs.min() > 0


# ---------------------------------------------------------------- mechanism

def test_msr_training_lowers_interior_eos_mass():
    cfg = C.SynthConfig(vocab_size=20, zipf_exponent=1.2,
                        length_law=C.parse_length_law("uniform(3, 9)"),
                        noise_prob=0.0, train_size=1000, dev_size=1,
                        test_size=300, seed=13,
                        test_length_law=C.parse_length_law("uniform(22, 30)"))
    splits = C.generate_synthetic(cfg)
    base = M.train(splits["train"], order=3)
    aug = A.msr(splits["train"], A.MsrConfig(n_max=4, multiplier=4, seed=1))
    msr_model = M.train(aug, order=3)

    rng = random.Random(7)
    test_pairs = list(splits["test"])

    def mean_interior_eos(model):
        scorer = S.DenseScorer(model)
        eos = model.support.index(C.EOS_ID)
        total = 0.0
        for _ in range(1000):
            pair = rng.choice(test_pairs)
            pos = rng.randint(10, 20)
            prefix = [model.target_vocab.id(t) for t in pair.target[:pos - 1]]
            total += dense_probs(scorer, pair.source, prefix)[eos]
        return total / 1000

    rng.seed(7)
    base_eos = mean_interior_eos(base)
    rng.seed(7)
    msr_eos = mean_interior_eos(msr_model)
    assert msr_eos < base_eos


# ---------------------------------------------------------------- save/load

def test_save_load_round_trip_exact(tmp_path):
    corp = pair_corpus(("a b", "x y"), ("b c", "y z y"), ("a", "x"))
    m = M.train(corp, order=3, add_k_lex=0.2, add_k_ngram=0.05, lam=0.35)
    path = tmp_path / "m.json"
    M.save_model(m, path)
    back = M.load_model(path)
    assert back.lam == m.lam
    assert back.order == m.order
    assert back.support == m.support
    assert back.source_vocab == m.source_vocab
    assert back.target_vocab == m.target_vocab
    scorer, back_scorer = S.DenseScorer(m), S.DenseScorer(back)
    rng = random.Random(3)
    for _ in range(100):
        src = [rng.choice("abcq") for _ in range(rng.randint(1, 4))]
        prefix = [rng.choice(m.support) for _ in range(rng.randint(0, 5))]
        x, ctx = state_key(m, src, prefix)
        code = context_code(ctx, scorer.base)
        assert code == context_code(ctx, back_scorer.base)
        assert np.array_equal(scorer.mixed_log_rows(x, [code]),
                              back_scorer.mixed_log_rows(x, [code]))


# the sha256 of save_model's bytes for two small models, as written by the
# dict-of-Counter tables that the count arrays replaced
PINNED_MODEL_BYTES = {
    1: (593, "3bde43bae8fb921de196712a4874041897a904d1813a7b06c222eebce7b8ea4a"),
    3: (938, "a17f6bc1e965916abab91cc1e13446223faebf83733e8d7aa794202f5dbf469b"),
}


@pytest.mark.parametrize("order", sorted(PINNED_MODEL_BYTES))
def test_saved_model_bytes_are_pinned(tmp_path, order):
    import hashlib
    corp = pair_corpus(("a b c", "x y z ."), ("b a", "y x ."),
                       ("c c a b", "z z x ."), ("a", "x w ."), ("d b", "q y ."))
    if order == 1:
        m = M.train(corp, order=1, min_count=1, lam=0.25)
    else:
        m = M.train(corp, order=3, min_count=2, add_k_lex=0.2,
                    add_k_ngram=0.05, lam=0.7)
    path = tmp_path / "m.json"
    M.save_model(m, path)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == \
        PINNED_MODEL_BYTES[order]
    # loading builds the same arrays, so saving again writes the same bytes
    M.save_model(M.load_model(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == data


def test_load_rejects_truncated_file(tmp_path):
    corp = pair_corpus(("a", "x"))
    path = tmp_path / "m.json"
    M.save_model(M.train(corp), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        M.load_model(path)


def test_load_rejects_other_format_version(tmp_path):
    corp = pair_corpus(("a", "x"))
    path = tmp_path / "m.json"
    M.save_model(M.train(corp), path)
    path.write_text(path.read_text().replace(
        '"format_version": 1', '"format_version": 2'))
    with pytest.raises(ModelFormatError) as err:
        M.load_model(path)
    assert "version" in str(err.value)


def test_load_rejects_missing_field(tmp_path):
    corp = pair_corpus(("a", "x"))
    path = tmp_path / "m.json"
    M.save_model(M.train(corp), path)
    blob = json.loads(path.read_text())
    del blob["lambda"]
    path.write_text(json.dumps(blob))
    with pytest.raises(ModelFormatError):
        M.load_model(path)


# tokens that JSON escapes, and enough of them that ids reach 10 and more,
# whose texts sort before "9"
TOKENS = ["a", "b", "c", "d", "e", "f", "g", "h", "9", "10", "\u00e9",
          "\u65e5\u672c", '"q"', "back\\slash", "\U0001f600"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
           st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6),
           st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6)),
           min_size=1, max_size=25),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=2),
       st.sampled_from([0.1, 1, 0.25, 1e-7]),
       st.sampled_from([0.0, 0.6, 1, 1 / 3]))
def test_saved_model_round_trips_byte_for_byte(tmp_path_factory, pairs,
                                               order, min_count, add_k, lam):
    m = M.train(corpus_from_token_pairs(pairs), order=order,
                min_count=min_count, add_k_lex=add_k, add_k_ngram=add_k / 2,
                lam=lam)
    path = tmp_path_factory.mktemp("round") / "m.json"
    M.save_model(m, path)
    data = path.read_text(encoding="utf-8")
    assert data == model_json_reference(m)
    back = M.load_model(path)
    for name in ("lex", "ngram"):
        table, loaded = getattr(m, name), getattr(back, name)
        assert loaded.add_k == table.add_k
        for field in ("keys", "tokens", "offsets", "counts", "totals"):
            assert np.array_equal(getattr(loaded, field),
                                  getattr(table, field))
    assert (back.lam, back.order, back.support) == (m.lam, m.order, m.support)
    assert back.source_vocab == m.source_vocab
    assert back.target_vocab == m.target_vocab
    M.save_model(back, path)
    assert path.read_text(encoding="utf-8") == data


def test_saved_untrained_model_writes_empty_count_objects(tmp_path):
    vocab = C.Vocabulary(["p", "q", "r"])
    m = M.TransducerModel(lam=0.5, order=2,
                          ngram=M.CountTable(1.0, [], [], len(vocab)),
                          lex=M.CountTable(1.0, [], [], len(vocab)),
                          source_vocab=vocab, target_vocab=vocab,
                          support=[C.EOS_ID, 3, 4, 5])
    path = tmp_path / "m.json"
    M.save_model(m, path)
    assert path.read_text() == model_json_reference(m)
    assert '"lex_counts": {}' in path.read_text()
    assert M.load_model(path).lex.counts.tolist() == []


def malformed_model(tmp_path, table, key, row):
    """A saved order-3 model whose count object `table` gets the entries
    `row` under `key` (a new row after the first one), and a zero count in
    its last row, so that an entry of `row` is the first bad one in file
    order."""
    corp = pair_corpus(("a b c", "x y z"), ("b a", "y x"), ("c", "z z x"))
    path = tmp_path / "m.json"
    M.save_model(M.train(corp, order=3), path)
    blob = json.loads(path.read_text())
    if key in blob[table]:
        blob[table][key].update(row)
    else:
        items = list(blob[table].items())
        items.insert(1, (key, row))
        blob[table] = dict(items)
    blob[table][list(blob[table])[-1]]["1"] = 0
    path.write_text(json.dumps(blob))
    return path


# (table, key, row, the error the parent commit raised for that entry);
# the model has 3 source words (keys 0..5) and 3 target words (ids 0..5)
BAD_ENTRIES = {
    "key_leading_zero": ("lex_counts", "01", {"1": 1},
                         "count key '01' is not 1 ids in [0, 6)"),
    "key_negative": ("lex_counts", "-1", {"1": 1},
                     "count key '-1' is not 1 ids in [0, 6)"),
    "key_two_ids_in_lex": ("lex_counts", "4 4", {"1": 1},
                           "count key '4 4' is not 1 ids in [0, 6)"),
    "key_out_of_range": ("lex_counts", "6", {"1": 1},
                         "count key '6' is not 1 ids in [0, 6)"),
    "key_not_a_number": ("lex_counts", "x", {"1": 1},
                         "invalid literal for int() with base 10: 'x'"),
    "key_spaced": ("ngram_counts", "0  1", {"1": 1},
                   "count key '0  1' is not 2 ids in [0, 6)"),
    "key_one_id_in_ngram": ("ngram_counts", "0", {"1": 1},
                            "count key '0' is not 2 ids in [0, 6)"),
    "token_not_a_number": ("lex_counts", "4", {"1": 1, "x": 2},
                           "invalid literal for int() with base 10: 'x'"),
    "token_leading_zero": ("lex_counts", "4", {"01": 2},
                           "count row '4': '01' is not a target id"),
    "token_out_of_range": ("ngram_counts", "0 1", {"6": 2},
                           "count row '0 1': '6' is not a target id"),
    "count_zero": ("lex_counts", "4", {"1": 1, "4": 0},
                   "count row '4': count 0 is not a positive integer"),
    "count_negative": ("lex_counts", "4", {"4": -1},
                       "count row '4': count -1 is not a positive integer"),
    "count_float": ("lex_counts", "4", {"4": 1.5},
                    "count row '4': count 1.5 is not a positive integer"),
    "count_bool": ("lex_counts", "4", {"4": True},
                   "count row '4': count True is not a positive integer"),
    "count_string": ("ngram_counts", "0 1", {"4": "3"},
                     "count row '0 1': count '3' is not a positive integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
def test_load_names_the_first_bad_count_entry(tmp_path, case):
    table, key, row, message = BAD_ENTRIES[case]
    path = malformed_model(tmp_path, table, key, row)
    with pytest.raises(ModelFormatError) as err:
        M.load_model(path)
    assert str(err.value) == "bad model file %s: %s" % (path, message)


@pytest.mark.parametrize("table, last", [("lex_counts", "'5'"),
                                         ("ngram_counts", "'5 4'")])
def test_load_names_a_later_bad_entry_after_good_rows(tmp_path, table, last):
    path = malformed_model(tmp_path, table, "4" if table == "lex_counts"
                           else "0 4", {"1": 3})
    with pytest.raises(ModelFormatError) as err:
        M.load_model(path)
    assert str(err.value).endswith(
        "count row %s: count 0 is not a positive integer" % last)


@pytest.mark.parametrize("field, value", [
    ("lambda", True), ("add_k_lex", True), ("add_k_ngram", False),
    ("source_vocab", "ab"), ("target_vocab", "xyz"),
    ("source_vocab", {"a": 1})])
def test_load_refuses_wrongly_typed_fields(tmp_path, field, value):
    corp = pair_corpus(("a b", "x y"), ("b", "y"))
    path = tmp_path / "m.json"
    M.save_model(M.train(corp, order=2, add_k_lex=1.0, lam=1.0), path)
    blob = json.loads(path.read_text())
    blob[field] = value
    path.write_text(json.dumps(blob))
    with pytest.raises(ModelFormatError, match=field):
        M.load_model(path)
