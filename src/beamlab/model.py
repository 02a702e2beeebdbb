"""Count-based conditional sequence model: a monotone lexical transducer
interpolated with a target n-gram prior, add-k smoothed.

p(y | state) = lambda * p_lex(y | x_{a(t)}) + (1 - lambda) * p_ngram(y | ctx)

where a(t) = min(t, |x|) aligns target position t to a source token and ctx is
the last (order - 1) generated target ids, BOS-padded. Every target sentence
is trained (and scored) with a final EOS step, so the model carries an
explicit, data-derived belief about where sequences end. That belief, learned
from the training data's length distribution, is what the search and analysis
modules poke at.

This module holds the counts, training and save/load; search.DenseScorer is
the one place that turns the counts into the probabilities above.
"""

import json
from collections import Counter

from .corpus import BOS_ID, EOS_ID, UNK_ID, Vocabulary, build_vocabulary
from .errors import DataError, ModelFormatError
from .fileio import write_json_atomic

FORMAT_NAME = "beamlab.model"
FORMAT_VERSION = 1


class _CountTable:
    """key -> Counter of next-token counts, plus per-key totals."""

    def __init__(self, add_k):
        if add_k <= 0:
            raise ValueError("add_k must be positive")
        self.add_k = add_k
        self.counts = {}
        self.totals = Counter()

    def add(self, key, token_id, amount=1):
        row = self.counts.get(key)
        if row is None:
            row = self.counts[key] = Counter()
        row[token_id] += amount
        self.totals[key] += amount


class LexTable(_CountTable):
    """Source-token-id -> target-token-id counts."""


class NGramTable(_CountTable):
    """(order-1)-tuple of target ids -> next-target-id counts."""

    def __init__(self, order, add_k):
        if order < 1:
            raise ValueError("order must be >= 1")
        super().__init__(add_k)
        self.order = order


class TransducerModel:
    def __init__(self, lam, ngram, lex, source_vocab, target_vocab, support):
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        if EOS_ID not in support or sorted(support) != list(support):
            raise ValueError("support must be a sorted id list containing EOS")
        self.lam = lam
        self.ngram = ngram
        self.lex = lex
        self.source_vocab = source_vocab
        self.target_vocab = target_vocab
        self.support = list(support)

    @property
    def order(self):
        return self.ngram.order


def train(corpus, order=3, add_k_lex=0.1, add_k_ngram=0.1, lam=0.6, min_count=1):
    """Accumulate lexical and n-gram counts over the corpus. The emission
    support is every target vocabulary word plus EOS, plus UNK if (and only
    if) some training target token actually mapped to UNK."""
    if not len(corpus):
        raise DataError("cannot train on an empty corpus")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    source_vocab = build_vocabulary(corpus, "source", min_count)
    target_vocab = build_vocabulary(corpus, "target", min_count)
    lex = LexTable(add_k_lex)
    ngram = NGramTable(order, add_k_ngram)
    pad = (BOS_ID,) * (order - 1)
    unk_seen = False

    for pair in corpus:
        src_ids = [source_vocab.id(t) for t in pair.source]
        tgt_ids = [target_vocab.id(t) for t in pair.target]
        unk_seen = unk_seen or UNK_ID in tgt_ids
        tgt_ids.append(EOS_ID)
        n_src = len(src_ids)
        context = pad
        for t, y in enumerate(tgt_ids, start=1):
            lex.add(src_ids[t - 1 if t <= n_src else n_src - 1], y)
            ngram.add(context, y)
            if order > 1:
                context = context[1:] + (y,)

    support = [EOS_ID] + ([UNK_ID] if unk_seen else []) + \
        list(range(3, len(target_vocab)))
    model = TransducerModel(lam, ngram, lex, source_vocab, target_vocab, support)
    return model


# ---------------------------------------------------------------- save/load

def _table_blob(counts, key_fn):
    return {key_fn(k): {str(y): c for y, c in sorted(row.items())}
            for k, row in sorted(counts.items())}


def save_model(model, path):
    blob = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "order": model.order,
        "add_k_lex": model.lex.add_k,
        "add_k_ngram": model.ngram.add_k,
        "lambda": model.lam,
        "source_vocab": model.source_vocab.content_tokens(),
        "target_vocab": model.target_vocab.content_tokens(),
        "support": model.support,
        "lex_counts": _table_blob(model.lex.counts, str),
        "ngram_counts": _table_blob(model.ngram.counts,
                                    lambda ctx: " ".join(str(i) for i in ctx)),
    }
    write_json_atomic(path, blob)


def load_model(path):
    try:
        with open(path, encoding="utf-8") as handle:
            blob = json.load(handle)
    except OSError as err:
        raise ModelFormatError("cannot read %s: %s" % (path, err.strerror)) from err
    except json.JSONDecodeError as err:
        raise ModelFormatError("corrupt model file %s: %s" % (path, err)) from err
    if not isinstance(blob, dict) or blob.get("format") != FORMAT_NAME:
        raise ModelFormatError("%s is not a model file" % (path,))
    if blob.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            "unsupported model format version %r in %s (expected %d)"
            % (blob.get("format_version"), path, FORMAT_VERSION))
    try:
        lex = LexTable(blob["add_k_lex"])
        for key, row in blob["lex_counts"].items():
            for y, count in row.items():
                lex.add(int(key), int(y), count)
        ngram = NGramTable(blob["order"], blob["add_k_ngram"])
        for key, row in blob["ngram_counts"].items():
            ctx = tuple(int(i) for i in key.split())
            for y, count in row.items():
                ngram.add(ctx, int(y), count)
        return TransducerModel(blob["lambda"], ngram, lex,
                               Vocabulary(blob["source_vocab"]),
                               Vocabulary(blob["target_vocab"]),
                               blob["support"])
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError("bad model file %s: %s" % (path, err)) from err
