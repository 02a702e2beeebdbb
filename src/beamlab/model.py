"""Count-based conditional sequence model: a monotone lexical transducer
interpolated with a target n-gram prior, add-k smoothed.

p(y | state) = lambda * p_lex(y | x_{a(t)}) + (1 - lambda) * p_ngram(y | ctx)

where a(t) = min(t, |x|) aligns target position t to a source token and ctx is
the last (order - 1) generated target ids, BOS-padded. Every target sentence
is trained (and scored) with a final EOS step, so the model carries an
explicit, data-derived belief about where sequences end. That belief, learned
from the training data's length distribution, is what the search and analysis
modules poke at.

The counts are integer arrays. A lexical key is a source id; an n-gram key
is the code of a context, its ids read as digits in base len(target_vocab),
oldest first (BOS is 0, so padding adds nothing). This module holds the
counts, training and save/load; search.DenseScorer is the one place that
turns the counts into the probabilities above.
"""

import json
import math

import numpy as np

from .corpus import EOS_ID, UNK_ID, Vocabulary, build_vocabulary
from .errors import DataError, ModelFormatError
from .fileio import write_json_atomic

FORMAT_NAME = "beamlab.model"
FORMAT_VERSION = 1

# target tokens counted at a time (a longer sentence is a block of its own):
# training holds per-token arrays of one block only, beside the running
# tally of distinct (key, token) pairs
_BLOCK_TOKENS = 2 ** 15


class CountTable:
    """Next-token counts per key in CSR layout, built from the ascending
    distinct values key * base + token and their counts: the distinct
    `keys` ascending; the tokens seen after keys[i] (ascending) and their
    counts at tokens[offsets[i]:offsets[i + 1]] and counts[...]; totals[i]
    sums them."""

    def __init__(self, add_k, values, counts, base):
        self.add_k = add_k
        keys, self.tokens = np.divmod(np.asarray(values, np.int64), base)
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self.keys = keys.take(starts)
        self.offsets = np.append(starts, len(keys))
        self.counts = np.asarray(counts, np.int64)
        sums = np.append(0, self.counts.cumsum())
        self.totals = sums[self.offsets[1:]] - sums[self.offsets[:-1]]


def check_order(vocab_size, order):
    """Raise ValueError unless every context of `order` ids below
    `vocab_size` has an int64 code: vocab_size ** order <= 2^63 - 1."""
    # two ids or more already need 2^63 codes at order 63; testing that
    # first keeps a huge order from building a huge power
    if vocab_size >= 2 and (order >= 63 or
                            vocab_size ** order > np.iinfo(np.int64).max):
        raise ValueError("order %d over %d target ids is too long for int64 "
                         "context codes" % (order, vocab_size))


def check_params(order, add_k_lex, add_k_ngram, lam, min_count=1):
    """Raise ValueError unless the model parameters are in range: order an
    integer >= 1, both add_k finite and positive, lambda in [0, 1] and
    min_count >= 1."""
    if type(order) is not int or order < 1:
        raise ValueError("order must be an integer >= 1, got %r" % (order,))
    for name, add_k in (("add_k_lex", add_k_lex),
                        ("add_k_ngram", add_k_ngram)):
        if not 0 < add_k < math.inf:
            raise ValueError("%s must be finite and positive, got %r"
                             % (name, add_k))
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1], got %r" % (lam,))
    if min_count < 1:
        raise ValueError("min_count must be >= 1, got %r" % (min_count,))


class TransducerModel:
    def __init__(self, lam, order, ngram, lex, source_vocab, target_vocab,
                 support):
        check_params(order, lex.add_k, ngram.add_k, lam)
        check_order(len(target_vocab), order)
        if not (all(type(t) is int for t in support) and EOS_ID in support
                and list(support) == sorted(set(support))
                and 0 <= support[0] and support[-1] < len(target_vocab)):
            raise ValueError("support must be ascending distinct target ids "
                             "containing EOS")
        for table in (ngram, lex):
            pos = np.searchsorted(support, table.tokens)
            if (np.take(support, pos, mode="clip") != table.tokens).any():
                raise ValueError("a counted token is not in the support")
        self.lam = lam
        self.order = order
        self.ngram = ngram
        self.lex = lex
        self.source_vocab = source_vocab
        self.target_vocab = target_vocab
        self.support = list(support)


def _count(tally, values):
    """A running tally (distinct values ascending, their counts) with the
    int array `values` added to it."""
    values = np.sort(values)
    starts = np.flatnonzero(np.diff(values, prepend=-1))
    keys, counts = values.take(starts), np.diff(np.append(starts, len(values)))
    if tally is None:
        return keys, counts
    known, known_counts = tally
    pos = known.searchsorted(keys)
    hit = known.take(pos, mode="clip") == keys
    known_counts[pos[hit]] += counts[hit]
    return (np.insert(known, pos[~hit], keys[~hit]),
            np.insert(known_counts, pos[~hit], counts[~hit]))


def _block_keys(src, n_src, ids, n_tgt, base, order):
    """The lexical and n-gram keys of every target step of a block of
    sentences, each as key * base + token: `src` and `ids` are the block's
    source and target vocabulary ids, `n_src` and `n_tgt` its sentence
    lengths."""
    src = src.astype(np.int64)
    # each target with its EOS step; step is t - 1 for target position t
    steps = n_tgt + 1
    y = np.insert(ids.astype(np.int64), n_tgt.cumsum(), EOS_ID)
    step = np.arange(len(y))
    step -= np.repeat(steps.cumsum() - steps, steps)
    aligned = np.minimum(step, np.repeat(n_src - 1, steps))
    aligned += np.repeat(n_src.cumsum() - n_src, steps)
    lex = src.take(aligned)
    del src, aligned
    lex *= base
    lex += y
    # the context code, oldest token first; BOS (0) before the first token
    code = np.zeros_like(y)
    for back in range(order - 1, 0, -1):
        code *= base
        code[back:] += y[:-back] * (step[back:] >= back)
    code *= base
    code += y
    return lex, code


def train(corpus, order=3, add_k_lex=0.1, add_k_ngram=0.1, lam=0.6, min_count=1):
    """Accumulate lexical and n-gram counts over the corpus. The emission
    support is every target vocabulary word plus EOS, plus UNK if (and only
    if) some training target token actually mapped to UNK. The corpus ids
    of each side become vocabulary ids in one take; each block of at most
    _BLOCK_TOKENS target tokens is then counted by sorting and run length,
    and merged into the tally. The parameters go through check_params
    before anything is counted."""
    if not len(corpus):
        raise DataError("cannot train on an empty corpus")
    check_params(order, add_k_lex, add_k_ngram, lam, min_count)
    source_vocab = build_vocabulary(corpus, "source", min_count)
    target_vocab = build_vocabulary(corpus, "target", min_count)
    base = len(target_vocab)
    check_order(base, order)
    src = source_vocab.encode_side(corpus.source)
    tgt = target_vocab.encode_side(corpus.target)
    unk_seen = bool((tgt == UNK_ID).any())
    src_bounds, tgt_bounds = corpus.source.offsets, corpus.target.offsets
    lex = ngram = None
    start = 0
    while start < len(corpus):
        # the most sentences from `start` on that hold _BLOCK_TOKENS targets
        stop = max(start + 1, int(tgt_bounds.searchsorted(
            tgt_bounds[start] + _BLOCK_TOKENS, "right")) - 1)
        src_at, tgt_at = src_bounds[start:stop + 1], tgt_bounds[start:stop + 1]
        lex_keys, ngram_keys = _block_keys(
            src[src_at[0]:src_at[-1]], np.diff(src_at),
            tgt[tgt_at[0]:tgt_at[-1]], np.diff(tgt_at), base, order)
        lex, ngram = _count(lex, lex_keys), _count(ngram, ngram_keys)
        start = stop

    support = [EOS_ID] + ([UNK_ID] if unk_seen else []) + \
        list(range(3, len(target_vocab)))
    return TransducerModel(lam, order, CountTable(add_k_ngram, *ngram, base),
                           CountTable(add_k_lex, *lex, base), source_vocab,
                           target_vocab, support)


# ---------------------------------------------------------------- save/load

def _table_blob(table, names):
    tokens = [str(y) for y in table.tokens.tolist()]
    counts = table.counts.tolist()
    bounds = table.offsets.tolist()
    return {name: dict(zip(tokens[a:b], counts[a:b]))
            for name, a, b in zip(names, bounds, bounds[1:])}


def save_model(model, path):
    base = len(model.target_vocab)
    digits = model.ngram.keys[:, None] // base ** np.arange(model.order - 2,
                                                            -1, -1) % base
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
        "lex_counts": _table_blob(model.lex,
                                  map(str, model.lex.keys.tolist())),
        "ngram_counts": _table_blob(model.ngram, [
            " ".join(map(str, ctx)) for ctx in digits.tolist()]),
    }
    write_json_atomic(path, blob)


def _parse_table(add_k, blob, length, bound, base):
    """The CountTable of a count object whose keys are `length` ids in
    [0, bound) (coded in base `bound`) and whose rows map token ids to
    positive integer counts."""
    values, counts = [], []
    for key, row in blob.items():
        ids = [int(i) for i in key.split()]
        if len(ids) != length or " ".join(map(str, ids)) != key \
                or not all(0 <= i < bound for i in ids):
            raise ValueError("count key %r is not %d ids in [0, %d)"
                             % (key, length, bound))
        code = 0
        for i in ids:
            code = code * bound + i
        for y, count in row.items():
            if y != str(int(y)) or not 0 <= int(y) < base:
                raise ValueError("count row %r: %r is not a target id"
                                 % (key, y))
            if type(count) is not int or count < 1:
                raise ValueError("count row %r: count %r is not a positive "
                                 "integer" % (key, count))
            values.append(code * base + int(y))
            counts.append(count)
    order = np.argsort(values)
    return CountTable(add_k, np.take(values, order), np.take(counts, order),
                      base)


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
        source_vocab = Vocabulary(blob["source_vocab"])
        target_vocab = Vocabulary(blob["target_vocab"])
        order, base = blob["order"], len(target_vocab)
        return TransducerModel(
            blob["lambda"], order,
            _parse_table(blob["add_k_ngram"], blob["ngram_counts"], order - 1,
                         base, base),
            _parse_table(blob["add_k_lex"], blob["lex_counts"], 1,
                         len(source_vocab), base),
            source_vocab, target_vocab, blob["support"])
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as err:
        raise ModelFormatError("bad model file %s: %s" % (path, err)) from err
