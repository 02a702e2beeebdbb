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
from itertools import chain, compress, islice, repeat
from operator import is_

import numpy as np

from .corpus import EOS_ID, UNK_ID, Vocabulary, build_vocabulary
from .errors import DataError, ModelFormatError
from .fileio import write_text_atomic

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
    integer >= 1, both add_k and lambda numbers (a bool is none), both
    add_k finite and positive, lambda in [0, 1] and min_count >= 1."""
    if type(order) is not int or order < 1:
        raise ValueError("order must be an integer >= 1, got %r" % (order,))
    for name, value in (("add_k_lex", add_k_lex), ("add_k_ngram", add_k_ngram),
                        ("lambda", lam)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("%s must be a number, got %r" % (name, value))
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

def _string_rank(bound):
    """rank[i]: the place of str(i) among the texts of 0..bound-1 in string
    order, which is json's sort_keys order ("10" before "9")."""
    rank = np.empty(bound, np.int64)
    rank[np.argsort(np.arange(bound).astype(str))] = np.arange(bound)
    return rank


def _texts(pattern, values):
    """pattern % value for each value, as an object array."""
    return np.array(list(map(pattern.__mod__, values)), object)


def _table_json(table, key_ids, bound, base):
    """A count object as canonical_json writes it one level deep, straight
    from the arrays. Row i's key is the ids key_ids[i] (below `bound`)
    joined by spaces. Rows and tokens come in sort_keys order: a key sorts
    as the tuple of its ids' string ranks, since a space sorts before every
    digit. The text is joined from pieces: a head per row, a text per token
    id and a text per distinct count, with or without the comma."""
    if not len(table.counts):
        return "{}"
    rows, length = key_ids.shape
    row_code = np.zeros(rows, np.int64)
    for column in _string_rank(bound).take(key_ids.T):
        row_code = row_code * bound + column
    row_order = np.argsort(row_code)
    row_rank = np.empty(rows, np.int64)
    row_rank[row_order] = np.arange(rows)
    n = np.diff(table.offsets)
    order = np.lexsort((_string_rank(base).take(table.tokens),
                        np.repeat(row_rank, n)))
    n = n.take(row_order)
    ends = n.cumsum()
    # row r: its head, a token and a count piece per entry, its closing brace
    heads = 2 * (ends - n + np.arange(rows))
    at = 2 * (np.arange(len(order)) + np.repeat(np.arange(rows), n)) + 1
    pieces = np.empty(2 * (len(order) + rows), object)
    pieces[heads] = _texts('  "%s": {\n' % " ".join(["%d"] * length),
                           map(tuple, key_ids.take(row_order, 0).tolist()))
    pieces[heads + 2 * n + 1] = "  },\n"
    pieces[-1] = "  }\n"
    pieces[at] = _texts('   "%d": ', range(base)).take(
        table.tokens.take(order))
    counts = table.counts.take(order)
    distinct = np.sort(counts)
    distinct = distinct[np.diff(distinct, prepend=0) > 0]
    last = np.zeros(len(order), bool)
    last[ends - 1] = True
    pieces[at + 1] = np.append(_texts("%d,\n", distinct.tolist()),
                               _texts("%d\n", distinct.tolist())).take(
        distinct.searchsorted(counts) + len(distinct) * last)
    return "{\n%s }" % "".join(pieces.tolist())


def _json_list(values):
    """A list as canonical_json writes it one level deep, through json's C
    encoder: one item per line."""
    if not values:
        return "[]"
    return "[\n  %s\n ]" % json.dumps(values, separators=(",\n  ", ": "))[1:-1]


def save_model(model, path):
    """Write the model as canonical_json would write its fields (sorted
    keys, indent 1): the scalars and lists through json, the two count
    objects from the count arrays."""
    base = len(model.target_vocab)
    digits = model.ngram.keys[:, None] // base ** np.arange(model.order - 2,
                                                            -1, -1) % base
    fields = {
        "format": json.dumps(FORMAT_NAME),
        "format_version": json.dumps(FORMAT_VERSION),
        "order": json.dumps(model.order),
        "add_k_lex": json.dumps(model.lex.add_k),
        "add_k_ngram": json.dumps(model.ngram.add_k),
        "lambda": json.dumps(model.lam),
        "source_vocab": _json_list(model.source_vocab.content_tokens()),
        "target_vocab": _json_list(model.target_vocab.content_tokens()),
        "support": _json_list(model.support),
        "lex_counts": _table_json(model.lex, model.lex.keys[:, None],
                                  len(model.source_vocab), base),
        "ngram_counts": _table_json(model.ngram, digits, base, base),
    }
    write_text_atomic(path, "{\n%s\n}\n" % ",\n".join(
        ' "%s": %s' % field for field in sorted(fields.items())))


def _id_lookup(bound):
    """The id of each canonical decimal text of 0..bound-1."""
    return dict(zip(map(str, range(bound)), range(bound)))


def _ids(texts, lookup):
    """The id of each text of the list `texts` in `lookup`, -1 for any
    other text."""
    return np.fromiter(map(lookup.get, texts, repeat(-1)), np.int64,
                       len(texts))


def _counted(counts):
    """The list `counts` as int64, 0 for a count that is no int (a bool
    neither), which the positivity check then refuses."""
    if set(map(type, counts)) <= {int}:
        return np.array(counts, np.int64)
    is_int = np.fromiter(map(is_, map(type, counts), repeat(int)), bool,
                         len(counts))
    counted = np.zeros(len(counts), np.int64)
    counted[is_int] = list(compress(counts, is_int))
    return counted


def _key_error(key, length, bound):
    list(map(int, key.split()))  # int's own error for a part that is no int
    return ValueError("count key %r is not %d ids in [0, %d)"
                      % (key, length, bound))


def _parse_table(add_k, blob, length, key_ids, token_ids):
    """The CountTable of a count object whose keys are `length` ids in
    [0, len(key_ids)) (coded in that base) and whose rows map token ids
    below len(token_ids) to positive integer counts; `key_ids` and
    `token_ids` are _id_lookup tables. Keys, tokens and counts are checked
    as whole lists; a fault raises the error of the first bad entry in file
    order (a row's key before its entries)."""
    if type(blob) is not dict:
        raise ValueError("a count table is a %s, not an object"
                         % type(blob).__name__)
    keys, rows = list(blob), list(blob.values())
    bound, base = len(key_ids), len(token_ids)
    # a key of `length` ids has length - 1 spaces; "" has no ids
    if length:
        shaped = np.fromiter(map(str.count, keys, repeat(" ")), np.int64,
                             len(keys)) == length - 1
        ids = np.full((len(keys), length), -1, np.int64)
        if shaped.any():
            ids[shaped] = _ids(" ".join(compress(keys, shaped)).split(" "),
                               key_ids).reshape(-1, length)
    else:
        shaped = np.fromiter(map(len, keys), np.int64, len(keys)) == 0
        ids = np.zeros((len(keys), 0), np.int64)
    bad_key = ~shaped | (ids < 0).any(axis=1)
    is_row = np.fromiter(map(is_, map(type, rows), repeat(dict)), bool,
                         len(rows))
    # the rows from the first bad key or non-object row on are not read
    stop = np.flatnonzero(bad_key | ~is_row)
    stop = int(stop[0]) if len(stop) else len(keys)
    rows = rows[:stop]
    n = np.fromiter(map(len, rows), np.int64, stop)
    tokens = _ids(list(chain.from_iterable(rows)), token_ids)
    counted = _counted(list(chain.from_iterable(map(dict.values, rows))))
    bad = np.flatnonzero((tokens < 0) | (counted < 1))
    if len(bad):
        i = int(bad[0])
        key = keys[int(n.cumsum().searchsorted(i, "right"))]
        y, count = next(islice(chain.from_iterable(map(dict.items, rows)),
                               i, None))
        if tokens[i] < 0:
            int(y)  # int's own error for a token that is no int
            raise ValueError("count row %r: %r is not a target id" % (key, y))
        raise ValueError("count row %r: count %r is not a positive integer"
                         % (key, count))
    if stop < len(keys):
        if bad_key[stop]:
            raise _key_error(keys[stop], length, bound)
        raise ValueError("count row %r is not an object" % (keys[stop],))
    code = np.zeros(stop, np.int64)
    for column in ids.T:
        code = code * bound + column
    values = np.repeat(code, n) * base + tokens
    order = np.argsort(values)
    return CountTable(add_k, values.take(order), counted.take(order), base)


def _vocabulary(blob, name):
    if type(blob[name]) is not list:
        raise ValueError("%s is a %s, not a list of tokens"
                         % (name, type(blob[name]).__name__))
    return Vocabulary(blob[name])


def load_model(path):
    try:
        with open(path, encoding="utf-8") as handle:
            blob = json.load(handle)
    except OSError as err:
        raise ModelFormatError("cannot read %s: %s" % (path, err.strerror)) from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ModelFormatError("corrupt model file %s: %s" % (path, err)) from err
    if not isinstance(blob, dict) or blob.get("format") != FORMAT_NAME:
        raise ModelFormatError("%s is not a model file" % (path,))
    if blob.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            "unsupported model format version %r in %s (expected %d)"
            % (blob.get("format_version"), path, FORMAT_VERSION))
    try:
        source_vocab = _vocabulary(blob, "source_vocab")
        target_vocab = _vocabulary(blob, "target_vocab")
        order, lam = blob["order"], blob["lambda"]
        add_k_lex, add_k_ngram = blob["add_k_lex"], blob["add_k_ngram"]
        # the order fixes the count keys' length and code range
        check_params(order, add_k_lex, add_k_ngram, lam)
        check_order(len(target_vocab), order)
        target_ids = _id_lookup(len(target_vocab))
        return TransducerModel(
            lam, order,
            _parse_table(add_k_ngram, blob["ngram_counts"], order - 1,
                         target_ids, target_ids),
            _parse_table(add_k_lex, blob["lex_counts"], 1,
                         _id_lookup(len(source_vocab)), target_ids),
            source_vocab, target_vocab, blob["support"])
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as err:
        raise ModelFormatError("bad model file %s: %s" % (path, err)) from err
