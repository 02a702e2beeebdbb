"""Corpus and sentence BLEU, word error rate, and paired bootstrap tests.

BLEU follows the modified n-gram precision definition with orders 1..4 and
brevity penalty min(1, e^(1-r/c)); clipped counts are aggregated over the
whole corpus before any ratio is taken. WER is unit-cost token Levenshtein
with a deterministic backtrace. The bootstrap is the paired resampling test:
draw sentence indices with replacement, score both systems on each resample,
and report how often each side wins.

Reports score many subsets of one decode (corpus, length buckets, categories,
resamples), so the statistics of each pair are computed once into a
SentenceTable and every score is a sum over its rows. A TableMemo builds the
tables of many decodes of one test set, scoring each distinct pair once.
"""

import math
from collections import Counter

import numpy as np

from .errors import DataError

MAX_ORDER = 4
SENTENCE_EPS = 0.01

_BOOTSTRAP_CHUNK = 256

# the most cells (resamples x sentences) of the bootstrap's index draw: 400 MB
# of int64
MAX_BOOTSTRAP_CELLS = 50_000_000


# ----------------------------------------------------------------------- BLEU

def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _bleu_stats(hyp, ref):
    """Sufficient statistics for one pair: interleaved (clipped, total)
    counts for orders 1..4, then hypothesis and reference lengths."""
    row = []
    for n in range(1, MAX_ORDER + 1):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        row.append(clipped)
        row.append(max(0, len(hyp) - n + 1))
    row.append(len(hyp))
    row.append(len(ref))
    return row


def _bleu_from_sums(sums):
    """Corpus BLEU of summed table rows, and its breakdown."""
    precisions = [sums[2 * n] / sums[2 * n + 1] if sums[2 * n + 1] else 0.0
                  for n in range(MAX_ORDER)]
    hyp_len, ref_len = sums[8], sums[9]
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len)) if hyp_len else 0.0
    if not hyp_len or any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(
            sum(math.log(p) for p in precisions) / MAX_ORDER)
    return score, {"precisions": precisions, "brevity_penalty": bp,
                   "hyp_len": hyp_len, "ref_len": ref_len}


def _wer_from_sums(sums):
    """Micro-averaged WER of summed table rows, and its breakdown."""
    subs, ins, dels, ref_len = sums
    return (subs + ins + dels) / ref_len, {
        "substitutions": subs, "insertions": ins, "deletions": dels,
        "ref_len": ref_len}


_FROM_SUMS = {"bleu": _bleu_from_sums, "wer": _wer_from_sums}


def _sentence_bleu(stats):
    if not stats[8]:
        return 0.0
    logs = 0.0
    for n in range(MAX_ORDER):
        clipped, total = stats[2 * n], stats[2 * n + 1]
        if total == 0:
            p = SENTENCE_EPS
        elif clipped == 0:
            p = SENTENCE_EPS / total
        else:
            p = clipped / total
        logs += math.log(p)
    bp = min(1.0, math.exp(1.0 - stats[9] / stats[8]))
    return 100.0 * bp * math.exp(logs / MAX_ORDER)


def corpus_bleu(hyps, refs):
    """Corpus-level BLEU. Any n-gram order with no corpus-wide match zeroes
    the score (no smoothing at corpus level)."""
    return sentence_table(hyps, refs, "bleu").score()


def sentence_bleu(hyp, ref):
    """BLEU on a single pair with epsilon-floor smoothing: a zero-numerator
    precision becomes SENTENCE_EPS/denominator, an empty denominator becomes
    SENTENCE_EPS. Empty hypotheses score 0."""
    if not ref:
        raise DataError("reference sentence is empty")
    return _sentence_bleu(_bleu_stats(hyp, ref))


# ------------------------------------------------------------------------ WER

# the most cells, pairs x (hypothesis length + 1) x (reference length + 1),
# of one batched WER matrix: 256 KB of int32, plus a quarter of that for the
# token matches. A pair whose matrix alone is larger is batched by itself.
MAX_WER_CELLS = 1 << 16


def _padded(id_lists, width, fill):
    """The id lists as rows of a (len(id_lists), width) int32 array, each
    padded with `fill`."""
    lengths = np.array([len(ids) for ids in id_lists])
    out = np.full((len(id_lists), width), fill, dtype=np.int32)
    out[np.arange(width) < lengths[:, None]] = \
        [i for ids in id_lists for i in ids]
    return out


def _edit_counts(hyps, refs):
    """(substitutions, insertions, deletions, len(ref)) of each pair of id
    lists. The Levenshtein matrices d[j][i] (j reference tokens against i
    hypothesis tokens) of every pair are filled at once, one reference
    position j at a time: from d[j - 1] by the substitutions and deletions,
    then the insertions, which in e[j][i] = d[j][i] - i are a running min
    along i. A cell depends only on cells at smaller or equal j and i, so
    the padding past a pair's lengths never reaches its own cells. The
    backtrace resolves cost ties as substitution, then deletion, then
    insertion."""
    n_max = max(len(h) for h in hyps)
    m_max = max(len(r) for r in refs)
    # match[p, j, i]: 1 where hypothesis token i equals reference token j
    match = (_padded(hyps, n_max, -1)[:, None, :]
             == _padded(refs, m_max, -2)[:, :, None]).view(np.int8)
    # e, then d once every row is filled
    dist = np.zeros((len(hyps), m_max + 1, n_max + 1), dtype=np.int32)
    tmp = np.empty((len(hyps), n_max + 1), dtype=np.int32)
    for j in range(1, m_max + 1):
        prev = dist[:, j - 1]
        tmp[:, 0] = j
        np.subtract(prev[:, :-1], match[:, j - 1], out=tmp[:, 1:])
        np.minimum(tmp[:, 1:], prev[:, 1:] + 1, out=tmp[:, 1:])
        np.minimum.accumulate(tmp, axis=1, out=dist[:, j])
    dist += np.arange(n_max + 1, dtype=np.int32)
    rows = []
    for h, r, d in zip(hyps, refs, dist):
        i, j = len(h), len(r)
        d = d[:j + 1, :i + 1].tolist()
        subs = ins = dels = 0
        while i and j:
            cost = h[i - 1] != r[j - 1]
            here, above = d[j][i], d[j - 1]
            if here == above[i - 1] + cost:
                subs += cost
                i, j = i - 1, j - 1
            elif here == above[i] + 1:
                dels += 1
                j -= 1
            else:
                ins += 1
                i -= 1
        # on an edge of the matrix only one move is left
        ins += i
        dels += j
        rows.append((subs, ins, dels, len(r)))
    return rows


def _wer_rows(hyps, refs):
    """The WER table row of each (hypothesis, non-empty reference) pair, by
    `_edit_counts` over chunks of at most MAX_WER_CELLS matrix cells. Pairs
    are chunked in order of hypothesis length, the longer side, which cuts
    the padding."""
    ids = {}
    hyps = [[ids.setdefault(t, len(ids)) for t in h] for h in hyps]
    refs = [[ids.setdefault(t, len(ids)) for t in r] for r in refs]
    order = sorted(range(len(hyps)), key=lambda p: len(hyps[p]))
    rows = [None] * len(hyps)
    start = 0
    while start < len(order):
        stop, m_max = start + 1, len(refs[order[start]])
        while stop < len(order):
            p = order[stop]
            m = max(m_max, len(refs[p]))
            cells = (stop - start + 1) * (len(hyps[p]) + 1) * (m + 1)
            if cells > MAX_WER_CELLS:
                break
            stop, m_max = stop + 1, m
        chunk = order[start:stop]
        for p, row in zip(chunk, _edit_counts([hyps[p] for p in chunk],
                                              [refs[p] for p in chunk])):
            rows[p] = row
        start = stop
    return rows


def wer(hyp, ref):
    """Token-level edit counts against a single reference: the sentence
    table row (substitutions, insertions, deletions, len(ref)). The
    backtrace resolves cost ties as substitution, then deletion, then
    insertion, so the S/I/D split is deterministic."""
    if not ref:
        raise DataError("reference sentence is empty")
    return _wer_rows([hyp], [ref])[0]


def corpus_wer(hyps, refs):
    """Micro-averaged WER: total edit operations over total reference
    tokens."""
    return sentence_table(hyps, refs, "wer").score()


# --------------------------------------------------------- per-sentence table

class SentenceTable:
    """The metric statistics of aligned (hypothesis, reference) pairs, one
    int row per pair: the 10 `_bleu_stats` counts for BLEU; substitutions,
    insertions, deletions and reference length for WER. The last column is
    the reference length in both. Every corpus score of a subset of the
    pairs is a function of the sum of its rows."""

    def __init__(self, metric, rows):
        self.metric = metric
        self.rows = rows

    def sums(self, index=None):
        """Column sums, as Python ints, of the rows in `index` (every row
        when None)."""
        rows = self.rows if index is None else self.rows[index]
        if not len(rows):
            raise DataError("need at least one sentence pair")
        if self.metric == "wer" and not rows[:, -1].all():
            raise DataError("reference sentence is empty")
        return rows.sum(axis=0).tolist()

    def score(self, index=None):
        """Corpus BLEU or micro-averaged WER of the rows in `index`."""
        return _FROM_SUMS[self.metric](self.sums(index))[0]

    def report(self):
        """The blob `evaluate` writes: the corpus score of every row, the
        number of rows and the breakdown of the score."""
        score, breakdown = _FROM_SUMS[self.metric](self.sums())
        return {"metric": self.metric, "score": score,
                "n_sentences": len(self.rows), "breakdown": breakdown}

    def sentence_scores(self):
        """Per-pair smoothed BLEU (as sentence_bleu) or WER, in row order."""
        if not self.rows[:, -1].all():
            raise DataError("reference sentence is empty")
        if self.metric == "bleu":
            return [_sentence_bleu(row) for row in self.rows.tolist()]
        return [(s + i + d) / m for s, i, d, m in self.rows.tolist()]


METRICS = ("bleu", "wer")


def check_metric(metric):
    if metric not in METRICS:
        raise ValueError("metric must be 'bleu' or 'wer', got %r" % (metric,))


class TableMemo:
    """The sentence tables of many decodes against one reference list. Each
    distinct (sentence index, hypothesis) pair is scored once, by the first
    `tables` call that asks for it, and every table gathers its rows from
    those. A pair with an empty reference gets a zero WER row, which every
    WER score and every sentence score refuses."""

    def __init__(self, refs, metric="bleu"):
        check_metric(metric)
        self.refs = refs
        self.metric = metric
        self._rows = {}

    def tables(self, hyp_lists):
        """The SentenceTable of each hypothesis list, aligned with the
        references. The pairs that no earlier call scored are scored
        together: BLEU by one `_bleu_stats` call each, WER by one batched
        `_wer_rows` call."""
        refs = self.refs
        for hyps in hyp_lists:
            if len(hyps) != len(refs):
                raise DataError("hypothesis/reference count mismatch: %d vs "
                                "%d" % (len(hyps), len(refs)))
        keys = [[(i, tuple(h)) for i, h in enumerate(hyps)]
                for hyps in hyp_lists]
        missing = list(dict.fromkeys(
            key for table in keys for key in table if key not in self._rows))
        if self.metric == "bleu":
            rows = [_bleu_stats(h, refs[i]) for i, h in missing]
        else:
            scored = [(i, h) for i, h in missing if refs[i]]
            found = dict(zip(scored, _wer_rows([h for _, h in scored],
                                               [refs[i] for i, _ in scored])))
            rows = [found.get(key, (0, 0, 0, 0)) for key in missing]
        self._rows.update(zip(missing, rows))
        width = 2 * MAX_ORDER + 2 if self.metric == "bleu" else 4
        return [SentenceTable(self.metric, np.array(
            [self._rows[key] for key in table], dtype=np.int64).reshape(
                len(table), width)) for table in keys]


def sentence_table(hyps, refs, metric="bleu"):
    """The SentenceTable of aligned hypotheses and references."""
    return TableMemo(refs, metric).tables([hyps])[0]


# ------------------------------------------------------------------ bootstrap

def paired_bootstrap(hyps_a, hyps_b, refs, metric="bleu",
                     n_resamples=1000, seed=0):
    """Koehn-style paired bootstrap: resample sentence indices with
    replacement, score both systems on each resample with the corpus metric,
    and count wins. p = 1 - max(wins)/n_resamples. The index matrix is the
    single RNG draw, rng.integers(0, n, size=(n_resamples, n)), of at most
    MAX_BOOTSTRAP_CELLS values. Both systems' sentence tables come from one
    TableMemo, so a pair they share is scored once; the resamples and the
    full-set scores (score_a, score_b) are sums over their rows. Returns the
    blob `evaluate bootstrap` writes."""
    if n_resamples < 100:
        raise ValueError("n_resamples must be >= 100, got %d" % n_resamples)
    if n_resamples * len(refs) > MAX_BOOTSTRAP_CELLS:
        raise ValueError("%d resamples of %d sentences draw more than %d "
                         "indices" % (n_resamples, len(refs),
                                      MAX_BOOTSTRAP_CELLS))
    if len(hyps_a) != len(refs) or len(hyps_b) != len(refs):
        raise DataError("system/reference count mismatch: %d, %d vs %d refs"
                        % (len(hyps_a), len(hyps_b), len(refs)))
    if not refs:
        raise DataError("need at least one sentence pair")

    table_a, table_b = TableMemo(refs, metric).tables([hyps_a, hyps_b])
    score_a, score_b = table_a.score(), table_b.score()
    if metric == "bleu":
        def score(sums):
            return np.array([_bleu_from_sums(row)[0]
                             for row in sums.tolist()])
        better = np.greater
    else:
        def score(sums):
            return sums[:, :3].sum(axis=1) / sums[:, 3]
        better = np.less

    n = len(refs)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_resamples, n))
    wins_a = wins_b = 0
    for lo in range(0, n_resamples, _BOOTSTRAP_CHUNK):
        rows = idx[lo:lo + _BOOTSTRAP_CHUNK]
        resampled_a = score(table_a.rows[rows].sum(axis=1))
        resampled_b = score(table_b.rows[rows].sum(axis=1))
        wins_a += int(better(resampled_a, resampled_b).sum())
        wins_b += int(better(resampled_b, resampled_a).sum())
    ties = n_resamples - wins_a - wins_b
    p_value = 1.0 - max(wins_a, wins_b) / n_resamples
    return {"metric": metric, "score_a": score_a, "score_b": score_b,
            "n_sentences": n, "p_value": p_value, "wins_a": wins_a,
            "wins_b": wins_b, "ties": ties, "n_resamples": n_resamples,
            "seed": seed}
