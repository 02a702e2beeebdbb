"""Corpus and sentence BLEU, word error rate, and paired bootstrap tests.

BLEU follows the modified n-gram precision definition with orders 1..4 and
brevity penalty min(1, e^(1-r/c)); clipped counts are aggregated over the
whole corpus before any ratio is taken. WER is unit-cost token Levenshtein
with a deterministic backtrace. The bootstrap is the paired resampling test:
draw sentence indices with replacement, score both systems on each resample,
and report how often each side wins.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MAX_ORDER = 4
SENTENCE_EPS = 0.01

_BOOTSTRAP_CHUNK = 256


@dataclass(frozen=True)
class BleuBreakdown:
    precisions: tuple
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    score: float


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    insertions: int
    deletions: int
    ref_len: int
    wer: float


@dataclass(frozen=True)
class BootstrapResult:
    n_resamples: int
    wins_a: int
    wins_b: int
    ties: int
    p_value: float
    seed: int


def _require_aligned(hyps, refs):
    if len(hyps) != len(refs):
        raise DataError("hypothesis/reference count mismatch: %d vs %d"
                        % (len(hyps), len(refs)))
    if not hyps:
        raise DataError("need at least one sentence pair")


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
    precisions = tuple(
        sums[2 * n] / sums[2 * n + 1] if sums[2 * n + 1] else 0.0
        for n in range(MAX_ORDER))
    hyp_len, ref_len = sums[8], sums[9]
    if hyp_len == 0:
        return BleuBreakdown(precisions, 0.0, hyp_len, ref_len, 0.0)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(
            sum(math.log(p) for p in precisions) / MAX_ORDER)
    return BleuBreakdown(precisions, bp, hyp_len, ref_len, score)


def corpus_bleu(hyps, refs):
    """Corpus-level BLEU with the full breakdown. Any n-gram order with no
    corpus-wide match zeroes the score (no smoothing at corpus level)."""
    _require_aligned(hyps, refs)
    sums = [0] * 10
    for hyp, ref in zip(hyps, refs):
        for i, v in enumerate(_bleu_stats(hyp, ref)):
            sums[i] += v
    return _bleu_from_sums(sums)


def sentence_bleu(hyp, ref, eps=SENTENCE_EPS):
    """BLEU on a single pair with epsilon-floor smoothing: a zero-numerator
    precision becomes eps/denominator, an empty denominator becomes eps.
    Empty hypotheses score 0."""
    if not ref:
        raise DataError("reference sentence is empty")
    if not hyp:
        return 0.0
    stats = _bleu_stats(hyp, ref)
    logs = 0.0
    for n in range(MAX_ORDER):
        clipped, total = stats[2 * n], stats[2 * n + 1]
        if total == 0:
            p = eps
        elif clipped == 0:
            p = eps / total
        else:
            p = clipped / total
        logs += math.log(p)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    return 100.0 * bp * math.exp(logs / MAX_ORDER)


# ------------------------------------------------------------------------ WER

def wer(hyp, ref):
    """Token-level word error rate against a single reference. The backtrace
    resolves cost ties as substitution, then deletion, then insertion, so the
    S/I/D split is deterministic."""
    if not ref:
        raise DataError("reference sentence is empty")
    n, m = len(hyp), len(ref)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dist[i, j] = min(
                dist[i - 1, j - 1] + (hyp[i - 1] != ref[j - 1]),
                dist[i, j - 1] + 1,
                dist[i - 1, j] + 1,
            )
    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and \
                dist[i, j] == dist[i - 1, j - 1] + (hyp[i - 1] != ref[j - 1]):
            if hyp[i - 1] != ref[j - 1]:
                subs += 1
            i, j = i - 1, j - 1
        elif j > 0 and dist[i, j] == dist[i, j - 1] + 1:
            dels += 1
            j -= 1
        else:
            ins += 1
            i -= 1
    return WerBreakdown(subs, ins, dels, m, (subs + ins + dels) / m)


def corpus_wer(hyps, refs):
    """Micro-averaged WER: total edit operations over total reference
    tokens."""
    _require_aligned(hyps, refs)
    errors = 0
    ref_tokens = 0
    for hyp, ref in zip(hyps, refs):
        w = wer(hyp, ref)
        errors += w.substitutions + w.insertions + w.deletions
        ref_tokens += w.ref_len
    return errors / ref_tokens


# ------------------------------------------------------------------ bootstrap

def paired_bootstrap(hyps_a, hyps_b, refs, metric="bleu",
                     n_resamples=1000, seed=0):
    """Koehn-style paired bootstrap: resample sentence indices with
    replacement, score both systems on each resample with the corpus metric,
    and count wins. p = 1 - max(wins)/n_resamples. The index matrix is the
    single RNG draw, rng.integers(0, n, size=(n_resamples, n))."""
    if metric not in ("bleu", "wer"):
        raise ValueError("metric must be 'bleu' or 'wer', got %r" % (metric,))
    if n_resamples < 100:
        raise ValueError("n_resamples must be >= 100, got %d" % n_resamples)
    if len(hyps_a) != len(refs) or len(hyps_b) != len(refs):
        raise DataError("system/reference count mismatch: %d, %d vs %d refs"
                        % (len(hyps_a), len(hyps_b), len(refs)))
    if not refs:
        raise DataError("need at least one sentence pair")

    if metric == "bleu":
        stats_a = np.array([_bleu_stats(h, r) for h, r in zip(hyps_a, refs)],
                           dtype=np.float64)
        stats_b = np.array([_bleu_stats(h, r) for h, r in zip(hyps_b, refs)],
                           dtype=np.float64)

        def score(sums):
            return np.array([_bleu_from_sums(row).score
                             for row in sums.tolist()])
        better = np.greater
    else:
        def _wer_row(hyp, ref):
            w = wer(hyp, ref)
            return [w.substitutions + w.insertions + w.deletions, w.ref_len]
        stats_a = np.array([_wer_row(h, r) for h, r in zip(hyps_a, refs)],
                           dtype=np.float64)
        stats_b = np.array([_wer_row(h, r) for h, r in zip(hyps_b, refs)],
                           dtype=np.float64)

        def score(sums):
            return sums[:, 0] / sums[:, 1]
        better = np.less

    n = len(refs)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_resamples, n))
    wins_a = wins_b = 0
    for lo in range(0, n_resamples, _BOOTSTRAP_CHUNK):
        rows = idx[lo:lo + _BOOTSTRAP_CHUNK]
        score_a = score(stats_a[rows].sum(axis=1))
        score_b = score(stats_b[rows].sum(axis=1))
        wins_a += int(better(score_a, score_b).sum())
        wins_b += int(better(score_b, score_a).sum())
    ties = n_resamples - wins_a - wins_b
    p_value = 1.0 - max(wins_a, wins_b) / n_resamples
    return BootstrapResult(n_resamples, wins_a, wins_b, ties, p_value, seed)
