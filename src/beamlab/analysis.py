"""Hypothesis category classification and degradation accounting.

Given decodes of the same test set at a small and a large beam width, each
sentence lands in exactly one category:

  Improved   the large-beam output matches the reference at least as well,
  Prefix     it got worse and is a prefix of the small-beam output (modulo
             a trailing period),
  OtherDrop  it got worse some other way.

Per-category corpus metrics weighted by category fractions give the
contribution-to-degradation and contribution-to-shortening accounting, and
bucket_quality slices corpus quality by reference length. Every score here is
read from the metrics.SentenceTable of a decode, which the caller builds once
and passes in, and every report is returned as the rows that are written.
"""

import math

from .errors import DataError

CATEGORIES = ("Improved", "Prefix", "OtherDrop")

DEFAULT_BUCKET_EDGES = (10, 20, 30, 40, 50, 60)


# ------------------------------------------------------------ prefix relation

def is_prefix_modulo_eos(short, long):
    """True iff `short` is a prefix of `long` after forgiving at most one
    trailing period on the short side. Stored sentences never carry an EOS
    marker, so the period is the only sentence-final decoration to strip."""
    s = list(short)
    if s and s[-1] == ".":
        s = s[:-1]
    return s == list(long[:len(s)])


# -------------------------------------------------------------- classification

def _check_pair(small, large, **named):
    """The two sentence tables must score one metric, and align with each
    other and with the `named` per-sentence inputs."""
    if small.metric != large.metric:
        raise ValueError("sentence tables score %r and %r"
                         % (small.metric, large.metric))
    lengths = {name: len(v) for name, v in
               dict(named, small=small.rows, large=large.rows).items()}
    if len(set(lengths.values())) > 1:
        raise DataError("misaligned inputs: %s" % (lengths,))


def classify(hyps_small, hyps_large, small, large):
    """Assign each sentence to Improved, Prefix, or OtherDrop, in that
    precedence order. `small` and `large` are the two decodes' sentence
    tables against the same references. Improved means the large-beam
    hypothesis scores at least as well per sentence (BLEU: >=, WER: <=)."""
    _check_pair(small, large, hyps_small=hyps_small, hyps_large=hyps_large)
    categories = []
    for hs, hl, s, l in zip(hyps_small, hyps_large, small.sentence_scores(),
                            large.sentence_scores()):
        improved = l >= s if small.metric == "bleu" else l <= s
        if improved:
            categories.append("Improved")
        elif is_prefix_modulo_eos(hl, hs):
            categories.append("Prefix")
        else:
            categories.append("OtherDrop")
    return categories


# ------------------------------------------------------------- category report

# the category report's CSV columns (and JSON row keys)
CATEGORY_COLUMNS = ("category", "count", "fraction", "metric_small",
                    "metric_large", "mean_len_small", "mean_len_large",
                    "contribution", "length_contribution")


def contribution(metric_small, metric_large, fraction):
    """Weighted share of the corpus-level shift attributed to one category."""
    return (metric_large - metric_small) * fraction


def category_report(categories, hyps_small, hyps_large, small, large):
    """Per-category corpus metrics, mean hypothesis lengths, and weighted
    contributions, as {"metric", "n_sentences", "categories"} with one row
    per category under CATEGORY_COLUMNS. Empty categories report null
    metrics and contribution 0. The tables are as in classify."""
    _check_pair(small, large, categories=categories, hyps_small=hyps_small,
                hyps_large=hyps_large)
    bad = set(categories) - set(CATEGORIES)
    if bad:
        raise DataError("unknown categories: %s" % sorted(bad))
    n = len(categories)
    if n == 0:
        raise DataError("need at least one classified sentence")
    rows = []
    for cat in CATEGORIES:
        members = [i for i, c in enumerate(categories) if c == cat]
        count = len(members)
        fraction = count / n
        if count == 0:
            values = (cat, 0, 0.0, None, None, None, None, 0.0, 0.0)
        else:
            metric_small = small.score(members)
            metric_large = large.score(members)
            mean_small = sum(len(hyps_small[i]) for i in members) / count
            mean_large = sum(len(hyps_large[i]) for i in members) / count
            values = (cat, count, fraction, metric_small, metric_large,
                      mean_small, mean_large,
                      contribution(metric_small, metric_large, fraction),
                      contribution(mean_small, mean_large, fraction))
        rows.append(dict(zip(CATEGORY_COLUMNS, values)))
    return {"metric": small.metric, "n_sentences": n, "categories": rows}


# --------------------------------------------------------------- length report

def length_report(hyps_by_beam):
    """Mean hypothesis token length per beam."""
    if not hyps_by_beam:
        raise DataError("no decoded beams given")
    sizes = {len(hyps) for hyps in hyps_by_beam.values()}
    if len(sizes) > 1 or sizes == {0}:
        raise DataError("beams decode different test sets: sizes %s"
                        % sorted(sizes))
    n = sizes.pop()
    return {"means": {beam: sum(len(h) for h in hyps) / n
                      for beam, hyps in hyps_by_beam.items()}}


# -------------------------------------------------------------------- buckets

# the columns of a bucket row
BUCKET_COLUMNS = ("bucket_low", "bucket_high", "count", "metric")


def check_bucket_edges(edges):
    """`edges` as a tuple; ValueError unless it holds at least one edge, the
    first positive and each above the one before (a NaN edge fails both)."""
    edges = tuple(edges)
    if not edges:
        raise ValueError("need at least one bucket edge")
    if not edges[0] > 0:
        raise ValueError("first bucket edge must be positive, got %r"
                         % (edges[0],))
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly ascending: %r"
                         % (edges,))
    return edges


def bucket_quality(table, edges=DEFAULT_BUCKET_EDGES):
    """Corpus metric of a decode's sentence table per reference-length
    bucket, one row per bucket under BUCKET_COLUMNS. Buckets are (prev, edge]
    starting from 0, plus an open final bucket, whose high edge is inf, past
    the last finite edge. The reference lengths are the table's last
    column; an empty reference, which no bucket holds, is refused."""
    if not len(table.rows):
        raise DataError("need at least one sentence pair")
    if not table.rows[:, -1].all():
        raise DataError("reference sentence is empty")
    edges = check_bucket_edges(edges)
    bounds = list(zip((0,) + edges, edges))
    if not math.isinf(edges[-1]):
        bounds.append((edges[-1], math.inf))
    ref_lens = table.rows[:, -1].tolist()
    rows = []
    for low, high in bounds:
        members = [i for i, m in enumerate(ref_lens) if low < m <= high]
        value = table.score(members) if members else None
        rows.append({"bucket_low": low, "bucket_high": high,
                     "count": len(members), "metric": value})
    return rows
