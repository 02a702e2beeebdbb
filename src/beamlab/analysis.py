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
read from a metrics.SentenceTable per decode; a caller that already holds the
tables passes them in, so each pair is scored once.
"""

import math
from dataclasses import asdict, dataclass, fields

from .errors import DataError
from .metrics import sentence_table

CATEGORIES = ("Improved", "Prefix", "OtherDrop")

DEFAULT_BUCKET_EDGES = (10, 20, 30, 40, 50, 60)


def _require_same_length(**named):
    lengths = {name: len(v) for name, v in named.items()}
    if len(set(lengths.values())) > 1:
        raise DataError("misaligned inputs: %s" % (lengths,))


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

def classify(hyps_small, hyps_large, refs, metric="bleu", tables=None):
    """Assign each sentence to Improved, Prefix, or OtherDrop, in that
    precedence order. Improved means the large-beam hypothesis scores at
    least as well per sentence (BLEU: >=, WER: <=). `tables` may give the
    (small, large) sentence tables of the two decodes; the metric is then
    theirs."""
    _require_same_length(hyps_small=hyps_small, hyps_large=hyps_large,
                         refs=refs)
    small, large = tables or (sentence_table(hyps_small, refs, metric),
                              sentence_table(hyps_large, refs, metric))
    small_scores = small.sentence_scores()
    large_scores = large.sentence_scores()
    categories = []
    for hs, hl, s, l in zip(hyps_small, hyps_large, small_scores,
                            large_scores):
        improved = l >= s if small.metric == "bleu" else l <= s
        if improved:
            categories.append("Improved")
        elif is_prefix_modulo_eos(hl, hs):
            categories.append("Prefix")
        else:
            categories.append("OtherDrop")
    return categories


# ------------------------------------------------------------- category report

@dataclass(frozen=True)
class CategoryRow:
    category: str
    count: int
    fraction: float
    metric_small: float
    metric_large: float
    mean_len_small: float
    mean_len_large: float
    contribution: float
    length_contribution: float


# the category report's CSV columns (and JSON row keys)
CATEGORY_COLUMNS = tuple(f.name for f in fields(CategoryRow))


@dataclass(frozen=True)
class CategoryReport:
    metric: str
    n_sentences: int
    rows: tuple


def contribution(metric_small, metric_large, fraction):
    """Weighted share of the corpus-level shift attributed to one category."""
    return (metric_large - metric_small) * fraction


def category_report(categories, hyps_small, hyps_large, refs, metric="bleu",
                    tables=None):
    """Per-category corpus metrics, mean hypothesis lengths, and weighted
    contributions. Empty categories report null metrics and contribution 0.
    `tables` is as in classify."""
    _require_same_length(categories=categories, hyps_small=hyps_small,
                         hyps_large=hyps_large, refs=refs)
    bad = set(categories) - set(CATEGORIES)
    if bad:
        raise DataError("unknown categories: %s" % sorted(bad))
    n = len(refs)
    if n == 0:
        raise DataError("need at least one classified sentence")
    small, large = tables or (sentence_table(hyps_small, refs, metric),
                              sentence_table(hyps_large, refs, metric))
    rows = []
    for cat in CATEGORIES:
        members = [i for i, c in enumerate(categories) if c == cat]
        count = len(members)
        fraction = count / n
        if count == 0:
            rows.append(CategoryRow(cat, 0, 0.0, None, None, None, None,
                                    0.0, 0.0))
            continue
        metric_small = small.score(members)
        metric_large = large.score(members)
        mean_small = sum(len(hyps_small[i]) for i in members) / count
        mean_large = sum(len(hyps_large[i]) for i in members) / count
        rows.append(CategoryRow(
            cat, count, fraction, metric_small, metric_large,
            mean_small, mean_large,
            contribution(metric_small, metric_large, fraction),
            contribution(mean_small, mean_large, fraction)))
    return CategoryReport(small.metric, n, tuple(rows))


# --------------------------------------------------------------- length report

def length_report(hyps_by_beam, categories=None):
    """Mean hypothesis token length per beam, optionally split by category."""
    if not hyps_by_beam:
        raise DataError("no decoded beams given")
    sizes = {len(hyps) for hyps in hyps_by_beam.values()}
    if len(sizes) > 1 or sizes == {0}:
        raise DataError("beams decode different test sets: sizes %s"
                        % sorted(sizes))
    n = sizes.pop()
    report = {"means": {beam: sum(len(h) for h in hyps) / n
                        for beam, hyps in hyps_by_beam.items()}}
    if categories is not None:
        if len(categories) != n:
            raise DataError("classification covers %d sentences, beams have %d"
                            % (len(categories), n))
        by_category = {}
        for beam, hyps in hyps_by_beam.items():
            per = {}
            for cat in CATEGORIES:
                lens = [len(h) for h, c in zip(hyps, categories) if c == cat]
                per[cat] = sum(lens) / len(lens) if lens else None
            by_category[beam] = per
        report["by_category"] = by_category
    return report


# -------------------------------------------------------------------- buckets

@dataclass(frozen=True)
class Bucket:
    low: float
    high: float
    count: int
    metric: float


@dataclass(frozen=True)
class BucketReport:
    metric: str
    edges: tuple
    buckets: tuple


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


def bucket_quality(hyps, refs, edges=DEFAULT_BUCKET_EDGES, metric="bleu",
                   table=None):
    """Corpus metric per reference-length bucket. Buckets are (prev, edge]
    starting from 0, plus an open final bucket past the last finite edge.
    `table` may give the decode's sentence table."""
    _require_same_length(hyps=hyps, refs=refs)
    if not refs:
        raise DataError("need at least one sentence pair")
    edges = check_bucket_edges(edges)
    bounds = list(zip((0,) + edges, edges))
    if not math.isinf(edges[-1]):
        bounds.append((edges[-1], math.inf))
    if table is None:
        table = sentence_table(hyps, refs, metric)
    buckets = []
    for low, high in bounds:
        members = [i for i, r in enumerate(refs) if low < len(r) <= high]
        value = table.score(members) if members else None
        buckets.append(Bucket(low, high, len(members), value))
    return BucketReport(table.metric, edges, tuple(buckets))


# -------------------------------------------------------------- serialization

# the columns of a bucket CSV row
BUCKET_COLUMNS = ("bucket_low", "bucket_high", "count", "metric")


def bucket_rows(report, open_high=math.inf):
    """One row per bucket under BUCKET_COLUMNS. The high edge of the open
    final bucket is written as `open_high`: inf in CSV, so that every cell
    stays numeric, and None in JSON."""
    return [{"bucket_low": b.low,
             "bucket_high": open_high if math.isinf(b.high) else b.high,
             "count": b.count,
             "metric": b.metric} for b in report.buckets]


def _finite_or_none(value):
    return None if value is not None and math.isinf(value) else value


def category_report_blob(report):
    return {
        "metric": report.metric,
        "n_sentences": report.n_sentences,
        "categories": [asdict(r) for r in report.rows],
    }


def bucket_report_blob(report):
    return {
        "metric": report.metric,
        "edges": [_finite_or_none(e) for e in report.edges],
        "buckets": [{
            "low": b.low,
            "high": _finite_or_none(b.high),
            "count": b.count,
            "metric": b.metric,
        } for b in report.buckets],
    }
