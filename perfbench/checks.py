"""Independent output checkers for the benchmark.

Written from the textbook definitions and from the formula in the docstring
of beamlab's model module, without importing beamlab.metrics, beamlab.search
or beamlab.model, so that agreement with the program's outputs is evidence
rather than a comparison of the code with itself.
"""

import hashlib
import json
import math
import os
from collections import Counter

BOS_ID, EOS_ID, UNK_ID = 0, 1, 2
MAX_ORDER = 4


# ----------------------------------------------------------------- metrics

def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hyps, refs):
    """Corpus BLEU: clipped n-gram precisions of orders 1..4 summed over the
    corpus, geometric mean, brevity penalty min(1, exp(1 - r/c)); 0 when any
    precision is 0 or the hypotheses are empty."""
    if len(hyps) != len(refs):
        raise ValueError("%d hypotheses for %d references"
                         % (len(hyps), len(refs)))
    matched = [0] * MAX_ORDER
    possible = [0] * MAX_ORDER
    for hyp, ref in zip(hyps, refs):
        for n in range(1, MAX_ORDER + 1):
            ref_counts = _ngrams(ref, n)
            matched[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in _ngrams(hyp, n).items())
            possible[n - 1] += max(0, len(hyp) - n + 1)
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0 or 0 in matched:
        return 0.0
    precisions = [m / p for m, p in zip(matched, possible)]
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions)
                                 / MAX_ORDER)


def levenshtein(a, b):
    """Unit-cost token edit distance."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1,
                           cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def corpus_wer(hyps, refs):
    """Total edit distance over total reference tokens."""
    if len(hyps) != len(refs):
        raise ValueError("%d hypotheses for %d references"
                         % (len(hyps), len(refs)))
    return (sum(levenshtein(h, r) for h, r in zip(hyps, refs))
            / sum(len(r) for r in refs))


def corpus_metric(metric, hyps, refs):
    if metric == "bleu":
        return corpus_bleu(hyps, refs)
    return corpus_wer(hyps, refs)


# ------------------------------------------------------------------- model

def _row(counts):
    counts = {int(y): c for y, c in counts.items()}
    return counts, sum(counts.values())


class CountModel:
    """The count model read from its JSON file, scored as the model module's
    docstring states:

        p(y | state) = lambda * p_lex(y | x_a(t))
                       + (1 - lambda) * p_ngram(y | ctx)

    with a(t) = min(t, |x|), ctx the last order-1 target ids (BOS-padded),
    and each table add-k smoothed over the emission support:
    (count + k) / (row total + k * |support|).
    """

    def __init__(self, blob):
        self.lam = blob["lambda"]
        self.order = blob["order"]
        self.k_lex = blob["add_k_lex"]
        self.k_ngram = blob["add_k_ngram"]
        self.support = list(blob["support"])
        reserved = ["<s>", "</s>", "<unk>"]
        self.source_ids = {t: i for i, t in
                           enumerate(reserved + blob["source_vocab"])}
        self.target_ids = {t: i for i, t in
                           enumerate(reserved + blob["target_vocab"])}
        self.target_tokens = reserved + blob["target_vocab"]
        self.lex = {int(x): _row(row) for x, row in blob["lex_counts"].items()}
        self.ngram = {tuple(int(i) for i in ctx.split()): _row(row)
                      for ctx, row in blob["ngram_counts"].items()}

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def count_totals(self):
        """(sum of lexical counts, sum of n-gram counts)."""
        return (sum(total for _, total in self.lex.values()),
                sum(total for _, total in self.ngram.values()))

    def _smoothed(self, row, y, k):
        counts, total = row or ({}, 0)
        return (counts.get(y, 0) + k) / (float(total) + k * len(self.support))

    def prob(self, source_ids, t, context, y):
        x = source_ids[min(t, len(source_ids)) - 1]
        lex = self._smoothed(self.lex.get(x), y, self.k_lex)
        ngram = self._smoothed(self.ngram.get(context), y, self.k_ngram)
        return self.lam * lex + (1.0 - self.lam) * ngram

    def _start(self, source_tokens):
        return ([self.source_ids.get(t, UNK_ID) for t in source_tokens],
                (BOS_ID,) * (self.order - 1))

    def _shift(self, context, y):
        return (context + (y,))[1:] if self.order > 1 else ()

    def logprob(self, source_tokens, target_tokens):
        """Log probability of the target tokens plus the final EOS step."""
        src, context = self._start(source_tokens)
        ids = [self.target_ids.get(t, UNK_ID) for t in target_tokens]
        total = 0.0
        for t, y in enumerate(ids + [EOS_ID], start=1):
            total += math.log(self.prob(src, t, context, y))
            context = self._shift(context, y)
        return total

    def greedy(self, source_tokens, cap):
        """Width-1 search: take the most probable support id each step (the
        support is ascending, so ties go to the smaller id) and stop when
        EOS ranks first; after `cap` steps append the EOS step. Returns
        (tokens, logprob)."""
        src, context = self._start(source_tokens)
        out = []
        total = 0.0
        for t in range(1, cap + 1):
            best_y, best_lp = None, None
            for y in self.support:
                lp = math.log(self.prob(src, t, context, y))
                if best_lp is None or lp > best_lp:
                    best_y, best_lp = y, lp
            total += best_lp
            if best_y == EOS_ID:
                return out, total
            out.append(self.target_tokens[best_y])
            context = self._shift(context, best_y)
        total += math.log(self.prob(src, cap + 1, context, EOS_ID))
        return out, total


def length_cap(source_len, max_len_a, max_len_b):
    return math.ceil(max_len_a * source_len) + max_len_b


def normalized(logprob, length, norm):
    """Finished-hypothesis score under 'none', 'by_length:A' or 'gnmt:A';
    length counts the tokens plus the EOS step."""
    if norm == "none":
        return logprob
    kind, _, alpha = norm.partition(":")
    alpha = float(alpha)
    if kind == "by_length":
        return logprob / length ** alpha
    if kind == "gnmt":
        return logprob * 6.0 ** alpha / (5.0 + length) ** alpha
    raise ValueError("unknown normalization %r" % (norm,))


# ------------------------------------------------------------------- files

def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [line.split() for line in handle.read().splitlines()]


def read_decode_tsv(path):
    """Rank-1 lines of a decode file as (normalized_score, logprob, tokens)."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            rank, score, logprob, text = line.split("\t")
            if rank == "1":
                rows.append((float(score), float(logprob), text.split()))
    return rows


def artifact_digest(directory):
    """The artifact digest: sha256 over the sorted `sha256sum` listing of
    every file except manifest.json, first 16 hex digits. Equals

        find . -type f ! -name manifest.json | LC_ALL=C sort \\
            | xargs sha256sum | sha256sum | cut -c1-16

    run inside the directory."""
    paths = []
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name != "manifest.json":
                rel = os.path.relpath(os.path.join(root, name), directory)
                paths.append("./" + rel.replace(os.sep, "/"))
    listing = []
    for rel in sorted(paths, key=lambda p: p.encode()):
        with open(os.path.join(directory, rel), "rb") as handle:
            listing.append("%s  %s\n" % (hashlib.sha256(handle.read())
                                         .hexdigest(), rel))
    return hashlib.sha256("".join(listing).encode()).hexdigest()[:16]
