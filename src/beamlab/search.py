"""Beam search over the transducer model, plus an exhaustive-search oracle.

Semantics, fully pinned so beam and exact search agree bit-for-bit:
- every live hypothesis is expanded with every emittable symbol each step;
- an expansion ending in EOS joins the finished set only if it ranks within
  the top `width` of all candidates that step (raw logprob, ties broken
  toward lexicographically smaller token sequences);
- the top `width` non-EOS expansions survive;
- the loop stops once the finished set holds `width` hypotheses or after
  cap = ceil(max_len_a * |source|) + max_len_b steps, at which point the
  survivors are force-finished by appending their EOS step;
- survivor selection always uses raw logprob; the configured normalization
  only ranks the finished set.

With width >= saturating_width(|support|, cap) nothing is ever pruned and
beam search degenerates to exhaustive enumeration, which is what exact_search
does directly.
"""

import math
import multiprocessing
import os
import sys
from dataclasses import dataclass

import numpy as np

from .corpus import BOS_ID, EOS_ID

NORMALIZATIONS = ("none", "by_length", "gnmt")


def parse_normalization(text):
    """Parse 'none', 'by_length:ALPHA' or 'gnmt:ALPHA'."""
    if text == "none":
        return ("none",)
    kind, sep, raw = text.partition(":")
    if not sep or kind not in ("by_length", "gnmt"):
        raise ValueError("unknown normalization %r" % (text,))
    try:
        alpha = float(raw)
    except ValueError:
        raise ValueError("bad alpha in normalization %r" % (text,)) from None
    if alpha < 0:
        raise ValueError("normalization alpha must be >= 0")
    return (kind, alpha)


def format_normalization(norm):
    return norm[0] if norm[0] == "none" else "%s:%g" % norm


def normalize_score(logprob, length, norm):
    """Score used to rank finished hypotheses; length counts tokens plus the
    EOS step, so the empty hypothesis has length 1."""
    kind = norm[0]
    if kind == "none":
        return logprob
    if kind == "by_length":
        return logprob / length ** norm[1]
    if kind == "gnmt":
        return logprob * 6.0 ** norm[1] / (5.0 + length) ** norm[1]
    raise ValueError("unknown normalization %r" % (norm,))


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple
    logprob: float
    normalized_score: float


@dataclass
class BeamConfig:
    width: int
    normalization: tuple = ("none",)
    max_len_a: float = 2.0
    max_len_b: int = 10

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.max_len_a < 0 or self.max_len_b < 0:
            raise ValueError("length-cap coefficients must be >= 0")
        if self.max_len_a == 0 and self.max_len_b < 1:
            raise ValueError("length cap would be 0 for every input")
        if self.normalization[0] not in NORMALIZATIONS:
            raise ValueError("unknown normalization %r" % (self.normalization,))

    def cap(self, source_len):
        return math.ceil(self.max_len_a * source_len) + self.max_len_b


@dataclass
class DecodeResult:
    hypotheses: list
    width: int


def saturating_width(support_size, cap):
    """A width at which nothing can be pruned: the number of non-EOS prefixes
    of length <= cap (an upper bound on candidates alive at any step)."""
    non_eos = support_size - 1
    return sum(non_eos ** k for k in range(cap + 1))


class DenseScorer:
    """Dense per-step log-probability rows over the model's support: the one
    place that turns the model's counts into the probabilities its docstring
    defines.

    Beam and exact search must share this code path: all probabilities flow
    through the same vector expression, so the two searches see bit-identical
    floats and their tie-breaks agree.
    """

    def __init__(self, model):
        self.model = model
        self.support = np.array(model.support, dtype=np.int64)
        self.size = len(model.support)
        self.eos_pos = model.support.index(EOS_ID)
        self._pos = {tok: i for i, tok in enumerate(model.support)}
        self._lex_rows = {}
        self._ngram_rows = {}

    def _prob_row(self, table, key):
        counts = np.zeros(self.size)
        row = table.counts.get(key)
        if row is not None:
            pos = self._pos
            for tok, count in row.items():
                if tok in pos:
                    counts[pos[tok]] = count
        total = float(table.totals[key])
        return (counts + table.add_k) / (total + table.add_k * self.size)

    def lex_row(self, source_id):
        cached = self._lex_rows.get(source_id)
        if cached is None:
            cached = self._lex_rows[source_id] = self._prob_row(
                self.model.lex, source_id)
        return cached

    def ngram_row(self, context):
        cached = self._ngram_rows.get(context)
        if cached is None:
            cached = self._ngram_rows[context] = self._prob_row(
                self.model.ngram, context)
        return cached

    def mixed_log_rows(self, source_id, contexts):
        """(len(contexts), size) array of log p(y | source_id, context)."""
        lex = self.lex_row(source_id)
        mat = np.empty((len(contexts), self.size))
        for i, ctx in enumerate(contexts):
            mat[i] = self.ngram_row(ctx)
        lam = self.model.lam
        return np.log(lam * lex + (1.0 - lam) * mat)


def _source_ids(model, source_tokens):
    if not source_tokens:
        raise ValueError("source sentence is empty")
    return [model.source_vocab.id(t) for t in source_tokens]


def _context_of(tokens, order):
    if order <= 1:
        return ()
    pad = (BOS_ID,) * (order - 1)
    return (pad + tokens)[-(order - 1):]


def _rank_key(hyp):
    return (-hyp.normalized_score, -hyp.logprob, len(hyp.tokens), list(hyp.tokens))


def beam_search(model, source_tokens, config, scorer=None):
    if scorer is None:
        scorer = DenseScorer(model)
    src_ids = _source_ids(model, source_tokens)
    n_src = len(src_ids)
    order = model.order
    cap = config.cap(n_src)
    width = config.width
    eos_pos = scorer.eos_pos
    size = scorer.size
    norm = config.normalization

    def finish(tokens, logprob):
        score = normalize_score(logprob, len(tokens) + 1, norm)
        return Hypothesis(tokens=tokens, logprob=logprob,
                          normalized_score=score)

    live_tokens = [()]
    live_lp = np.zeros(1)
    finished = []
    for step in range(1, cap + 1):
        if len(finished) >= width:
            break
        x = src_ids[min(step, n_src) - 1]
        contexts = [_context_of(toks, order) for toks in live_tokens]
        rows = scorer.mixed_log_rows(x, contexts)
        flat = (live_lp[:, None] + rows).ravel()
        # stable argsort on descending score; live_tokens is kept in
        # lexicographic order, so index order is exactly the tie-break
        ranking = np.argsort(-flat, kind="stable")
        for idx in ranking[:width]:
            if idx % size == eos_pos:
                finished.append(finish(live_tokens[idx // size], float(flat[idx])))
        survivors = []
        for idx in ranking:
            pos = idx % size
            if pos == eos_pos:
                continue
            parent = live_tokens[idx // size]
            survivors.append((parent + (model.support[pos],), float(flat[idx])))
            if len(survivors) == width:
                break
        survivors.sort(key=lambda s: s[0])
        live_tokens = [s[0] for s in survivors]
        live_lp = np.array([s[1] for s in survivors])
    else:
        step = cap

    if len(finished) < width and live_tokens:
        # length cap reached: force-finish the survivors with their EOS step
        x = src_ids[min(step + 1, n_src) - 1]
        contexts = [_context_of(toks, order) for toks in live_tokens]
        rows = scorer.mixed_log_rows(x, contexts)
        for i, toks in enumerate(live_tokens):
            finished.append(finish(toks, float(live_lp[i] + rows[i, eos_pos])))

    finished.sort(key=_rank_key)
    return DecodeResult(hypotheses=finished, width=width)


def exact_search(model, source_tokens, max_len, scorer=None):
    """Enumerate every EOS-terminated sequence up to max_len tokens and return
    the raw-logprob argmax, ties broken exactly as in beam_search."""
    if len(model.support) ** max_len > 10 ** 7:
        raise ValueError(
            "exact search over %d^%d sequences is above the 1e7 guard"
            % (len(model.support), max_len))
    if scorer is None:
        scorer = DenseScorer(model)
    src_ids = _source_ids(model, source_tokens)
    n_src = len(src_ids)
    order = model.order
    eos_pos = scorer.eos_pos
    non_eos = [(pos, tok) for pos, tok in enumerate(model.support)
               if tok != EOS_ID]
    best = None
    best_key = None

    stack = [((), 0.0)]
    while stack:
        tokens, logprob = stack.pop()
        x = src_ids[min(len(tokens) + 1, n_src) - 1]
        row = scorer.mixed_log_rows(x, [_context_of(tokens, order)])[0]
        lp = logprob + row[eos_pos]
        key = (-lp, len(tokens), list(tokens))
        if best_key is None or key < best_key:
            best_key = key
            best = Hypothesis(tokens=tokens, logprob=float(lp),
                              normalized_score=float(lp))
        if len(tokens) < max_len:
            # reversed push so children pop in lexicographic order
            for pos, tok in reversed(non_eos):
                stack.append((tokens + (tok,), logprob + row[pos]))
    return best


def rerank(result, normalization):
    """Re-rank a DecodeResult's finished set under another normalization.
    Search order is unaffected by normalization, so this equals re-decoding."""
    hyps = [Hypothesis(tokens=h.tokens, logprob=h.logprob,
                       normalized_score=normalize_score(
                           h.logprob, len(h.tokens) + 1, normalization))
            for h in result.hypotheses]
    hyps.sort(key=_rank_key)
    return DecodeResult(hypotheses=hyps, width=result.width)


# ------------------------------------------------------------ corpus decode

_WORKER = {}


def _init_worker(model, config):
    _WORKER["model"] = model
    _WORKER["config"] = config
    _WORKER["scorer"] = DenseScorer(model)


def _decode_one(source):
    return beam_search(_WORKER["model"], source, _WORKER["config"],
                       _WORKER["scorer"])


def resolve_jobs(jobs):
    """The decode worker count: `jobs` clamped to [1, os.cpu_count()], with a
    one-line warning on stderr when it had to be clamped."""
    limit = os.cpu_count() or 1
    resolved = min(max(1, jobs), limit)
    if resolved != jobs:
        print("warning: --jobs %d is outside 1..%d; using %d"
              % (jobs, limit, resolved), file=sys.stderr)
    return resolved


def decode_corpus(model, sources, config, jobs=1):
    """Decode every source sentence; results in input order regardless of
    worker count. The worker count goes through resolve_jobs."""
    sources = list(sources)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(sources) < 2:
        scorer = DenseScorer(model)
        return [beam_search(model, src, config, scorer) for src in sources]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(sources) // (jobs * 4))
    with ctx.Pool(jobs, initializer=_init_worker,
                  initargs=(model, config)) as pool:
        return pool.map(_decode_one, sources, chunksize=chunk)


# ------------------------------------------------------------------- files

def format_decode_tsv(results, vocab, topk=1):
    """One line per (input, rank<=topk): rank, normalized_score, logprob,
    token text; floats as repr so parsing recovers them exactly."""
    lines = []
    for result in results:
        for rank, hyp in enumerate(result.hypotheses[:topk], start=1):
            text = " ".join(vocab.decode(list(hyp.tokens)))
            lines.append("%d\t%r\t%r\t%s"
                         % (rank, hyp.normalized_score, hyp.logprob, text))
    return "".join(line + "\n" for line in lines)


def parse_decode_tsv(text):
    """Inverse of format_decode_tsv: a list (per input) of
    (rank, normalized_score, logprob, tokens) entries."""
    inputs = []
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError("decode line needs 4 tab-separated fields: %r" % line)
        rank = int(fields[0])
        entry = (rank, float(fields[1]), float(fields[2]), fields[3].split())
        if rank == 1:
            inputs.append([entry])
        else:
            inputs[-1].append(entry)
    return inputs

