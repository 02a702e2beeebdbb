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
- survivor selection always uses raw logprob, and each result holds its
  finished set best first by raw logprob; `rerank` ranks it under a
  normalization, after the search.

With width >= saturating_width(|support|, cap) nothing is ever pruned and
beam search degenerates to exhaustive enumeration, which is what exact_search
does directly.

decode_corpus searches the sentences of one call in lock step, a step of
every unfinished sentence at a time; a sentence's result does not depend on
the others in its batch.
"""

import heapq
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import BOS_ID, EOS_ID

# the largest length-cap coefficients a search accepts
MAX_LEN_A = 16.0
MAX_LEN_B = 1024
# the largest normalization alpha: length ** alpha stays a finite float at
# every length below 10**30 (an alpha of 400 overflows it at length 20)
MAX_ALPHA = 10.0


def parse_normalization(text):
    """Parse 'none', 'by_length:ALPHA' or 'gnmt:ALPHA'. format_normalization
    writes ALPHA back in six significant digits, so a longer ALPHA is
    refused: two alphas must never share a name. -0 is read as 0."""
    if text == "none":
        return ("none",)
    kind, sep, raw = text.partition(":")
    if not sep or kind not in ("by_length", "gnmt"):
        raise ValueError("bad normalization %r: not none, by_length:ALPHA "
                         "or gnmt:ALPHA" % (text,))
    try:
        alpha = float(raw) + 0.0
    except ValueError:
        raise ValueError("bad normalization %r: alpha is not a number"
                         % (text,)) from None
    if not 0 <= alpha <= MAX_ALPHA:
        raise ValueError("bad normalization %r: alpha must be finite and in "
                         "[0, %g]" % (text, MAX_ALPHA))
    # a subnormal alpha has too few bits to keep the six digits %g writes
    if float("%g" % alpha) != alpha or 0 < alpha < sys.float_info.min:
        raise ValueError("bad normalization %r: alpha must be 0 or a normal "
                         "float of at most six significant digits" % (text,))
    return (kind, alpha)


def format_normalization(norm):
    return norm[0] if norm[0] == "none" else "%s:%g" % norm


def normalization_slug(norm):
    """The normalization as decode file names spell it."""
    return format_normalization(norm).replace(":", "_")


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


class Hypothesis(NamedTuple):
    tokens: tuple
    logprob: float
    normalized_score: float


@dataclass
class BeamConfig:
    width: int
    max_len_a: float = 2.0
    max_len_b: int = 10

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if not (0 <= self.max_len_a <= MAX_LEN_A
                and 0 <= self.max_len_b <= MAX_LEN_B):
            raise ValueError("length-cap coefficients must be in [0, %g] and "
                             "[0, %d], got %r and %r"
                             % (MAX_LEN_A, MAX_LEN_B, self.max_len_a,
                                self.max_len_b))
        if self.max_len_a == 0 and self.max_len_b < 1:
            raise ValueError("length cap would be 0 for every input")

    def cap(self, source_len):
        return math.ceil(self.max_len_a * source_len) + self.max_len_b


@dataclass
class DecodeResult:
    """Finished hypotheses, best first (a search's whole set by logprob)."""
    hypotheses: list


def saturating_width(support_size, cap):
    """A width at which nothing can be pruned: the number of non-EOS prefixes
    of length <= cap (an upper bound on candidates alive at any step)."""
    non_eos = support_size - 1
    return sum(non_eos ** k for k in range(cap + 1))


class _RowTable:
    """Rows (counts + add_k) / (total + add_k * size) * scale of a
    model.CountTable over the support: one per key, in key order, plus a
    last row shared by every key without counts (counts 0, total 0). Each
    row is built the first time a lookup asks for it, by slicing the
    table's arrays, element for element by the same expression whenever it
    is built, so its floats do not depend on the order.

    The row array is allocated once at full size and never copied. Rows are
    written in slot order from the start, and the operating system backs an
    allocated page with memory only once it is written, so memory grows
    with the rows a search reaches, not with the model."""

    def __init__(self, table, support, scale):
        self.table = table
        self.support = support
        self.scale = scale
        # the shared row: no cells and a total of 0, past the last key
        self.offsets = np.append(table.offsets, table.offsets[-1])
        self.totals = np.append(table.totals, 0)
        self.slot = np.full(len(self.totals), -1)
        self.rows = np.empty((len(self.totals), len(support)))
        self.filled = 0

    def take(self, idx):
        """The rows at positions `idx` (an int array)."""
        slots = self.slot.take(idx)
        if slots[slots.argmin()] < 0:
            # a set, since np.unique would import numpy.ma (about 1 MB)
            self._build(np.array(sorted(set(idx[slots < 0].tolist()))))
            slots = self.slot.take(idx)
        return self.rows.take(slots, axis=0)

    def _build(self, idx):
        start = self.filled
        stop = start + len(idx)
        out = self.rows[start:stop]
        table = self.table
        # the flat positions of the rows' cells, row after row
        first = self.offsets.take(idx)
        sizes = self.offsets.take(idx + 1) - first
        cells = np.arange(sizes.sum()) + np.repeat(first - sizes.cumsum()
                                                   + sizes, sizes)
        out[:] = 0.0
        out[np.repeat(np.arange(len(idx)), sizes),
            self.support.searchsorted(table.tokens.take(cells))] = \
            table.counts.take(cells)
        out += table.add_k
        totals = self.totals.take(idx) + table.add_k * len(self.support)
        out /= totals[:, None]
        out *= self.scale
        self.slot[idx] = np.arange(start, stop)
        self.filled = stop


class DenseScorer:
    """Dense per-step log-probability rows over the model's support: the one
    place that turns the model's counts into the probabilities its docstring
    defines.

    Beam and exact search must share this code path: all probabilities flow
    through the same vector expression, so the two searches see bit-identical
    floats and their tie-breaks agree.

    Both row tables are scaled by lambda and 1 - lambda (a product is the
    same float whenever it is taken) and filled on first use. The lexical
    table has one row per source id with counts, and one shared row for the
    rest. The n-gram table has one row per trained context, in the model's
    order of context codes, plus one last add-k row shared by every context
    the model never saw. A context (the last order-1 target ids, BOS-padded)
    is coded as its ids read as digits in base `base`, as in the model; BOS
    is 0, so the empty prefix has code 0 and padding costs nothing. Searches
    carry codes, rolled forward one token at a time.
    """

    def __init__(self, model):
        self.model = model
        self.support = np.array(model.support, dtype=np.int64)
        self.size = len(model.support)
        self.eos_pos = model.support.index(EOS_ID)
        self.base = len(model.target_vocab)
        self.modulus = self.base ** (model.order - 1)
        self.start_code = self.context_code((BOS_ID,) * (model.order - 1))
        # the sentinel sorts after every code, so a lookup never runs off
        # the end, and its position is the shared unseen-context row
        self._codes = np.append(model.ngram.keys, self.modulus)
        self._ngram = _RowTable(model.ngram, self.support, 1.0 - model.lam)
        self._lex = _RowTable(model.lex, self.support, model.lam)
        # the lexical row of each source id
        self._lex_index = np.full(len(model.source_vocab), len(model.lex.keys))
        self._lex_index[model.lex.keys] = np.arange(len(model.lex.keys))

    def context_code(self, context):
        """The code of an (order-1)-tuple of target ids."""
        code = 0
        for tok in context:
            code = code * self.base + tok
        return code

    def roll(self, codes, tokens):
        """The codes after appending `tokens` to contexts `codes` (ints or
        int arrays)."""
        return (codes * self.base + tokens) % self.modulus

    def mixed_log_rows(self, source_ids, contexts):
        """(len(contexts), size) array of log p(y | source id, context), for
        an int array of context codes and one source id per context (or one
        for all of them)."""
        rows = self._codes.searchsorted(contexts)
        rows[self._codes.take(rows) != contexts] = len(self._codes) - 1
        mixed = self._ngram.take(rows)
        mixed += self._lex.take(self._lex_index.take(
            np.atleast_1d(source_ids)))
        return np.log(mixed, out=mixed)


def _source_ids(model, source_tokens):
    if not source_tokens:
        raise ValueError("source sentence is empty")
    return [model.source_vocab.id(t) for t in source_tokens]


# the live rows one lock-step batch holds at most, unless a single
# sentence's beam is wider; it bounds the memory of one step's candidates
ROW_BUDGET = 256


def _select(cost, per, width, eos_pos):
    """One beam step's selection over a (rows, size) cost array that holds
    `per` consecutive rows of each sentence. In each sentence's stable
    ranking of its candidates by (cost, flat index), the EOS candidates
    among the first `width` are admitted and the first `width` non-EOS
    candidates are kept. Returns both as flat indices (row * size + support
    position) into `cost`, the kept ones ascending: the children of rows in
    lexicographic order, over the sorted support, are in lexicographic order
    by flat index.

    Only a prefix of each ranking is sorted: the `width + per` best
    candidates (found by np.partition), widened to every tie. It holds
    every admission and every kept candidate, since at most one candidate
    per row ends in EOS."""
    n_rows, size = cost.shape
    if width == 1:
        # one row per sentence, and the head of its ranking is the row's
        # argmin, ties going to the lowest index
        best = cost.argmin(axis=1) + np.arange(0, n_rows * size, size)
        eos = best % size == eos_pos
        return best[eos], best[~eos]
    span = per * size
    k = width + per
    if n_rows == per:
        # one sentence: its ranking is the flat array's
        flat = cost.ravel()
        if k >= span:
            ranked = flat.argsort(kind="stable")
        else:
            kth = np.partition(flat, k - 1)[k - 1]
            ranked = (flat <= kth).nonzero()[0]
            ranked = ranked[flat.take(ranked).argsort(kind="stable")]
        is_eos = ranked % size == eos_pos
        kept = ranked[~is_eos][:width]
        kept.sort()
        return ranked[:width][is_eos[:width]], kept
    # several sentences: a block row of candidates per sentence
    block = cost.reshape(-1, span)
    k = min(k, span)
    thr = np.partition(block, k - 1, axis=1)[:, k - 1]
    flat = np.flatnonzero(block <= thr[:, None])
    sent = flat // span
    order = np.lexsort((cost.ravel().take(flat), sent))
    sent = sent.take(order)
    flat = flat.take(order)
    # each candidate's rank, and its rank among the non-EOS candidates, in
    # its sentence's ranking
    head = sent.searchsorted(sent)
    is_eos = flat % size == eos_pos
    admit = is_eos & (np.arange(len(flat)) < head + width)
    non_eos = ~is_eos
    before = non_eos.cumsum() - non_eos
    keep = non_eos & (before < before.take(head) + width)
    kept = flat[keep]
    kept.sort()
    return flat[admit], kept


def _tokens_of(levels, rows, parents, tokens):
    """The token tuples of the rows in `rows`, a list of int arrays, one per
    level in `levels` (ascending; a row of level L holds an L-token prefix).
    They are read back along the back-pointers: `parents[L - 1]` and
    `tokens[L - 1]` give each level-L row's row in level L - 1 and its last
    token."""
    ptr = np.concatenate(rows)
    ends = np.cumsum([len(r) for r in rows])
    out = np.empty((levels[-1], len(ptr)), dtype=np.int64)
    # the entries at least L tokens long are those from first[L] on
    first = np.append(0, ends).take(np.searchsorted(
        levels, range(levels[-1] + 1))).tolist()
    for level in range(levels[-1], 0, -1):
        at = ptr[first[level]:]
        tokens[level - 1].take(at, out=out[level - 1, first[level]:])
        at[:] = parents[level - 1].take(at)
    tuples = []
    start = 0
    for level, end in zip(levels, ends.tolist()):
        tuples += map(tuple, out[:level, start:end].T.tolist())
        start = end
    return tuples


def _search(scorer, batch, config):
    """Beam search of every source-id list in `batch` in lock step: each
    step scores the live rows of every unfinished sentence in one
    mixed_log_rows call. One DecodeResult per sentence, in order."""
    width = config.width
    size = scorer.size
    eos_pos = scorer.eos_pos
    n_sent = len(batch)
    caps = np.array([config.cap(len(ids)) for ids in batch])
    next_cap = caps.min()
    # the source id each sentence reads at step s, its min(s, |x|)-th, is
    # in row min(s, longest) - 1 of this table, the sources padded with
    # their last ids
    lengths = np.array([len(ids) for ids in batch])
    starts = np.cumsum(lengths) - lengths
    flat_src = np.array([i for ids in batch for i in ids], dtype=np.int64)
    src_at = flat_src.take(np.minimum(
        np.arange(lengths.max())[:, None] + starts, starts + lengths - 1))
    longest = len(src_at)
    n_finished = [0] * n_sent
    searching = np.ones(n_sent, dtype=bool)

    # the live rows: sentence after sentence, each sentence's rows in
    # lexicographic order of their prefixes. A row's cost is its negated
    # logprob, so that ascending cost order is the ranking; negation is
    # exact, so -(lp + x) == -lp - x bit for bit
    seg = np.arange(n_sent)
    per = 1
    codes = np.full(n_sent, scorer.start_code)
    cost = np.zeros(n_sent)
    # the live rows of level L (L-token prefixes) as back-pointers: their
    # row in level L - 1 and their last token
    parents, tokens = [], []
    # finished entries, a chunk per step: their sentences, the rows of
    # their prefixes and the level of those rows, their logprobs
    finished = []
    step = 0
    while len(seg):
        step += 1
        # the rows of one sentence share its source id
        x = src_at[min(step, longest) - 1]
        rows = scorer.mixed_log_rows(x if n_sent == 1 else x.take(seg),
                                     codes)
        index = None
        if next_cap < step:
            # the sentences past their length cap are force-finished with
            # this step's EOS candidates
            next_cap = caps.min(where=caps >= step, initial=caps.max() + 1)
            capped = caps.take(seg) < step
            at = capped.nonzero()[0]
            if len(at):
                finished.append((seg.take(at), at, step - 1,
                                 -cost.take(at) + rows[at, eos_pos]))
                index = (~capped).nonzero()[0]
                seg = seg.take(index)
                cost = cost.take(index)
                codes = codes.take(index)
                rows = rows.take(index, axis=0)
                if not len(seg):
                    break
        np.subtract(cost[:, None], rows, out=rows)
        admitted, kept = _select(rows, per, width, eos_pos)
        flat = rows.ravel()
        if len(admitted):
            parent = admitted // size
            done = seg.take(parent)
            finished.append((done, parent if index is None
                             else index.take(parent), step - 1,
                             -flat.take(admitted)))
            full = []
            for s in done.tolist():
                n_finished[s] += 1
                if n_finished[s] == width:
                    full.append(s)
            if full:
                # a sentence whose finished set is full stops here
                searching[full] = False
                kept = kept[searching.take(seg.take(kept // size))]
        # every sentence keeps as many rows: its first `width` of the
        # `per * (size - 1)` candidates that do not end in EOS
        per = min(width, per * (size - 1))
        parent, pos = np.divmod(kept, size)
        tok = scorer.support.take(pos)
        parents.append(parent if index is None else index.take(parent))
        tokens.append(tok)
        cost = flat.take(kept)
        codes = scorer.roll(codes.take(parent), tok)
        seg = seg.take(parent)

    results = [[] for _ in range(n_sent)]
    if finished:
        who, prefixes, levels, lps = zip(*finished)
        for s, toks, lp in zip(np.concatenate(who).tolist(),
                               _tokens_of(levels, prefixes, parents, tokens),
                               np.concatenate(lps).tolist()):
            results[s].append(Hypothesis(toks, lp, lp))
    return [rerank(DecodeResult(hyps), ("none",)) for hyps in results]


def _decode(scorer, batch, config):
    """_search over consecutive groups of `batch` whose live rows stay
    within ROW_BUDGET."""
    group = max(1, ROW_BUDGET // config.width)
    return [result for i in range(0, len(batch), group)
            for result in _search(scorer, batch[i:i + group], config)]


def beam_search(model, source_tokens, config, scorer=None):
    """Beam search of one source sentence: a batch of one."""
    if scorer is None:
        scorer = DenseScorer(model)
    return _search(scorer, [_source_ids(model, source_tokens)], config)[0]


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
    eos_pos = scorer.eos_pos
    non_eos = [(pos, tok) for pos, tok in enumerate(model.support)
               if tok != EOS_ID]
    best = None
    best_key = None

    stack = [((), scorer.start_code, 0.0)]
    while stack:
        tokens, code, logprob = stack.pop()
        x = src_ids[min(len(tokens) + 1, n_src) - 1]
        row = scorer.mixed_log_rows(x, np.array([code]))[0]
        lp = logprob + row[eos_pos]
        key = (-lp, len(tokens), list(tokens))
        if best_key is None or key < best_key:
            best_key = key
            best = Hypothesis(tokens=tokens, logprob=float(lp),
                              normalized_score=float(lp))
        if len(tokens) < max_len:
            # reversed push so children pop in lexicographic order
            for pos, tok in reversed(non_eos):
                stack.append((tokens + (tok,), scorer.roll(code, tok),
                              logprob + row[pos]))
    return best


def rerank(result, normalization, topk=None):
    """The first `topk` hypotheses of a DecodeResult (all when topk is None),
    best first under `normalization`: by normalized score, then logprob,
    then shorter, then lexicographically smaller tokens. Only the entries
    returned are built. Search order does not depend on the normalization,
    so this equals re-decoding."""
    if topk is not None and topk < 1:
        raise ValueError("topk must be >= 1, got %d" % topk)
    keys = [(-normalize_score(h.logprob, len(h.tokens) + 1, normalization),
             -h.logprob, len(h.tokens), h.tokens) for h in result.hypotheses]
    # nsmallest(k, keys) equals sorted(keys)[:k], and negation is exact
    best = sorted(keys) if topk is None else heapq.nsmallest(topk, keys)
    return DecodeResult([Hypothesis(tokens, -neg_lp, -neg_score)
                         for neg_score, neg_lp, _, tokens in best])


# ------------------------------------------------------------ corpus decode

_WORKER = {}


def _init_worker(config, scorer):
    _WORKER["config"] = config
    _WORKER["scorer"] = scorer


def _decode_chunk(batch):
    return _decode(_WORKER["scorer"], batch, _WORKER["config"])


def resolve_jobs(jobs):
    """The decode worker count: `jobs` clamped to [1, os.cpu_count()], with a
    one-line warning on stderr when it had to be clamped."""
    limit = os.cpu_count() or 1
    resolved = min(max(1, jobs), limit)
    if resolved != jobs:
        print("warning: --jobs %d is outside 1..%d; using %d"
              % (jobs, limit, resolved), file=sys.stderr)
    return resolved


def decode_corpus(model, sources, config, jobs=1, scorer=None):
    """Decode every source sentence; results in input order regardless of
    worker count. The worker count goes through resolve_jobs; each worker
    task decodes one contiguous chunk of sentences in lock step. A scorer
    of the model may be passed in to share its tables across calls; fork
    workers inherit it rather than building their own."""
    batch = [_source_ids(model, source) for source in sources]
    jobs = resolve_jobs(jobs)
    if scorer is None:
        scorer = DenseScorer(model)
    if jobs == 1 or len(batch) < 2:
        return _decode(scorer, batch, config)
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(batch) // (jobs * 4))
    with ctx.Pool(jobs, initializer=_init_worker,
                  initargs=(config, scorer)) as pool:
        # one chunk per task, so the workers share the chunks evenly
        parts = pool.map(_decode_chunk, [batch[i:i + chunk] for i in
                                         range(0, len(batch), chunk)],
                         chunksize=1)
    return [result for part in parts for result in part]


# ------------------------------------------------------------------- files

def format_decode_tsv(results, vocab):
    """One line per (input, hypothesis of its result): rank,
    normalized_score, logprob, token text; floats as repr so parsing
    recovers them exactly."""
    lines = []
    for result in results:
        for rank, hyp in enumerate(result.hypotheses, start=1):
            text = " ".join(vocab.decode(list(hyp.tokens)))
            lines.append("%d\t%r\t%r\t%s"
                         % (rank, hyp.normalized_score, hyp.logprob, text))
    return "".join(line + "\n" for line in lines)


def parse_decode_tsv(text):
    """Inverse of format_decode_tsv: a list (per input) of
    (rank, normalized_score, logprob, tokens) entries. Rank 1 opens an
    input and its ranks run 1, 2, 3, ... in order; ValueError names the
    first line that breaks this."""
    inputs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        try:
            if len(fields) != 4:
                raise ValueError("needs 4 tab-separated fields")
            rank = int(fields[0])
            if rank not in (1, len(inputs[-1]) + 1 if inputs else 1):
                raise ValueError("rank %d; an input's ranks run 1, 2, 3, ..."
                                 % rank)
            entry = (rank, float(fields[1]), float(fields[2]),
                     fields[3].split())
        except ValueError as exc:
            raise ValueError("line %d: %s: %r" % (lineno, exc, line)) from None
        if rank == 1:
            inputs.append([entry])
        else:
            inputs[-1].append(entry)
    return inputs
