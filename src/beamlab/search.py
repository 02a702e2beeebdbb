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
  finished set as arrays, in admission order; `rerank` ranks it under a
  normalization, after the search.

With a width of at least the number of non-EOS prefixes of length <= cap,
sum over k <= cap of (|support| - 1)^k, nothing is ever pruned and beam
search degenerates to exhaustive enumeration, which is what exact_search
does directly.

decode_corpus searches the sentences of one call in lock-step groups of
consecutive sentences, a step of every unfinished sentence of a group at a
time, scored in one call and selected by one sort-free kernel; a sentence's
result does not depend on the others in its group.
"""

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
# the most candidates one beam step may score: the width (the most live
# rows of a sentence) times the support; each float array of such a step
# then takes at most 80 MB
MAX_STEP_CANDIDATES = 10 ** 7
# the largest normalization alpha: length ** alpha stays a finite float at
# every length below 10**30 (an alpha of 400 overflows it at length 20)
MAX_ALPHA = 10.0
# a scorer builds its whole row tables when it is created if they and the
# dense code index take at most this many 8-byte cells (16 MB); a larger
# model's rows are built on first use
WHOLE_TABLE_CELLS = 2 ** 21


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
        if not 1 <= self.width <= MAX_STEP_CANDIDATES:
            raise ValueError("width must be in [1, %d], got %r"
                             % (MAX_STEP_CANDIDATES, self.width))
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


class DecodeResult(NamedTuple):
    """A search's finished set of one sentence, in admission order: entry i
    has the tokens ids[offsets[i]:offsets[i + 1]] and the logprob
    logprobs[i]. No two entries share a token sequence."""
    ids: np.ndarray
    offsets: np.ndarray
    logprobs: np.ndarray

    @property
    def hypotheses(self):
        """Every entry, best first by raw logprob (the `none` order), built
        anew on each access."""
        return _ranked(self, ("none",), None)


class _RowTable:
    """Rows (counts + add_k) / (total + add_k * size) * scale of a
    model.CountTable over the support: one per key, in key order, plus a
    last row shared by every key without counts (counts 0, total 0). Each
    row is built the first time a lookup asks for it, or all at once by
    build_all, by slicing the table's arrays, element for element by the
    same expression whenever it is built, so its floats do not depend on
    the order.

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

    def build_all(self):
        """Build every row of an empty table, so that row i is rows[i]."""
        self._build(np.arange(len(self.totals)))

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
    same float whenever it is taken). The lexical table has one row per
    source id with counts, and one shared row for the rest. The n-gram
    table has one row per trained context, in the model's order of context
    codes, plus one last add-k row shared by every context the model never
    saw. A context (the last order-1 target ids, BOS-padded) is coded as
    its ids read as digits in base `base`, as in the model; BOS is 0, so
    the empty prefix has code 0 and padding costs nothing. Searches carry
    codes, rolled forward one token at a time.

    If both tables and an index of `modulus` cells fit WHOLE_TABLE_CELLS,
    every row is built when the scorer is created and each context code's
    n-gram row is read from that dense index (`whole` is True), so a step
    makes one take per table. Otherwise rows are built on first use and a
    code's row is found by searchsorted among the trained codes. Fork
    workers inherit the scorer's tables as they stand.
    """

    def __init__(self, model):
        self.model = model
        self.support = np.array(model.support, dtype=np.int64)
        self.size = len(model.support)
        self.eos_pos = model.support.index(EOS_ID)
        self.base = len(model.target_vocab)
        self.modulus = self.base ** (model.order - 1)
        self.start_code = self.context_code((BOS_ID,) * (model.order - 1))
        self._ngram = _RowTable(model.ngram, self.support, 1.0 - model.lam)
        self._lex = _RowTable(model.lex, self.support, model.lam)
        # the lexical row of each source id
        self._lex_index = np.full(len(model.source_vocab), len(model.lex.keys))
        self._lex_index[model.lex.keys] = np.arange(len(model.lex.keys))
        n_keys = len(model.ngram.keys)
        self.whole = (n_keys + 1 + len(model.lex.keys) + 1) * self.size + \
            self.modulus <= WHOLE_TABLE_CELLS
        if self.whole:
            self._ngram.build_all()
            self._lex.build_all()
            # the n-gram row of each context code
            self._code_row = np.full(self.modulus, n_keys)
            self._code_row[model.ngram.keys] = np.arange(n_keys)
        else:
            # the sentinel sorts after every code, so a lookup never runs
            # off the end, and its position is the shared unseen-context row
            self._codes = np.append(model.ngram.keys, self.modulus)

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
        an int array of context codes and one source id per equal run of
        consecutive contexts (an int, or an int array whose length divides
        theirs): one for all of them, one per context, or, in a lock-step
        group, one per sentence, whose rows are a run. A run's lexical row
        is added to each of its n-gram rows by broadcast."""
        lex = self._lex_index.take(np.atleast_1d(source_ids))
        if self.whole:
            mixed = self._ngram.rows.take(self._code_row.take(contexts),
                                          axis=0)
            lex = self._lex.rows.take(lex, axis=0)
        else:
            rows = self._codes.searchsorted(contexts)
            rows[self._codes.take(rows) != contexts] = len(self._codes) - 1
            mixed = self._ngram.take(rows)
            lex = self._lex.take(lex)
        runs = mixed.reshape(len(lex), -1, self.size)
        runs += lex[:, None]
        return np.log(mixed, out=mixed)


def _source_ids(model, source_tokens):
    if not source_tokens:
        raise ValueError("source sentence is empty")
    return [model.source_vocab.id(t) for t in source_tokens]


# the live rows one lock-step group holds at most, unless a single
# sentence's beam is wider: 5 sentences at width 200, 32 at width 32, 256 at
# width 4. It bounds one step's candidate arrays, a few float arrays of
# ROW_BUDGET * |support| cells, plus the group's back-pointers, 16 bytes a
# live row a step, which grow with its steps. In the full-size reference
# decode, 1,024 rows kept most of the speed of larger groups
ROW_BUDGET = 1024


def _select(cost, per, width, eos_pos):
    """One beam step's selection over a (rows, size) cost array that holds
    `per` consecutive rows of each sentence. In each sentence's stable
    ranking of its candidates by (cost, flat index), the EOS candidates
    among the first `width` are admitted and the first `width` non-EOS
    candidates are kept. Returns both as flat indices (row * size + support
    position) into `cost`: the admitted ones in ranking order, sentence
    after sentence, and the kept ones ascending, since the children of rows
    in lexicographic order, over the sorted support, are in lexicographic
    order by flat index.

    No ranking is sorted. One partition of every sentence's candidates,
    with the EOS ones set to +inf, gives each sentence's threshold: its
    width-th cheapest non-EOS cost, or +inf if it has fewer. The kept
    candidates are the non-EOS ones at or below it, ties at it going to the
    smaller index. An EOS candidate above it ranks past `width` non-EOS
    ones; one at or below it ranks after the kept candidates that precede
    it, counted from a sort of the kept costs, and after its sentence's
    EOS candidates that precede it."""
    n_rows, size = cost.shape
    if width == 1:
        # one row per sentence, and the head of its ranking is the row's
        # argmin, ties going to the lowest index
        best = cost.argmin(axis=1) + np.arange(0, n_rows * size, size)
        eos = best % size == eos_pos
        return best[eos], best[~eos]
    span = per * size
    n_sent = n_rows // per
    block = cost.reshape(n_sent, span)
    n_keep = min(width, per * (size - 1))
    masked = block.copy()
    masked[:, eos_pos::size] = np.inf
    k = min(width, span) - 1
    masked.partition(k, axis=1)
    thr = masked[:, k:k + 1]
    below = block <= thr
    below[:, eos_pos::size] = False
    kept = np.flatnonzero(below)
    flat = cost.ravel()
    if len(kept) > n_sent * n_keep:
        # more candidates tie at a threshold than fit: a sentence keeps its
        # first ties
        sent = kept // span
        tie = flat.take(kept) == thr.take(sent)
        tied = sent[tie]
        place = np.arange(len(tied)) - tied.searchsorted(tied)
        room = n_keep - np.bincount(sent[~tie], minlength=n_sent)
        keep = ~tie
        keep[tie] = place < room.take(tied)
        kept = kept[keep]
    # the rows of the EOS candidates at or below their threshold, in
    # ranking order
    eos_cost = cost[:, eos_pos]
    rows = np.flatnonzero(eos_cost.reshape(n_sent, per) <= thr)
    if not len(rows):
        return rows, kept
    e_cost = eos_cost.take(rows)
    e_sent = rows // per
    order = np.lexsort((e_cost, e_sent))
    rows = rows.take(order)
    e_cost = e_cost.take(order)
    e_sent = e_sent.take(order)
    # `width` less the EOS candidates before each: it is admitted if fewer
    # kept candidates rank before it, that is if the one at that place in
    # its sentence's kept costs, ascending and +inf past the last, costs
    # more, or as much and has a larger index
    room = width - np.arange(len(rows)) + e_sent.searchsorted(e_sent)
    ranked = np.full((n_sent, n_keep + 1), np.inf)
    ranked[:, :n_keep] = flat.take(kept).reshape(n_sent, n_keep)
    ranked.sort(axis=1)
    bound = ranked[e_sent, np.minimum(room, n_keep + 1) - 1]
    admit = bound > e_cost
    tied = (bound == e_cost).nonzero()[0]
    if len(tied):
        # count the kept candidates before each EOS candidate that ties
        idx = rows.take(tied) * size + eos_pos
        mine = kept.reshape(n_sent, n_keep)[e_sent.take(tied)]
        c = flat.take(mine)
        ec = e_cost.take(tied)[:, None]
        before = ((c < ec) | ((c == ec) & (mine < idx[:, None]))).sum(axis=1)
        admit[tied] = before < room.take(tied)
    return rows[admit] * size + eos_pos, kept


def _finished_sets(n_sent, finished, parents, tokens):
    """One DecodeResult per sentence from `finished`, a list of chunks
    (sentences, rows, level, logprobs) in step order: each entry is a row of
    level L (an L-token prefix) taken with its EOS step, and keeps its
    chunk order within its sentence. Tokens are read back along the
    back-pointers: `parents[L - 1]` and `tokens[L - 1]` give each level-L
    row's row in level L - 1 and its last token."""
    who, rows, levels, lps = zip(*finished)
    who = np.concatenate(who)
    # entries in chunk order are by ascending length; `order` puts them
    # sentence after sentence
    lengths = np.repeat(levels, [len(r) for r in rows])
    order = who.argsort(kind="stable")
    offsets = np.zeros(len(who) + 1, dtype=np.int64)
    np.cumsum(lengths.take(order), out=offsets[1:])
    start = np.empty_like(lengths)
    start[order] = offsets[:-1]
    ids = np.empty(offsets[-1], dtype=np.int64)
    ptr = np.concatenate(rows)
    # the entries at least L tokens long are those from first[L] on
    first = lengths.searchsorted(range(levels[-1] + 1)).tolist()
    for level in range(levels[-1], 0, -1):
        at = ptr[first[level]:]
        ids[start[first[level]:] + (level - 1)] = tokens[level - 1].take(at)
        at[:] = parents[level - 1].take(at)
    logprobs = np.concatenate(lps).take(order)
    bounds = who.take(order).searchsorted(range(n_sent + 1)).tolist()
    return [DecodeResult(ids[offsets[a]:offsets[b]],
                         offsets[a:b + 1] - offsets[a], logprobs[a:b])
            for a, b in zip(bounds, bounds[1:])]


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
    n_finished = np.zeros(n_sent, dtype=np.int64)

    # the live rows: `per` rows of each searching sentence in `live`,
    # sentence after sentence, each sentence's rows in lexicographic order
    # of their prefixes. A row's cost is its negated logprob, so that
    # ascending cost order is the ranking; negation is exact, so
    # -(lp + x) == -lp - x bit for bit
    live = np.arange(n_sent)
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
    while len(live):
        step += 1
        # the rows of one sentence share its source id
        rows = scorer.mixed_log_rows(
            src_at[min(step, longest) - 1].take(live), codes)
        index = None
        if next_cap < step:
            # the sentences past their length cap are force-finished with
            # this step's EOS candidates
            next_cap = caps.min(where=caps >= step, initial=caps.max() + 1)
            capped = caps.take(live) < step
            if capped.any():
                at = capped.repeat(per).nonzero()[0]
                finished.append((live[capped].repeat(per), at, step - 1,
                                 -cost.take(at) + rows[at, eos_pos]))
                live = live[~capped]
                if not len(live):
                    break
                index = (~capped).repeat(per).nonzero()[0]
                cost = cost.take(index)
                codes = codes.take(index)
                rows = rows.take(index, axis=0)
        np.subtract(cost[:, None], rows, out=rows)
        admitted, kept = _select(rows, per, width, eos_pos)
        flat = rows.ravel()
        if len(admitted):
            parent = admitted // size
            done = live.take(parent // per)
            finished.append((done, parent if index is None
                             else index.take(parent), step - 1,
                             -flat.take(admitted)))
            n_finished += np.bincount(done, minlength=n_sent)
            # a sentence whose finished set is full stops here
            going = n_finished.take(live) < width
            if not going.all():
                kept = kept[going.take(kept // (per * size))]
                live = live[going]
        # every sentence keeps as many rows: its first `width` of the
        # `per * (size - 1)` candidates that do not end in EOS
        per = min(width, per * (size - 1))
        parent, pos = np.divmod(kept, size)
        tok = scorer.support.take(pos)
        parents.append(parent if index is None else index.take(parent))
        tokens.append(tok)
        cost = flat.take(kept)
        codes = scorer.roll(codes.take(parent), tok)

    # every sentence finishes at least one entry: at its cap, or by
    # admitting one
    return _finished_sets(n_sent, finished, parents, tokens)


def check_step_candidates(width, support_size):
    """Refuse a width whose beam step over `support_size` symbols could
    score more than MAX_STEP_CANDIDATES candidates."""
    if width * support_size > MAX_STEP_CANDIDATES:
        raise ValueError(
            "width %d times a support of %d symbols is above the %d "
            "candidates a beam step may score" % (width, support_size,
                                                  MAX_STEP_CANDIDATES))


def beam_search(model, source_tokens, config, scorer=None):
    """Beam search of one source sentence: a batch of one."""
    check_step_candidates(config.width, len(model.support))
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


def _normalized_scores(logprobs, lengths, norm):
    """normalize_score of every entry, bit for bit, for token counts
    `lengths`: each length's factor comes from the same scalar expression,
    and the product and quotient are correctly rounded in numpy as in
    Python."""
    kind, alpha = norm[0], norm[-1]
    if kind == "none":
        return logprobs
    counted = range(1, lengths.max(initial=0) + 2)
    if kind == "by_length":
        return logprobs / np.array([n ** alpha for n in counted]).take(
            lengths)
    if kind == "gnmt":
        return logprobs * 6.0 ** alpha / np.array(
            [(5.0 + n) ** alpha for n in counted]).take(lengths)
    raise ValueError("unknown normalization %r" % (norm,))


def _ranked(result, norm, topk):
    """rerank, under a name that tracing does not hook."""
    offsets = result.offsets
    lengths = offsets[1:] - offsets[:-1]
    logprobs = result.logprobs
    scores = _normalized_scores(logprobs, lengths, norm)
    order = np.lexsort((lengths, -logprobs, -scores))
    k = len(order) if topk is None else min(topk, len(order))
    # whether each entry ties the next one in the key so far
    tied = True
    for key in (scores, logprobs, lengths):
        key = key.take(order)
        tied = tied & (key[1:] == key[:-1])
    offsets = offsets.tolist()

    def tokens(entry):
        return tuple(result.ids[offsets[entry]:offsets[entry + 1]].tolist())

    if tied[:k].any():
        # a run of entries equal in the key so far, which reaches into the
        # first k, is ordered by tokens
        order = order.tolist()
        start = 0
        for end in (~tied).nonzero()[0].tolist() + [len(order) - 1]:
            if start >= k:
                break
            order[start:end + 1] = sorted(order[start:end + 1], key=tokens)
            start = end + 1
    top = order[:k]
    return [Hypothesis(tokens(entry), logprob, score) for entry, logprob,
            score in zip(top, logprobs.take(top).tolist(),
                         scores.take(top).tolist())]


def rerank(result, normalization, topk=None):
    """The first `topk` hypotheses of a DecodeResult (all when topk is None),
    best first under `normalization`: by normalized score, then logprob,
    then shorter, then lexicographically smaller tokens. One lexsort ranks
    the arrays, and only the entries returned are built. Search order does
    not depend on the normalization, so this equals re-decoding."""
    if topk is not None and topk < 1:
        raise ValueError("topk must be >= 1, got %d" % topk)
    return _ranked(result, normalization, topk)


# ------------------------------------------------------------ corpus decode

# the scorer and config a pool worker searches with, set as it starts
_WORKER = {}


def _search_groups(groups, scorer, config):
    """_search of each group in turn: one DecodeResult per sentence."""
    return [result for group in groups
            for result in _search(scorer, group, config)]


def _search_task(groups):
    return _search_groups(groups, **_WORKER)


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
    """Decode every source sentence: one DecodeResult each, in input order
    regardless of worker count (see resolve_jobs). A worker task is a run of
    whole lock-step groups and sends back their arrays; one group, or one
    worker, starts no pool. A scorer of the model may be passed in to share
    its tables across calls; fork workers inherit it. A width whose step
    would score more than MAX_STEP_CANDIDATES candidates is refused before
    a scorer is built."""
    batch = [_source_ids(model, source) for source in sources]
    jobs = resolve_jobs(jobs)
    check_step_candidates(config.width, len(model.support))
    if scorer is None:
        scorer = DenseScorer(model)
    # groups whose live rows stay within ROW_BUDGET
    size = max(1, ROW_BUDGET // config.width)
    groups = [batch[i:i + size] for i in range(0, len(batch), size)]
    if jobs == 1 or len(groups) < 2:
        return _search_groups(groups, scorer, config)
    # about four tasks per worker, each of whole consecutive groups
    run = max(1, len(groups) // (jobs * 4))
    tasks = [groups[i:i + run] for i in range(0, len(groups), run)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(tasks)), initializer=_WORKER.update,
                  initargs=(dict(scorer=scorer, config=config),)) as pool:
        # one task at a time, so the workers share the tasks evenly
        parts = pool.map(_search_task, tasks, chunksize=1)
    return [result for part in parts for result in part]


# ------------------------------------------------------------------- files

def format_decode_tsv(ranked, vocab):
    """One line per (input, hypothesis of its list in `ranked`, as rerank
    returns them): rank, normalized_score, logprob, token text; floats as
    repr so parsing recovers them exactly."""
    lines = []
    for hyps in ranked:
        for rank, hyp in enumerate(hyps, start=1):
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
