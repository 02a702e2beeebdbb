"""Independent reference implementations used only by the tests.

Deliberately naive: these follow the textbook definitions as literally as
possible (and as slowly as necessary) so that agreement with the package is
evidence, not tautology. Nothing here imports from beamlab.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu_corpus_reference(hyps, refs, max_order=4):
    """Corpus BLEU per the modified n-gram precision definition.

    Returns (score, precisions, bp, hyp_len, ref_len) with precisions as
    exact Fractions (0 denominators yield Fraction(0)).
    """
    assert len(hyps) == len(refs)
    precisions = []
    for n in range(1, max_order + 1):
        clipped = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_counts = Counter(ngrams(hyp, n))
            ref_counts = Counter(ngrams(ref, n))
            for g, c in hyp_counts.items():
                clipped += min(c, ref_counts.get(g, 0))
            total += max(0, len(hyp) - n + 1)
        precisions.append(Fraction(clipped, total) if total else Fraction(0))
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0, precisions, 0.0, hyp_len, ref_len
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if any(p == 0 for p in precisions):
        return 0.0, precisions, bp, hyp_len, ref_len
    log_mean = sum(math.log(float(p)) for p in precisions) / max_order
    return 100.0 * bp * math.exp(log_mean), precisions, bp, hyp_len, ref_len


def sentence_bleu_reference(hyp, ref, eps=0.01, max_order=4):
    """Single-sentence BLEU with the epsilon-floor smoothing rule:
    zero-numerator precisions become eps/denominator; zero-denominator
    precisions become eps. Empty hypothesis scores 0."""
    if not hyp:
        return 0.0
    ps = []
    for n in range(1, max_order + 1):
        hyp_counts = Counter(ngrams(hyp, n))
        ref_counts = Counter(ngrams(ref, n))
        clipped = sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items())
        total = max(0, len(hyp) - n + 1)
        if total == 0:
            ps.append(eps)
        elif clipped == 0:
            ps.append(eps / total)
        else:
            ps.append(clipped / total)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    return 100.0 * bp * math.exp(sum(math.log(p) for p in ps) / max_order)


def levenshtein_reference(a, b):
    """Unit-cost edit distance, plain quadratic DP, distance only."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(
                prev[j - 1] + (a[i - 1] != b[j - 1]),
                prev[j] + 1,
                cur[j - 1] + 1,
            )
        prev = cur
    return prev[len(b)]


def enumerate_best_sequence(logp_fn, symbols, eos, max_len):
    """Exhaustively score every EOS-terminated sequence of non-EOS symbols up
    to max_len tokens and return (tokens, logprob) of the raw-logprob argmax.

    logp_fn(prefix_tokens, symbol) gives the conditional log probability.
    Ties break toward shorter, then lexicographically smaller sequences.
    """
    non_eos = [s for s in symbols if s != eos]
    best = None
    for length in range(0, max_len + 1):
        for seq in itertools.product(non_eos, repeat=length):
            lp = 0.0
            for t, y in enumerate(seq):
                lp += logp_fn(list(seq[:t]), y)
            lp += logp_fn(list(seq), eos)
            key = (-lp, len(seq), list(seq))
            if best is None or key < best[0]:
                best = (key, list(seq), lp)
    return best[1], best[2]


def beam_search_reference(rows_fn, source_ids, support, eos_id, bos_id,
                          order, width, cap, normalize):
    """Beam search under the package's pinned semantics, written the plain
    way: a full stable argsort of every candidate each step, a Python walk
    over that ranking for admissions and survivors, and a tuple sort of the
    survivors.

    rows_fn(source_id, contexts) gives the (len(contexts), len(support))
    log probabilities for a list of BOS-padded (order-1)-tuples of target
    ids; normalize(logprob, length) is the ranking score of a finished
    hypothesis whose length counts the EOS step. Returns the finished
    (tokens, logprob, normalized score) triples, best first.
    """
    size = len(support)
    eos_pos = support.index(eos_id)
    n_src = len(source_ids)

    def context(tokens):
        if order <= 1:
            return ()
        return ((bos_id,) * (order - 1) + tokens)[-(order - 1):]

    def finish(tokens, logprob):
        return (tokens, logprob, normalize(logprob, len(tokens) + 1))

    live_tokens = [()]
    live_lp = np.zeros(1)
    finished = []
    step = 0
    while step < cap and len(finished) < width:
        step += 1
        x = source_ids[min(step, n_src) - 1]
        rows = rows_fn(x, [context(toks) for toks in live_tokens])
        flat = (live_lp[:, None] + rows).ravel()
        # index order is lexicographic order, so a stable sort breaks ties
        ranking = np.argsort(-flat, kind="stable")
        for idx in ranking[:width]:
            if idx % size == eos_pos:
                finished.append(finish(live_tokens[idx // size],
                                       float(flat[idx])))
        survivors = []
        for idx in ranking:
            pos = idx % size
            if pos == eos_pos:
                continue
            survivors.append((live_tokens[idx // size] + (support[pos],),
                              float(flat[idx])))
            if len(survivors) == width:
                break
        survivors.sort(key=lambda s: s[0])
        live_tokens = [s[0] for s in survivors]
        live_lp = np.array([s[1] for s in survivors])
    if len(finished) < width and live_tokens:
        # the length cap: every survivor takes its EOS step
        x = source_ids[min(cap + 1, n_src) - 1]
        rows = rows_fn(x, [context(toks) for toks in live_tokens])
        for i, toks in enumerate(live_tokens):
            finished.append(finish(toks, float(live_lp[i] + rows[i, eos_pos])))
    finished.sort(key=lambda h: (-h[2], -h[1], len(h[0]), list(h[0])))
    return finished


def rank_reference(pairs, normalize):
    """(tokens, logprob, normalized score) triples of (tokens, logprob)
    pairs, best first: one full sort by normalized score, then logprob, then
    shorter, then lexicographically smaller tokens. normalize(logprob,
    length) is the ranking score; length counts the EOS step."""
    triples = [(tokens, logprob, normalize(logprob, len(tokens) + 1))
               for tokens, logprob in pairs]
    return sorted(triples, key=lambda h: (-h[2], -h[1], len(h[0]),
                                          list(h[0])))


def count_rows(table):
    """{key: {token: count}} of a CSR count table, read from its arrays:
    row i holds keys[i]'s tokens and counts between offsets[i] and
    offsets[i + 1]."""
    bounds = table.offsets.tolist()
    tokens, counts = table.tokens.tolist(), table.counts.tolist()
    return {key: dict(zip(tokens[a:b], counts[a:b]))
            for key, a, b in zip(table.keys.tolist(), bounds, bounds[1:])}


def model_json_reference(model):
    """A model file's text as the standard library's JSON encoder writes
    the model's fields (sorted keys, indent 1), the count objects built as
    dicts of {str(key): {str(token): count}}; an n-gram key is its
    context's ids, oldest first, joined by spaces."""
    base = len(model.target_vocab)

    def table(rows, key_text):
        return {key_text(key): {str(y): c for y, c in row.items()}
                for key, row in rows.items()}

    def context_text(code):
        ids = []
        for _ in range(model.order - 1):
            code, digit = divmod(code, base)
            ids.append(str(digit))
        return " ".join(reversed(ids))

    blob = {
        "format": "beamlab.model",
        "format_version": 1,
        "order": model.order,
        "add_k_lex": model.lex.add_k,
        "add_k_ngram": model.ngram.add_k,
        "lambda": model.lam,
        "source_vocab": model.source_vocab.id_to_token[3:],
        "target_vocab": model.target_vocab.id_to_token[3:],
        "support": model.support,
        "lex_counts": table(count_rows(model.lex), str),
        "ngram_counts": table(count_rows(model.ngram), context_text),
    }
    return json.dumps(blob, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def context_code(context, base):
    """The code of a context: its ids read as digits in `base`, oldest
    first."""
    code = 0
    for i in context:
        code = code * base + i
    return code


def count_reference(corpus, source_vocab, target_vocab, order, bos_id,
                    eos_id, unk_id):
    """The transducer's counts, one increment per token and table: lexical
    counts keyed by source id and n-gram counts keyed by the BOS-padded
    (order-1)-tuple of preceding target ids, each a dict of Counters, and
    whether a target token mapped to UNK."""
    lex, ngram = {}, {}

    def add(table, key, token_id):
        table.setdefault(key, Counter())[token_id] += 1

    pad = (bos_id,) * (order - 1)
    unk_seen = False
    for pair in corpus:
        src_ids = [source_vocab.id(t) for t in pair.source]
        tgt_ids = [target_vocab.id(t) for t in pair.target]
        unk_seen = unk_seen or unk_id in tgt_ids
        tgt_ids.append(eos_id)
        n_src = len(src_ids)
        context = pad
        for t, y in enumerate(tgt_ids, start=1):
            add(lex, src_ids[t - 1 if t <= n_src else n_src - 1], y)
            add(ngram, context, y)
            if order > 1:
                context = context[1:] + (y,)
    return lex, ngram, unk_seen


def transducer_prob_reference(model, source_ids, prefix_ids, y, bos_id):
    """p(y | source, prefix) of the count transducer, term by term from its
    definition:

        lambda * p_lex(y | x_a(t)) + (1 - lambda) * p_ngram(y | ctx)

    with t = len(prefix) + 1, a(t) = min(t, |x|), ctx the last (order - 1)
    prefix ids after BOS padding, and each table add-k smoothed over the
    model's support: (count + k) / (total + k * |support|). The count tables
    are read by attribute (an n-gram key is the context's code in base
    |target vocabulary|); the caller maps tokens to ids.
    """
    size = len(model.support)
    x = source_ids[min(len(prefix_ids) + 1, len(source_ids)) - 1]
    k = model.order - 1
    padded = [bos_id] * k + list(prefix_ids)
    ctx = context_code(padded[len(padded) - k:], len(model.target_vocab))

    def smoothed(table, key):
        row = count_rows(table).get(key, {})
        return (row.get(y, 0) + table.add_k) / \
            (sum(row.values()) + table.add_k * size)

    lam = model.lam
    return lam * smoothed(model.lex, x) + (1 - lam) * smoothed(model.ngram, ctx)


def transducer_logprob_reference(model, source_ids, target_ids, bos_id,
                                 eos_id):
    """Log probability of target_ids followed by the EOS step."""
    ids = list(target_ids) + [eos_id]
    return sum(math.log(transducer_prob_reference(model, source_ids, ids[:t],
                                                  y, bos_id))
               for t, y in enumerate(ids))


def zipf_probs(exponent, size):
    w = [rank ** -exponent for rank in range(1, size + 1)]
    z = sum(w)
    return [x / z for x in w]


def gnmt_penalty_reference(logprob, length, alpha):
    return logprob * (6.0 ** alpha) / ((5.0 + length) ** alpha)


def wer_reference(hyp, ref):
    """Word error rate as (substitutions, insertions, deletions, ref_len,
    wer): the full Levenshtein matrix filled cell by cell, then a backtrace
    that resolves cost ties as substitution, then deletion, then insertion."""
    if not ref:
        raise ValueError("reference sentence is empty")
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
    return subs, ins, dels, m, (subs + ins + dels) / m


# ------------------------------------------------ test-only corpus helpers

def dictionary_map(config):
    """The task's source->target token bijection of a SynthConfig (the first
    thing the seeded generator draws, so it can be reproduced without the
    corpora)."""
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(config.vocab_size)
    mapping = {"s%d" % i: "t%d" % perm[i] for i in range(config.vocab_size)}
    if config.terminal_token is not None:
        mapping[config.terminal_token] = config.terminal_token
    return mapping


def expected_mean_length(mean_length, n_max):
    """Mean target length of msr output: concatenating k pairs for k uniform
    on 1..N multiplies the mean by (N+1)/2."""
    if mean_length <= 0:
        raise ValueError("mean_length must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return mean_length * (n_max + 1) / 2.0


def load_provenance(path):
    """The pair indices of each line of a .prov sidecar."""
    with open(path, encoding="utf-8") as handle:
        return [[int(x) for x in line.split()]
                for line in handle.read().splitlines()]


# ---------------------------------------- list-based corpus construction
#
# The corpus pipeline as lists of token strings, one pair at a time: the
# id-array code in beamlab.corpus and beamlab.augment must give the same
# pairs, provenance and vocabularies.

def vocabulary_reference(sentences, min_count=1):
    """The content tokens of a vocabulary: every token seen at least
    min_count times, most frequent first, ties in string order."""
    counts = Counter(itertools.chain.from_iterable(sentences))
    return sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))


def msr_picks_reference(seed, size, n_max, n_pairs):
    """The pair picks of `size` msr examples, one rng call per draw: per
    example a count n uniform on 1..n_max, then n pair indices uniform on
    0..n_pairs - 1, as lists."""
    rng = np.random.default_rng(seed)
    return [[int(i) for i in rng.integers(0, n_pairs,
                                          size=rng.integers(1, n_max + 1))]
            for _ in range(size)]


def msr_reference(pairs, n_max, size, seed):
    """Multi-sentence resampling of (source, target) token lists: per output
    example, a count n uniform on 1..n_max, then n uniform pair indices;
    returns (source, target, provenance) triples."""
    out = []
    for picks in msr_picks_reference(seed, size, n_max, len(pairs)):
        src, tgt = [], []
        for i in picks:
            src.extend(pairs[i][0])
            tgt.extend(pairs[i][1])
        out.append((src, tgt, picks))
    return out


def simple_resample_reference(pairs, size, seed):
    """`size` pairs drawn with probability proportional to target length,
    as (source, target, [pair index]) triples."""
    lengths = np.array([len(tgt) for _, tgt in pairs], dtype=float)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pairs), size=size, p=lengths / lengths.sum())
    return [(list(pairs[i][0]), list(pairs[i][1]), [int(i)]) for i in picks]


def _draw_lengths_reference(law, size, rng):
    kind = law[0]
    if kind == "geometric":
        return rng.geometric(law[1], size=size)
    if kind == "negative_binomial":
        return rng.negative_binomial(law[1], law[2], size=size) + 1
    return rng.integers(law[1], law[2] + 1, size=size)


def synthetic_pairs_reference(config):
    """{split: [(source, target)]} of a SynthConfig, built token by token
    from the same draws in the same order: dictionary permutation, then per
    split lengths, source ranks, noise mask and noise replacements."""
    rng = np.random.default_rng(config.seed)
    vocab = config.vocab_size
    perm = rng.permutation(vocab)
    probs = np.arange(1, vocab + 1, dtype=float) ** -config.zipf_exponent
    probs /= probs.sum()
    term = config.terminal_token
    splits = {}
    plan = (("train", config.train_size, config.length_law),
            ("dev", config.dev_size, config.length_law),
            ("test", config.test_size,
             config.test_length_law or config.length_law))
    for name, size, law in plan:
        lengths = _draw_lengths_reference(law, size, rng)
        content = lengths - 1 if term is not None else lengths
        total = int(content.sum())
        ranks = rng.choice(vocab, size=total, p=probs)
        noisy = rng.random(total) < config.noise_prob
        replacements = rng.integers(0, vocab, size=total)
        tgt_ranks = perm[ranks]
        tgt_ranks[noisy] = replacements[noisy]
        pairs = []
        start = 0
        for n in content.tolist():
            src = ["s%d" % r for r in ranks[start:start + n]]
            tgt = ["t%d" % r for r in tgt_ranks[start:start + n]]
            if term is not None:
                src.append(term)
                tgt.append(term)
            pairs.append((src, tgt))
            start += n
        splits[name] = pairs
    return splits
