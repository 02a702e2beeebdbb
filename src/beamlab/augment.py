"""Training-data resampling schemes that fight length bias.

Multi-sentence resampling builds each output example by concatenating a
uniform-random number (1..N) of uniformly drawn original pairs, which pushes
the length distribution right without touching the task. Simple resampling
draws single pairs with probability proportional to target length. Both
draw pair indices, then gather the pairs' id ranges per side.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .corpus import concatenated, rows_bytes
from .fileio import write_bytes_atomic

# the most pairs one resampling may produce, and the most original pairs
# msr may expect to copy into them (size x mean pairs per example)
MAX_OUTPUT_SIZE = 1_000_000
MAX_MSR_PICKS = 10_000_000

# raw generator outputs msr draws at a time (two 32-bit words each)
_BLOCK_RAW = 2 ** 12


def _check_size(size):
    if not 0 <= size <= MAX_OUTPUT_SIZE:
        raise ValueError("output size must be in 0..%d, got %d"
                         % (MAX_OUTPUT_SIZE, size))


@dataclass
class MsrConfig:
    n_max: int
    multiplier: float = None
    size: int = None
    seed: int = 0

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if (self.multiplier is None) == (self.size is None):
            raise ValueError("give exactly one of multiplier or size")
        if self.multiplier is not None and \
                not 0 < self.multiplier < math.inf:
            raise ValueError("multiplier must be positive and finite, got %r"
                             % (self.multiplier,))
        if self.size is not None:
            _check_size(self.size)


def resolve_output_size(corpus_size, config):
    """The output size `config` asks of a corpus of `corpus_size` pairs;
    ValueError above MAX_OUTPUT_SIZE."""
    if config.size is not None:
        return config.size
    scaled = corpus_size * config.multiplier + 0.5
    if scaled >= MAX_OUTPUT_SIZE + 1:
        raise ValueError("multiplier %r on %d pairs asks for more than %d "
                         "pairs" % (config.multiplier, corpus_size,
                                    MAX_OUTPUT_SIZE))
    return math.floor(scaled)


def check_msr_picks(size, n_max):
    """ValueError if `size` msr examples of 1..n_max pairs expect more than
    MAX_MSR_PICKS picks."""
    if size * (n_max + 1) / 2 > MAX_MSR_PICKS:
        raise ValueError("%d examples of up to %d pairs expect more than %d "
                         "pair picks" % (size, n_max, MAX_MSR_PICKS))


def _bounded(words, size):
    """numpy's bounded draw of a value in [0, size) from each 32-bit word
    (Lemire's multiply-shift, numpy's `buffered_bounded_lemire_uint32`):
    the values, and whether each word is kept. A word whose low product
    half is below 2^32 mod size is rejected; the draw takes the next word."""
    product = words.astype(np.uint64) * np.uint64(size)
    return ((product >> np.uint64(32)).astype(np.int64),
            (product & np.uint64(2 ** 32 - 1)) >= np.uint64(2 ** 32 % size))


def _block(bits):
    """The next _BLOCK_RAW outputs of a bit generator as 32-bit words, each
    output's low half first."""
    return bits.random_raw(_BLOCK_RAW).astype("<u8").view("<u4")


def _kept_index(kept):
    """The positions of the kept words with len(kept) appended, and for each
    position 0..len(kept) the number of kept words before it."""
    before = np.zeros(len(kept) + 1, np.int64)
    np.cumsum(kept, out=before[1:])
    return np.append(np.flatnonzero(kept), len(kept)), before


def _walk(words, n_max, n_pairs, limit):
    """The pair counts and picks of the complete examples, at most `limit`,
    at the front of `words` (which starts at an example), and the number of
    words they use.

    Every position p gets the start of the next example as if an example
    started at p: its count is the first kept count word from p on, its
    picks the next n kept pick words; len(words) + 1 if the words run out.
    The chain of starts from 0 is then read by pointer doubling."""
    stop = len(words) + 1
    if n_max > 1:
        value, kept = _bounded(words, n_max)
        kept_at, kept_before = _kept_index(kept)
        count_at = kept_at.take(kept_before)
        complete = count_at < len(words)
        n = value.take(count_at, mode="clip") + 1
        ends = np.minimum(count_at + 1, len(words))
    else:
        complete, n, ends = (np.ones(stop, bool), np.ones(stop, np.int64),
                             np.arange(stop))
    if n_pairs > 1:
        pick, kept = _bounded(words, n_pairs)
        pick_at, picks_before = _kept_index(kept)
        first_pick = picks_before.take(ends)
        last = first_pick + n - 1
        complete &= last < len(pick_at) - 1
        ends = pick_at.take(last, mode="clip") + 1
    # jumps[k][p]: the start 2^k examples after p; stop is absorbing
    jumps = [np.append(np.where(complete, ends, stop), stop)]
    while jumps[-1][0] < stop and 2 ** len(jumps) <= limit:
        jumps.append(jumps[-1].take(jumps[-1]))
    starts = np.zeros(1, np.int64)
    for jump in reversed(jumps):
        starts = np.stack([starts, jump.take(starts)], axis=1).ravel()
    starts = np.append(starts, jumps[0][starts[-1]])
    done = min(limit, int(np.count_nonzero(starts[1:] < stop)))
    n = n.take(starts[:done])
    if n_pairs == 1:
        return n, np.zeros(int(n.sum()), np.int64), int(starts[done])
    offsets = np.zeros(done + 1, np.int64)
    np.cumsum(n, out=offsets[1:])
    ranks = np.repeat(first_pick.take(starts[:done]) - offsets[:-1], n)
    ranks += np.arange(offsets[-1])
    return n, pick.take(pick_at.take(ranks)), int(starts[done])


def _long_example(words, bits, n_max, n_pairs):
    """The pair count and picks of the one example at the front of `words`
    when they do not hold all of it, drawing blocks from `bits` as it goes,
    and the words left after it."""
    n = 1
    if n_max > 1:
        value, kept = _bounded(words, n_max)
        while not kept.any():
            words = _block(bits)
            value, kept = _bounded(words, n_max)
        at = int(kept.argmax())
        n = int(value[at]) + 1
        words = words[at + 1:]
    if n_pairs == 1:
        return np.array([n]), np.zeros(n, np.int64), words
    picks, need = [], n
    while need:
        value, kept = _bounded(words, n_pairs)
        at = np.flatnonzero(kept)[:need]
        picks.append(value.take(at))
        need -= len(at)
        words = words[at[-1] + 1:] if not need else _block(bits)
    return np.array([n]), np.concatenate(picks), words


def _msr_draws(seed, size, n_max, n_pairs):
    """The pair picks of `size` msr examples as CSR (rows, offsets): what
    the per-example calls n = rng.integers(1, n_max + 1) and
    rng.integers(0, n_pairs, size=n) draw from
    rng = np.random.default_rng(seed), replayed over its raw output.

    For a range of size r <= 2^32, numpy's PCG64 draws each value from one
    32-bit word, in one stream across calls: every 64-bit output gives its
    low half, then its high half. The value is (w * r) >> 32, and a
    rejected word (see _bounded) is skipped; a range of size 1 takes no
    word. So the stream holds, per example, one count word and then n pick
    words. ValueError for 2^32 pairs or more; msr's picks cap keeps n_max
    far below that."""
    if n_pairs >= 2 ** 32:
        raise ValueError("msr draws pair indices below 2^32, got %d pairs"
                         % n_pairs)
    bits = np.random.default_rng(seed).bit_generator
    counts, picks = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    words = np.zeros(0, np.uint32)
    done = 0
    while done < size:
        words = np.concatenate([words, _block(bits)])
        n, rows, used = _walk(words, n_max, n_pairs, size - done)
        if len(n):
            words = words[used:]
        else:
            n, rows, words = _long_example(words, bits, n_max, n_pairs)
        counts.append(n)
        picks.append(rows)
        done += len(n)
    offsets = np.zeros(size + 1, np.int64)
    np.cumsum(np.concatenate(counts), out=offsets[1:])
    return np.concatenate(picks), offsets


def msr(corpus, config):
    """Concatenative resampling. Per output example, a pair count n uniform
    on 1..n_max, then n uniform pair indices, as numpy's per-call draws
    would give them from one rng stream (_msr_draws); the picked pairs are
    then gathered per side in one go."""
    if not len(corpus):
        raise DataError("cannot augment an empty corpus")
    size = resolve_output_size(len(corpus), config)
    check_msr_picks(size, config.n_max)
    rows, offsets = _msr_draws(config.seed, size, config.n_max, len(corpus))
    return concatenated(corpus, rows, offsets,
                        "%s+msr%d" % (corpus.name, config.n_max))


def simple_resample(corpus, size, seed):
    """Draw `size` pairs i.i.d. with P(pair) proportional to target length."""
    if not len(corpus):
        raise DataError("cannot resample an empty corpus")
    _check_size(size)
    lengths = corpus.lengths("target").astype(float)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(corpus), size=size, p=lengths / lengths.sum())
    return concatenated(corpus, picks, np.arange(size + 1),
                        corpus.name + "+resample")


def save_provenance(corpus, path):
    """One line per pair: the original pair indices that built it, or the
    pair's own index in a corpus without provenance."""
    if corpus.provenance is None:
        rows, offsets = np.arange(len(corpus)), np.arange(len(corpus) + 1)
    else:
        rows, offsets = corpus.provenance
    table = [str(i) for i in range(int(rows.max()) + 1 if len(rows) else 0)]
    write_bytes_atomic(path, rows_bytes(table, rows, offsets))
