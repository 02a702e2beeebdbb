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


def msr(corpus, config):
    """Concatenative resampling. One rng stream, consumed in output-example
    order: the example's pair count n first, then its n pair indices. The
    draws stay two calls per example because each example's count is the
    draw just before its picks; the picked pairs are then gathered per side
    in one go."""
    if not len(corpus):
        raise DataError("cannot augment an empty corpus")
    size = resolve_output_size(len(corpus), config)
    check_msr_picks(size, config.n_max)
    rng = np.random.default_rng(config.seed)
    integers, high, n_pairs = rng.integers, config.n_max + 1, len(corpus)
    picks = [integers(0, n_pairs, size=integers(1, high))
             for _ in range(size)]
    offsets = np.zeros(size + 1, np.int64)
    np.cumsum(list(map(len, picks)), out=offsets[1:])
    rows = np.concatenate(picks) if picks else np.zeros(0, np.int64)
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
