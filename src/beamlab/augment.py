"""Training-data resampling schemes that fight length bias.

Multi-sentence resampling builds each output example by concatenating a
uniform-random number (1..N) of uniformly drawn original pairs, which pushes
the length distribution right without touching the task. Simple resampling
draws single pairs with probability proportional to target length.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .corpus import ParallelCorpus, SentencePair
from .fileio import write_text_atomic


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
        if self.multiplier is not None and self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self.size is not None and self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass
class AugmentedPair(SentencePair):
    provenance: list = field(default_factory=list)


def resolve_output_size(corpus_size, config):
    if config.size is not None:
        return config.size
    return int(math.floor(corpus_size * config.multiplier + 0.5))


def msr(corpus, config):
    """Concatenative resampling. One rng stream, consumed in output-example
    order: the example's pair count n first, then its n pair indices."""
    if not len(corpus):
        raise DataError("cannot augment an empty corpus")
    size = resolve_output_size(len(corpus), config)
    rng = np.random.default_rng(config.seed)
    out = []
    for j in range(size):
        n = int(rng.integers(1, config.n_max + 1))
        picks = rng.integers(0, len(corpus), size=n)
        src = []
        tgt = []
        for i in picks:
            src.extend(corpus[i].source)
            tgt.extend(corpus[i].target)
        out.append(AugmentedPair(src, tgt, j, [int(i) for i in picks]))
    return ParallelCorpus(out, name="%s+msr%d" % (corpus.name, config.n_max))


def simple_resample(corpus, size, seed):
    """Draw `size` pairs i.i.d. with P(pair) proportional to target length."""
    if not len(corpus):
        raise DataError("cannot resample an empty corpus")
    lengths = np.array(corpus.lengths("target"), dtype=float)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(corpus), size=size, p=lengths / lengths.sum())
    out = [AugmentedPair(list(corpus[i].source), list(corpus[i].target), j, [int(i)])
           for j, i in enumerate(picks)]
    return ParallelCorpus(out, name=corpus.name + "+resample")


def save_provenance(corpus, path):
    lines = []
    for pair in corpus:
        prov = getattr(pair, "provenance", None) or [pair.pair_id]
        lines.append(" ".join(str(i) for i in prov))
    write_text_atomic(path, "".join(line + "\n" for line in lines))

