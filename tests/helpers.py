"""Test-only builders on top of beamlab. tests/oracles.py stays free of
beamlab imports, so what needs the package's own types lives here."""

from beamlab.corpus import ParallelCorpus, _side_from_sentences


def corpus_from_token_pairs(pairs):
    """The ParallelCorpus of (source tokens, target tokens) pairs."""
    pairs = list(pairs)
    return ParallelCorpus(_side_from_sentences([src for src, _ in pairs]),
                          _side_from_sentences([tgt for _, tgt in pairs]))


def saturating_width(support_size, cap):
    """A width at which nothing can be pruned: the number of non-EOS prefixes
    of length <= cap (an upper bound on candidates alive at any step)."""
    non_eos = support_size - 1
    return sum(non_eos ** k for k in range(cap + 1))
