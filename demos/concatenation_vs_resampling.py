"""
Concatenation beats length-weighted resampling
==============================================

Two ways to stretch a short-sentence training corpus toward longer test
lengths: resample pairs with probability proportional to target length,
or concatenate random pairs into multi-sentence examples. Both reshape
the length histogram. Only concatenation also teaches the model that a
period is usually NOT the end of the example, which is what the wide
beam exploits when it stops early.

Runs in about fifteen seconds on one core.
"""

from beamlab.augment import (MsrConfig, msr, resolve_output_size,
                             simple_resample)
from beamlab.corpus import SynthConfig, generate_synthetic, length_histogram
from beamlab.metrics import corpus_bleu
from beamlab.model import train
from beamlab.search import BeamConfig, decode_corpus, rerank

splits = generate_synthetic(SynthConfig(
    vocab_size=32, zipf_exponent=1.3,
    length_law=("negative_binomial", 10, 0.35),
    test_length_law=("uniform", 6, 44),
    terminal_token=".", noise_prob=0.02,
    train_size=4000, dev_size=50, test_size=200, seed=2024))
base = splits["train"]

# Both augmentations produce 10x the pairs. Concatenation draws a count
# n from Uniform{1..4} per output example and glues n training pairs
# together; resampling draws single pairs weighted by target length.
size = resolve_output_size(len(base), MsrConfig(n_max=1, multiplier=10,
                                                seed=0))
corpora = {
    "baseline": base,
    "concat": msr(base, MsrConfig(n_max=4, multiplier=10, seed=2025)),
    "resample": simple_resample(base, size, seed=2026),
}

# Target-length histograms, bucket width 6. Resampling tilts the same
# shape rightward a little; concatenation drags real mass out to 4x the
# original lengths.
print("target length histograms (each * is ~2% of the corpus):")
for name, corpus in corpora.items():
    hist = length_histogram(corpus, "target", 6)
    print("  %s  (mean %.1f)" % (name, hist.mean))
    for k, count in enumerate(hist.counts):
        share = count / hist.total
        if share < 0.005:
            continue
        print("    %3d-%-3d %s" % (k * hist.bucket_width,
                                   (k + 1) * hist.bucket_width,
                                   "*" * round(50 * share)))

sources = [pair.source for pair in splits["test"]]
refs = [pair.target for pair in splits["test"]]

# Same model family, same decoder, on each corpus. The number to watch
# is the gap between a working width (4) and a saturated one (200)
# under raw ranking.
print("raw ranking, BLEU at width 4 vs width 200:")
for name, corpus in corpora.items():
    model = train(corpus, order=3, lam=0.8)
    scores = {}
    for width in (4, 200):
        results = decode_corpus(model, sources, BeamConfig(width=width))
        hyps = [model.target_vocab.decode(rerank(r, ("none",), 1)[0].tokens)
                for r in results]
        scores[width] = corpus_bleu(hyps, refs)
    print("  %-9s w4 %6.2f   w200 %6.2f   gap %6.2f"
          % (name, scores[4], scores[200], scores[4] - scores[200]))

# Expected: concat < resample < baseline on the gap. Resampling helps a
# bit because the n-gram context around sentence ends gets longer, but
# every one of its examples still ends at the first period, so
# P(EOS | saw a period) stays near 1. In the concatenated corpus an
# example with n glued pairs has n periods and only the last one ends
# it, so that probability drops to roughly 1/n on average, and the
# cheap exit gets more expensive by the same factor.
