"""
The same medicine makes greedy run long
=======================================

Training on concatenated multi-sentence examples protects wide beams
from stopping early. It does the opposite to width 1. The model has
learned that a period usually continues, so greedy sails past the end
of the source, the alignment clamps to the final source token, and the
decoder emits periods until the length cap. One extra beam slot is
already enough to recover, because the genuinely finished hypothesis
only has to survive ranking once.

Runs in a few seconds on one core.
"""

from beamlab.augment import MsrConfig, msr
from beamlab.corpus import SynthConfig, generate_synthetic
from beamlab.metrics import corpus_bleu
from beamlab.model import train
from beamlab.search import BeamConfig, decode_corpus, rerank

splits = generate_synthetic(SynthConfig(
    vocab_size=32, zipf_exponent=1.3,
    length_law=("negative_binomial", 10, 0.35),
    test_length_law=("uniform", 6, 44),
    terminal_token=".", noise_prob=0.02,
    train_size=4000, dev_size=50, test_size=200, seed=2024))

augmented = msr(splits["train"], MsrConfig(n_max=4, multiplier=10, seed=2025))
model = train(augmented, order=3, lam=0.8)
sources = [pair.source for pair in splits["test"]]
refs = [pair.target for pair in splits["test"]]

print("concat-trained model, raw ranking:")
worst = None
for width in (1, 2, 4):
    results = decode_corpus(model, sources, BeamConfig(width=width))
    hyps = [model.target_vocab.decode(rerank(r, ("none",), 1)[0].tokens)
            for r in results]
    lens = [len(h) for h in hyps]
    bleu = corpus_bleu(hyps, refs)
    print("  width %d  BLEU %6.2f   mean hyp length %5.1f   max %3d"
          % (width, bleu, sum(lens) / len(lens), max(lens)))
    if width == 1:
        worst = max(range(len(hyps)), key=lambda i: lens[i] - len(refs[i]))
        overrun = hyps[worst]

# The worst overrun, tail only. The cap here is 2*|source| + 10, and
# greedy uses every token of it.
print("\nworst width-1 overrun (test sentence %d): source %d tokens, "
      "reference %d, hypothesis %d" % (worst, len(sources[worst]),
                                       len(refs[worst]), len(overrun)))
print("  hypothesis tail: ...", " ".join(overrun[-20:]))
