"""
Wider beams stop early
======================

Train a count-based transducer on sentences that run shorter than the
test set, then decode the test set at increasing beam widths. Small
beams copy the whole source. Large beams find a high-probability early
exit instead and corpus BLEU collapses. Reranking the very same beams
by mean per-token log-probability undoes the damage.

Runs in a few seconds on one core.
"""

from beamlab.analysis import category_report, classify
from beamlab.corpus import SynthConfig, generate_synthetic
from beamlab.metrics import corpus_bleu, sentence_table
from beamlab.model import train
from beamlab.search import (BeamConfig, decode_corpus, parse_normalization,
                            rerank)

# Training lengths follow a negative binomial with mean ~19.6; test
# lengths are uniform on [6, 44], so roughly half the test set is longer
# than almost everything the model saw.
splits = generate_synthetic(SynthConfig(
    vocab_size=32, zipf_exponent=1.3,
    length_law=("negative_binomial", 10, 0.35),
    test_length_law=("uniform", 6, 44),
    terminal_token=".", noise_prob=0.02,
    train_size=4000, dev_size=50, test_size=200, seed=2024))

model = train(splits["train"], order=3, lam=0.8)
sources = [pair.source for pair in splits["test"]]
refs = [pair.target for pair in splits["test"]]


def top1(results):
    return [model.target_vocab.decode(r.hypotheses[0].tokens)
            for r in results]


# The curve. Width 1 is greedy; width 200 is wide enough to find every
# cheap exit the model can express.
print("raw (unnormalized) ranking:")
decoded = {}
for width in (1, 4, 32, 200):
    decoded[width] = decode_corpus(model, sources, BeamConfig(width=width))
    hyps = top1(decoded[width])
    bleu = corpus_bleu(hyps, refs)
    print("  width %-3d  BLEU %6.2f   mean hyp length %5.2f"
          % (width, bleu, sum(map(len, hyps)) / len(hyps)))

# Why: a short hypothesis ending in ". EOS" costs a handful of nats
# total, while every extra content token costs a little. Past some
# source length the exit outscores the full copy, and only a wide beam
# keeps the exit alive long enough to win.
small = top1(decoded[4])
large = top1(decoded[200])
tables = (sentence_table(small, refs), sentence_table(large, refs))
cats = classify(small, large, *tables)
report = category_report(cats, small, large, *tables)
print("\nwidth 4 -> width 200, sentence by sentence:")
for row in report["categories"]:
    if row["count"] == 0:
        continue
    print("  %-9s %3d sentences (%.0f%%)  contribution %+.2f BLEU  "
          "mean length %5.1f -> %4.1f"
          % (row["category"], row["count"], 100 * row["fraction"],
             row["contribution"], row["mean_len_small"],
             row["mean_len_large"]))

# One of the casualties, verbatim. The wide beam's output is a strict
# prefix of the narrow beam's output plus the terminal period.
idx = min((i for i, c in enumerate(cats) if c == "Prefix"),
          key=lambda i: len(small[i]))
print("\nexample (test sentence %d, source length %d):" % (idx, len(sources[idx])))
print("  width 4  :", " ".join(small[idx]))
print("  width 200:", " ".join(large[idx]))
print("  reference:", " ".join(refs[idx]))

# The fix that needs no retraining: rank the finished set by logprob
# divided by length. Search order never depended on the normalization,
# so reranking the stored beams is exactly re-decoding.
by_length = parse_normalization("by_length:1")
print("\nby_length:1 ranking of the same beams:")
for width in (4, 200):
    hyps = top1([rerank(r, by_length, topk=1) for r in decoded[width]])
    bleu = corpus_bleu(hyps, refs)
    print("  width %-3d  BLEU %6.2f   mean hyp length %5.2f"
          % (width, bleu, sum(map(len, hyps)) / len(hyps)))
