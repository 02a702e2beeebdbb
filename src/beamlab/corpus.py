"""Parallel-corpus data model, vocabulary, length statistics, and a synthetic
length-biased translation task.

The synthetic task is a noisy bijective dictionary map: source tokens are
drawn i.i.d. from a Zipf distribution, the target is the token-by-token
dictionary image, and sentence lengths follow a configurable law that may
differ between train and test. That length mismatch is the experimental lever
the rest of the package studies.
"""

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import AlignmentError, FormatError
from .fileio import format_csv, write_text_atomic

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
BOS_ID, EOS_ID, UNK_ID = 0, 1, 2
RESERVED = (BOS, EOS, UNK)


@dataclass
class SentencePair:
    source: list
    target: list
    pair_id: int


class ParallelCorpus:
    def __init__(self, pairs, name="corpus"):
        self.pairs = list(pairs)
        self.name = name
        for i, pair in enumerate(self.pairs):
            if pair.pair_id != i:
                raise ValueError("pair ids must be 0..n-1 in order")
            if not pair.source or not pair.target:
                raise ValueError("pair %d has an empty side" % i)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def side(self, which):
        if which == "source":
            return [p.source for p in self.pairs]
        if which == "target":
            return [p.target for p in self.pairs]
        raise ValueError("side must be 'source' or 'target', got %r" % (which,))

    def lengths(self, which):
        return [len(s) for s in self.side(which)]


def corpus_from_token_pairs(pairs, name="corpus"):
    return ParallelCorpus(
        [SentencePair(list(src), list(tgt), i) for i, (src, tgt) in enumerate(pairs)],
        name=name)


def tokenize(line):
    return line.split()


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as err:
        raise FormatError("cannot read %s: %s" % (path, err.strerror)) from err
    except UnicodeDecodeError as err:
        raise FormatError("%s is not valid UTF-8: %s" % (path, err)) from err


def _parse_side(path, lines):
    sentences = []
    for lineno, line in enumerate(lines, start=1):
        tokens = tokenize(line)
        if not tokens:
            raise FormatError("%s:%d: blank line" % (path, lineno))
        for tok in tokens:
            if tok in RESERVED:
                raise FormatError(
                    "%s:%d: reserved marker %r in text" % (path, lineno, tok))
        sentences.append(tokens)
    return sentences


def load_corpus(source_path, target_path, name=None):
    src_lines = _read_lines(source_path)
    tgt_lines = _read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            "line counts differ: %s has %d, %s has %d"
            % (source_path, len(src_lines), target_path, len(tgt_lines)))
    sources = _parse_side(source_path, src_lines)
    targets = _parse_side(target_path, tgt_lines)
    if name is None:
        name = str(source_path)
    return corpus_from_token_pairs(zip(sources, targets), name=name)


def save_corpus(corpus, source_path, target_path):
    write_text_atomic(source_path,
                      "".join(" ".join(p.source) + "\n" for p in corpus))
    write_text_atomic(target_path,
                      "".join(" ".join(p.target) + "\n" for p in corpus))


class Vocabulary:
    """Token <-> id map with fixed reserved ids: BOS=0, EOS=1, UNK=2."""

    def __init__(self, content_tokens):
        seen = set()
        for tok in content_tokens:
            if not tok or tok.split() != [tok]:
                raise ValueError("bad vocabulary token %r" % (tok,))
            if tok in RESERVED or tok in seen:
                raise ValueError("duplicate or reserved token %r" % (tok,))
            seen.add(tok)
        self.id_to_token = list(RESERVED) + list(content_tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def id(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def token(self, token_id):
        return self.id_to_token[token_id]

    def encode(self, tokens):
        return [self.id(t) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]

    def content_tokens(self):
        return self.id_to_token[3:]

    def __len__(self):
        return len(self.id_to_token)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token


def build_vocabulary(corpus, side, min_count=1):
    if not len(corpus):
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter(chain.from_iterable(corpus.side(side)))
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass
class LengthHistogram:
    bucket_width: int
    counts: list
    mean: float
    total: int

    def to_csv(self):
        width = self.bucket_width
        rows = [{"bucket_start": k * width, "bucket_end": (k + 1) * width,
                 "count": count} for k, count in enumerate(self.counts)]
        return (format_csv(("bucket_start", "bucket_end", "count"), rows)
                + "# mean=%r total=%d\n" % (self.mean, self.total))


def length_histogram(corpus, side, bucket_width):
    if bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    lengths = corpus.lengths(side)
    if not lengths:
        raise ValueError("empty corpus has no length histogram")
    counts = [0] * (max(lengths) // bucket_width + 1)
    for n in lengths:
        counts[n // bucket_width] += 1
    return LengthHistogram(bucket_width=bucket_width, counts=counts,
                           mean=sum(lengths) / len(lengths), total=len(lengths))


# ----------------------------------------------------------------- synthesis

_LAW_RE = re.compile(r"^\s*(\w+)\s*\(([^)]*)\)\s*$")


def parse_length_law(text):
    """Parse 'geometric(p)', 'negative_binomial(r,p)' or 'uniform(lo,hi)'."""
    match = _LAW_RE.match(text)
    if not match:
        raise ValueError("cannot parse length law %r" % (text,))
    kind, raw_args = match.groups()
    args = [a.strip() for a in raw_args.split(",")] if raw_args.strip() else []
    if kind == "geometric" and len(args) == 1:
        p = float(args[0])
        if not 0 < p <= 1:
            raise ValueError("geometric p must be in (0, 1], got %r" % p)
        return ("geometric", p)
    if kind == "negative_binomial" and len(args) == 2:
        r, p = float(args[0]), float(args[1])
        if r <= 0 or not 0 < p <= 1:
            raise ValueError("negative_binomial needs r > 0 and p in (0, 1]")
        return ("negative_binomial", r, p)
    if kind == "uniform" and len(args) == 2:
        lo, hi = int(args[0]), int(args[1])
        if not 1 <= lo <= hi:
            raise ValueError("uniform needs 1 <= lo <= hi, got (%d, %d)" % (lo, hi))
        return ("uniform", lo, hi)
    raise ValueError("unknown length law %r" % (text,))


def draw_lengths(law, size, rng):
    kind = law[0]
    if kind == "geometric":
        return rng.geometric(law[1], size=size)
    if kind == "negative_binomial":
        return rng.negative_binomial(law[1], law[2], size=size) + 1
    if kind == "uniform":
        return rng.integers(law[1], law[2] + 1, size=size)
    raise ValueError("unknown length law %r" % (law,))


@dataclass
class SynthConfig:
    vocab_size: int
    zipf_exponent: float
    length_law: tuple
    noise_prob: float
    train_size: int
    dev_size: int
    test_size: int
    seed: int
    test_length_law: tuple = None
    terminal_token: str = None

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError("noise_prob must be in [0, 1]")
        for size in (self.train_size, self.dev_size, self.test_size):
            if size < 1:
                raise ValueError("split sizes must be >= 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        term = self.terminal_token
        if term is not None and (not isinstance(term, str) or not term
                                 or term.split() != [term] or term in RESERVED):
            raise ValueError("bad terminal token %r" % (term,))


def _zipf_probs(exponent, size):
    weights = np.arange(1, size + 1, dtype=float) ** -exponent
    return weights / weights.sum()


def generate_synthetic(config):
    """Build {train, dev, test} corpora. Deterministic in config.seed; the rng
    stream is consumed in a fixed order: dictionary permutation first, then per
    split lengths, source ranks, noise mask, noise replacements."""
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(config.vocab_size)
    probs = _zipf_probs(config.zipf_exponent, config.vocab_size)
    src_names = ["s%d" % i for i in range(config.vocab_size)]
    tgt_names = ["t%d" % i for i in range(config.vocab_size)]
    term = config.terminal_token

    splits = {}
    plan = (("train", config.train_size, config.length_law),
            ("dev", config.dev_size, config.length_law),
            ("test", config.test_size, config.test_length_law or config.length_law))
    for split_name, size, law in plan:
        lengths = draw_lengths(law, size, rng)
        content = lengths - 1 if term is not None else lengths
        total = int(content.sum())
        ranks = rng.choice(config.vocab_size, size=total, p=probs)
        noisy = rng.random(total) < config.noise_prob
        replacements = rng.integers(0, config.vocab_size, size=total)
        tgt_ranks = perm[ranks]
        tgt_ranks[noisy] = replacements[noisy]

        pairs = []
        offsets = np.concatenate([[0], np.cumsum(content)])
        for i in range(size):
            lo, hi = offsets[i], offsets[i + 1]
            src = [src_names[r] for r in ranks[lo:hi]]
            tgt = [tgt_names[r] for r in tgt_ranks[lo:hi]]
            if term is not None:
                src.append(term)
                tgt.append(term)
            pairs.append(SentencePair(src, tgt, i))
        splits[split_name] = ParallelCorpus(pairs, name=split_name)
    return splits
