"""Parallel-corpus data model, vocabulary, length statistics, and a synthetic
length-biased translation task.

A corpus holds token ids only. Each side is a `Side`: a table of distinct
token strings, the flat ids of every sentence into it, and CSR offsets
(sentence i is ids[offsets[i]:offsets[i + 1]]). Synthesis, loading,
resampling, vocabularies, training and histograms read these arrays;
`SentencePair` lists of strings are views built on demand.

The synthetic task is a noisy bijective dictionary map: source tokens are
drawn i.i.d. from a Zipf distribution, the target is the token-by-token
dictionary image, and sentence lengths follow a configurable law that may
differ between train and test. That length mismatch is the experimental lever
the rest of the package studies.
"""

import math
import operator
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import AlignmentError, FormatError
from .fileio import format_csv, write_bytes_atomic

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
BOS_ID, EOS_ID, UNK_ID = 0, 1, 2
RESERVED = (BOS, EOS, UNK)

# the largest vocabulary and split a synthetic corpus may ask for, and
# the most tokens a split may expect (law mean x split size)
MAX_VOCAB_SIZE = 1_000_000
MAX_SPLIT_SIZE = 1_000_000
MAX_SPLIT_TOKENS = 50_000_000

# tokens written per slice by `rows_bytes`
_ROWS_BYTES_SLICE = 2 ** 12


@dataclass
class SentencePair:
    source: list
    target: list
    pair_id: int


@dataclass
class AugmentedPair(SentencePair):
    provenance: list = field(default_factory=list)


def _offsets(lengths):
    offsets = np.zeros(len(lengths) + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _gather_rows(ids, offsets, rows):
    """The CSR (ids, offsets) of rows `rows` of the CSR (ids, offsets), in
    the order given."""
    rows = np.asarray(rows, np.int64)
    starts = offsets.take(rows)
    lengths = offsets.take(rows + 1) - starts
    out_offsets = _offsets(lengths)
    # token k of output row r is token starts[r] + k - out_offsets[r]
    index = np.repeat(starts - out_offsets[:-1], lengths)
    index += np.arange(out_offsets[-1])
    return ids.take(index), out_offsets


def rows_bytes(table, ids, offsets):
    """The rows of the CSR (ids, offsets) as UTF-8 lines of the `table`
    strings they index, joined by spaces. Every row must be non-empty."""
    words = [t.encode("utf-8") for t in table]
    words = [w + b" " for w in words] + [w + b"\n" for w in words]
    blob = np.frombuffer(b"".join(words), np.uint8)
    word_offsets = _offsets(np.fromiter(map(len, words), np.int64, len(words)))
    codes = ids.astype(np.int64)
    codes[offsets[1:] - 1] += len(table)
    # each word's bytes are a row of the CSR (blob, word_offsets); the
    # gather's byte index takes 8 bytes per output byte, so go in slices
    return b"".join(
        _gather_rows(blob, word_offsets, codes[i:i + _ROWS_BYTES_SLICE])[0]
        .tobytes() for i in range(0, len(codes), _ROWS_BYTES_SLICE))


class Side:
    """One side of a corpus: sentence i is the strings of `table` at
    ids[offsets[i]:offsets[i + 1]]. `table` holds distinct strings, `ids`
    is int32 and `offsets` is int64 of length n + 1, starting at 0."""

    def __init__(self, table, ids, offsets):
        self.table = tuple(table)
        self.ids = np.asarray(ids, np.int32)
        self.offsets = np.asarray(offsets, np.int64)

    def __len__(self):
        return len(self.offsets) - 1

    def lengths(self):
        return np.diff(self.offsets)

    def sentence(self, i):
        return [self.table[j] for j in
                self.ids[self.offsets[i]:self.offsets[i + 1]].tolist()]

    def sentences(self):
        words = list(map(self.table.__getitem__, self.ids.tolist()))
        bounds = self.offsets.tolist()
        return [words[a:b] for a, b in zip(bounds, bounds[1:])]


def _side_from_sentences(sentences):
    """The Side of token lists; its table lists tokens in first-seen
    order."""
    flat = list(chain.from_iterable(sentences))
    table = list(dict.fromkeys(flat))
    index = {tok: i for i, tok in enumerate(table)}
    return Side(table, np.fromiter(map(index.__getitem__, flat), np.int32,
                                   len(flat)),
                _offsets([len(s) for s in sentences]))


class ParallelCorpus:
    """Two sides of equal length. An augmented corpus also holds
    `provenance`, the CSR (pair indices, offsets) of the original pairs
    that built each pair; a plain corpus has None. Indexing and iteration
    give SentencePair (AugmentedPair) views."""

    def __init__(self, source, target, provenance=None):
        if len(source) != len(target):
            raise ValueError("the sides hold %d and %d sentences"
                             % (len(source), len(target)))
        for side in (source, target):
            empty = np.flatnonzero(side.lengths() < 1)
            if len(empty):
                raise ValueError("pair %d has an empty side" % empty[0])
        self.source = source
        self.target = target
        self.provenance = provenance

    def __len__(self):
        return len(self.source)

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("pair index out of range")
        source, target = self.source.sentence(i), self.target.sentence(i)
        if self.provenance is None:
            return SentencePair(source, target, i)
        rows, offsets = self.provenance
        return AugmentedPair(source, target, i,
                             rows[offsets[i]:offsets[i + 1]].tolist())

    def __iter__(self):
        pairs = zip(self.source.sentences(), self.target.sentences())
        if self.provenance is None:
            return (SentencePair(s, t, i) for i, (s, t) in enumerate(pairs))
        rows, offsets = self.provenance
        rows, bounds = rows.tolist(), offsets.tolist()
        return (AugmentedPair(s, t, i, rows[bounds[i]:bounds[i + 1]])
                for i, (s, t) in enumerate(pairs))

    def arrays(self, which):
        """The Side named 'source' or 'target'."""
        if which == "source":
            return self.source
        if which == "target":
            return self.target
        raise ValueError("side must be 'source' or 'target', got %r" % (which,))

    def side(self, which):
        return self.arrays(which).sentences()

    def lengths(self, which):
        return self.arrays(which).lengths()


def concatenated(corpus, rows, offsets):
    """The corpus whose pair j joins pairs rows[offsets[j]:offsets[j + 1]]
    of `corpus` end to end, with those rows as its provenance."""
    rows = np.asarray(rows, np.int64)
    offsets = np.asarray(offsets, np.int64)
    sides = []
    for side in (corpus.source, corpus.target):
        ids, token_offsets = _gather_rows(side.ids, side.offsets, rows)
        sides.append(Side(side.table, ids, token_offsets.take(offsets)))
    return ParallelCorpus(*sides, provenance=(rows, offsets))


def tokenize(line):
    return line.split()


def read_lines(path):
    """The lines of a UTF-8 file, broken only at line ends ("\n", "\r\n" or
    "\r"); FormatError names a file it cannot read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return split_lines(handle.read())
    except OSError as err:
        raise FormatError("cannot read %s: %s" % (path, err.strerror)) from err
    except UnicodeDecodeError as err:
        raise FormatError("%s is not valid UTF-8: %s" % (path, err)) from err


def split_lines(text):
    """The lines of `text`, split at "\n" only: str.splitlines would also
    break a line at form feeds, vertical tabs, \x1c-\x1e, \x85, U+2028
    and U+2029."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty text after the last line end
    return lines


def _parse_side(path, lines):
    sentences = list(map(tokenize, lines))
    side = _side_from_sentences(sentences)
    # markers are looked for among the distinct tokens; the line-by-line
    # walk only names the first bad line
    if not set(RESERVED).isdisjoint(side.table) or not side.lengths().all():
        for lineno, tokens in enumerate(sentences, start=1):
            if not tokens:
                raise FormatError("%s:%d: blank line" % (path, lineno))
            for tok in tokens:
                if tok in RESERVED:
                    raise FormatError("%s:%d: reserved marker %r in text"
                                      % (path, lineno, tok))
    return side


def load_corpus(source_path, target_path):
    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            "line counts differ: %s has %d, %s has %d"
            % (source_path, len(src_lines), target_path, len(tgt_lines)))
    source = _parse_side(source_path, src_lines)
    del src_lines
    target = _parse_side(target_path, tgt_lines)
    return ParallelCorpus(source, target)


def save_corpus(corpus, source_path, target_path):
    for side, path in ((corpus.source, source_path),
                       (corpus.target, target_path)):
        write_bytes_atomic(path, rows_bytes(side.table, side.ids, side.offsets))


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

    def encode_side(self, side):
        """The id of every token of a Side, UNK if unknown: one lookup per
        table entry, then one take."""
        return np.array([self.id(t) for t in side.table],
                        np.int32).take(side.ids)

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
    arrays = corpus.arrays(side)
    counts = dict(zip(arrays.table, np.bincount(
        arrays.ids, minlength=len(arrays.table)).tolist()))
    # the table may hold tokens that never occur (count 0)
    kept = sorted((t for t, c in counts.items() if c >= max(min_count, 1)),
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


def check_bucket_width(bucket_width):
    if bucket_width < 1:
        raise ValueError("histogram bucket width must be >= 1, got %r"
                         % (bucket_width,))


def length_histogram(corpus, side, bucket_width):
    check_bucket_width(bucket_width)
    lengths = corpus.lengths(side)
    if not len(lengths):
        raise ValueError("empty corpus has no length histogram")
    return LengthHistogram(bucket_width=bucket_width,
                           counts=np.bincount(lengths // bucket_width).tolist(),
                           mean=int(lengths.sum()) / len(lengths),
                           total=len(lengths))


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
        if not 0 < r < math.inf or not 0 < p <= 1:
            raise ValueError("negative_binomial needs a finite r > 0 and p "
                             "in (0, 1]")
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


def law_mean(law):
    """The mean length `draw_lengths` draws from `law`; the
    negative-binomial draw is shifted by one."""
    kind = law[0]
    if kind == "geometric":
        return 1.0 / law[1]
    if kind == "negative_binomial":
        return 1.0 + law[1] * (1.0 - law[2]) / law[2]
    if kind == "uniform":
        return (law[1] + law[2]) / 2.0
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
        if not 2 <= self.vocab_size <= MAX_VOCAB_SIZE:
            raise ValueError("vocab_size must be in 2..%d, got %d"
                             % (MAX_VOCAB_SIZE, self.vocab_size))
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError("noise_prob must be in [0, 1]")
        for _, size, law in self.plan():
            if not 1 <= size <= MAX_SPLIT_SIZE:
                raise ValueError("split sizes must be in 1..%d, got %d"
                                 % (MAX_SPLIT_SIZE, size))
            if law_mean(law) * size > MAX_SPLIT_TOKENS:
                raise ValueError("a split of %d sentences of mean length %g "
                                 "expects more than %d tokens"
                                 % (size, law_mean(law), MAX_SPLIT_TOKENS))
        if not 0 < self.zipf_exponent < math.inf:
            raise ValueError("zipf_exponent must be finite and positive, "
                             "got %r" % (self.zipf_exponent,))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %d" % self.seed)
        term = self.terminal_token
        if term is not None and (not isinstance(term, str) or not term
                                 or term.split() != [term] or term in RESERVED):
            raise ValueError("bad terminal token %r" % (term,))

    def plan(self):
        """(name, size, length law) of each split, in drawing order."""
        return (("train", self.train_size, self.length_law),
                ("dev", self.dev_size, self.length_law),
                ("test", self.test_size,
                 self.test_length_law or self.length_law))


def _zipf_probs(exponent, size):
    weights = np.arange(1, size + 1, dtype=float) ** -exponent
    return weights / weights.sum()


def _table_with(table, token):
    """`table` with `token` appended unless it is there, and its index."""
    if token in table:
        return table, table.index(token)
    return table + [token], len(table)


def generate_synthetic(config):
    """Build {train, dev, test} corpora. Deterministic in config.seed; the rng
    stream is consumed in a fixed order: dictionary permutation first, then per
    split lengths, source ranks, noise mask, noise replacements. A token's
    id is its rank (source) or its dictionary image (target); the terminal
    token, if any, follows the words in each table."""
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(config.vocab_size)
    probs = _zipf_probs(config.zipf_exponent, config.vocab_size)
    src_table = ["s%d" % i for i in range(config.vocab_size)]
    tgt_table = ["t%d" % i for i in range(config.vocab_size)]
    term = config.terminal_token
    if term is not None:
        src_table, src_term = _table_with(src_table, term)
        tgt_table, tgt_term = _table_with(tgt_table, term)

    splits = {}
    for split_name, size, law in config.plan():
        lengths = draw_lengths(law, size, rng)
        content = lengths - 1 if term is not None else lengths
        total = int(content.sum())
        ranks = rng.choice(config.vocab_size, size=total, p=probs)
        noisy = rng.random(total) < config.noise_prob
        replacements = rng.integers(0, config.vocab_size, size=total)
        tgt_ranks = perm[ranks]
        tgt_ranks[noisy] = replacements[noisy]
        if term is not None:
            ends = np.cumsum(content)
            ranks = np.insert(ranks, ends, src_term)
            tgt_ranks = np.insert(tgt_ranks, ends, tgt_term)
        offsets = _offsets(lengths)
        splits[split_name] = ParallelCorpus(
            Side(src_table, ranks, offsets),
            Side(tgt_table, tgt_ranks, offsets))
    return splits
