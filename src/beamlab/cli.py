"""Command-line surface for the whole toolbox.

Subcommands map one-to-one onto the library modules: gen-synth (corpus),
augment (resampling schemes), train (count model), decode (beam search),
evaluate (BLEU / WER / paired bootstrap), analyze (categories, buckets,
lengths, histograms) and experiment (the full declarative pipeline).
Evaluation and analysis print JSON or CSV to stdout; everything that writes
files does so atomically under --out and prints the paths it wrote.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 data error (missing or malformed inputs).
"""

import argparse
import math
import os
import sys

from .analysis import (BUCKET_COLUMNS, CATEGORY_COLUMNS,
                       DEFAULT_BUCKET_EDGES, bucket_quality, category_report,
                       classify, length_report)
from .augment import (MsrConfig, msr, resolve_output_size, save_provenance,
                      simple_resample)
from .corpus import (SynthConfig, generate_synthetic, length_histogram,
                     load_corpus, parse_length_law, read_lines, save_corpus,
                     tokenize)
from .errors import DataError
from .experiment import SYNTH_DEFAULTS, run_experiment
from .fileio import canonical_json, format_csv, write_text_atomic
from .metrics import paired_bootstrap, sentence_table
from .model import load_model, save_model, train
from .search import (BeamConfig, decode_corpus, format_decode_tsv,
                     normalization_slug, parse_decode_tsv,
                     parse_normalization, rerank)

DEFAULT_SEED = 1234


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this tool reserves 2 for
    data errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _out_dir(args):
    out = args.out or os.environ.get("BEAMLAB_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _read_sentences(path, allow_blank=True):
    sentences = [tokenize(line) for line in read_lines(path)]
    if not allow_blank:
        for lineno, tokens in enumerate(sentences, start=1):
            if not tokens:
                raise DataError("%s:%d: blank line" % (path, lineno))
    return sentences


def _read_hyps(path):
    """Hypothesis input: decode .tsv files contribute their rank-1 lines,
    anything else is read as plain one-sentence-per-line text."""
    if not os.fspath(path).endswith(".tsv"):
        return _read_sentences(path)
    try:
        text = "".join(line + "\n" for line in read_lines(path))
        return [group[0][3] for group in parse_decode_tsv(text)]
    except ValueError as exc:
        raise DataError("%s is not a decode file: %s" % (path, exc)) from None


def _emit(text):
    sys.stdout.write(text)


# ------------------------------------------------------------------- handlers

def cmd_gen_synth(args):
    config = SynthConfig(
        vocab_size=args.vocab_size,
        zipf_exponent=args.zipf,
        length_law=parse_length_law(args.length_law),
        noise_prob=args.noise,
        train_size=args.train_size,
        dev_size=args.dev_size,
        test_size=args.test_size,
        seed=args.seed,
        test_length_law=parse_length_law(args.test_length_law)
        if args.test_length_law else None,
        terminal_token=args.terminal_token or None)
    splits = generate_synthetic(config)
    out = _out_dir(args)
    for name, corpus in splits.items():
        src = os.path.join(out, name + ".src")
        tgt = os.path.join(out, name + ".tgt")
        save_corpus(corpus, src, tgt)
        print(src)
        print(tgt)
    return 0


def cmd_augment(args):
    multiplier, size = args.multiplier, args.size
    if multiplier is None and size is None:
        multiplier = 10.0
    # the flags are checked before the input is read
    config = MsrConfig(n_max=args.n if args.mode == "msr" else 1,
                       multiplier=multiplier, size=size, seed=args.seed)
    corpus = load_corpus(args.source, args.target)
    if args.mode == "msr":
        augmented = msr(corpus, config)
    else:
        augmented = simple_resample(
            corpus, resolve_output_size(len(corpus), config), args.seed)
    stem = args.prefix or "%s_%s" % (
        os.path.splitext(os.path.basename(args.source))[0], args.mode)
    out = _out_dir(args)
    src = os.path.join(out, stem + ".src")
    tgt = os.path.join(out, stem + ".tgt")
    save_corpus(augmented, src, tgt)
    print(src)
    print(tgt)
    if not args.no_prov:
        prov = os.path.join(out, stem + ".prov")
        save_provenance(augmented, prov)
        print(prov)
    return 0


def cmd_train(args):
    corpus = load_corpus(args.source, args.target)
    model = train(corpus, order=args.order, add_k_lex=args.add_k_lex,
                  add_k_ngram=args.add_k_ngram, lam=args.lam,
                  min_count=args.min_count)
    path = os.path.join(_out_dir(args), args.name + ".json")
    save_model(model, path)
    print(path)
    return 0


def cmd_decode(args):
    if args.topk < 1:
        raise ValueError("--topk must be >= 1, got %d" % args.topk)
    norm = parse_normalization(args.norm)
    config = BeamConfig(width=args.beam, max_len_a=args.max_len_a,
                        max_len_b=args.max_len_b)
    model = load_model(args.model)
    sources = _read_sentences(args.source, allow_blank=False)
    results = [rerank(r, norm, args.topk) for r in
               decode_corpus(model, sources, config, jobs=args.jobs)]
    name = args.name or "decode_w%d_%s.tsv" % (args.beam,
                                                normalization_slug(norm))
    path = os.path.join(_out_dir(args), name)
    write_text_atomic(path, format_decode_tsv(results, model.target_vocab))
    print(path)
    return 0


def cmd_evaluate(args):
    refs = _read_sentences(args.refs)
    if args.mode == "bootstrap":
        blob = paired_bootstrap(_read_hyps(args.hyps_a),
                                _read_hyps(args.hyps_b), refs,
                                metric=args.metric,
                                n_resamples=args.n_resamples, seed=args.seed)
    else:
        blob = sentence_table(_read_hyps(args.hyps), refs, args.mode).report()
    _emit(canonical_json(blob))
    return 0


def cmd_analyze_categories(args):
    hyps_small = _read_hyps(args.small)
    hyps_large = _read_hyps(args.large)
    refs = _read_sentences(args.refs)
    small = sentence_table(hyps_small, refs, args.metric)
    large = sentence_table(hyps_large, refs, args.metric)
    categories = classify(hyps_small, hyps_large, small, large)
    blob = category_report(categories, hyps_small, hyps_large, small, large)
    if args.format == "csv":
        _emit(format_csv(CATEGORY_COLUMNS, blob["categories"]))
    else:
        _emit(canonical_json(blob))
    return 0


def _parse_edges(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError("edges must be comma-separated integers, got %r"
                         % (text,)) from None


def cmd_analyze_buckets(args):
    hyps = _read_hyps(args.hyps)
    refs = _read_sentences(args.refs)
    edges = _parse_edges(args.edges)
    rows = bucket_quality(sentence_table(hyps, refs, args.metric), edges)
    if args.format == "csv":
        _emit(format_csv(BUCKET_COLUMNS, rows))
        return 0
    # JSON has no inf: the open high edge is written as null
    buckets = [{"low": r["bucket_low"], "count": r["count"],
                "high": None if math.isinf(r["bucket_high"])
                else r["bucket_high"], "metric": r["metric"]} for r in rows]
    _emit(canonical_json({"metric": args.metric, "edges": list(edges),
                          "buckets": buckets}))
    return 0


def cmd_analyze_lengths(args):
    hyps_by_beam = {}
    for item in args.hyps:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            raise ValueError("--hyps takes LABEL=PATH, got %r" % (item,))
        if label in hyps_by_beam:
            raise ValueError("--hyps repeats the label %r" % (label,))
        hyps_by_beam[label] = _read_hyps(path)
    _emit(canonical_json(length_report(hyps_by_beam)))
    return 0


def cmd_analyze_histogram(args):
    corpus = load_corpus(args.source, args.target)
    _emit(length_histogram(corpus, args.side, args.bucket_width).to_csv())
    return 0


def cmd_experiment(args):
    out = _out_dir(args)
    run_experiment(args.config, out, jobs=args.jobs, seed_override=args.seed)
    print(os.path.join(out, "manifest.json"))
    return 0


# --------------------------------------------------------------------- parser

def build_parser():
    # one parent parser per shared flag, given to the subcommands that read it
    seed, jobs, out = (argparse.ArgumentParser(add_help=False)
                       for _ in range(3))
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="random seed (default: %(default)s)")
    jobs.add_argument("--jobs", type=int, default=1,
                      help="parallel workers for decoding (default: 1)")
    out.add_argument("--out", default=None,
                     help="output directory (default: $BEAMLAB_OUT or .)")

    parser = _Parser(prog="beamlab",
                     description="Length-bias laboratory: synthetic corpora, "
                                 "resampling augmentation, count-model "
                                 "training, beam-search decoding and "
                                 "degradation analysis.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser("gen-synth", parents=[seed, out],
                       help="generate synthetic train/dev/test corpora")
    p.add_argument("--vocab-size", type=int,
                   default=SYNTH_DEFAULTS["vocab_size"])
    p.add_argument("--zipf", type=float,
                   default=SYNTH_DEFAULTS["zipf_exponent"],
                   help="source token rank exponent")
    p.add_argument("--length-law", default=SYNTH_DEFAULTS["length_law"],
                   help="train/dev length distribution, e.g. 'uniform(4, 16)'")
    p.add_argument("--test-length-law",
                   default=SYNTH_DEFAULTS["test_length_law"],
                   help="test length distribution ('' reuses --length-law)")
    p.add_argument("--terminal-token",
                   default=SYNTH_DEFAULTS["terminal_token"],
                   help="sentence-final token ('' disables)")
    p.add_argument("--noise", type=float, default=SYNTH_DEFAULTS["noise_prob"],
                   help="per-token corruption probability")
    p.add_argument("--train-size", type=int,
                   default=SYNTH_DEFAULTS["train_size"])
    p.add_argument("--dev-size", type=int, default=SYNTH_DEFAULTS["dev_size"])
    p.add_argument("--test-size", type=int,
                   default=SYNTH_DEFAULTS["test_size"])
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("augment", help="resample a training corpus")
    aug = p.add_subparsers(dest="mode", metavar="{msr,resample}",
                           required=True)
    for mode in ("msr", "resample"):
        q = aug.add_parser(mode, parents=[seed, out])
        q.add_argument("source", help="input source-side text file")
        q.add_argument("target", help="input target-side text file")
        group = q.add_mutually_exclusive_group()
        group.add_argument("--multiplier", type=float, default=None,
                           help="output size as a multiple of the input "
                                "(default: 10)")
        group.add_argument("--size", type=int, default=None,
                           help="exact output size")
        if mode == "msr":
            q.add_argument("--n", type=int, default=4,
                           help="max pairs concatenated per example")
        q.add_argument("--prefix", default=None,
                       help="output file stem (default: <input>_%s)" % mode)
        q.add_argument("--no-prov", action="store_true",
                       help="skip the .prov sidecar")
        q.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", parents=[out],
                       help="train a count-based translation model")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--add-k-lex", type=float, default=0.1)
    p.add_argument("--add-k-ngram", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=0.6,
                   help="lexical vs n-gram interpolation weight")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--name", default="model", help="model file stem")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", parents=[jobs, out],
                       help="beam-search decode a source file")
    p.add_argument("model", help="trained model file")
    p.add_argument("source", help="source-side text file")
    p.add_argument("--beam", type=int, default=4, help="beam width")
    p.add_argument("--norm", default="none",
                   help="none, by_length:ALPHA or gnmt:ALPHA")
    p.add_argument("--max-len-a", type=float, default=2.0)
    p.add_argument("--max-len-b", type=int, default=10)
    p.add_argument("--topk", type=int, default=1,
                   help="hypotheses written per input")
    p.add_argument("--name", default=None, help="output file name")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    ev = p.add_subparsers(dest="mode", metavar="{bleu,wer,bootstrap}",
                          required=True)
    for mode in ("bleu", "wer"):
        q = ev.add_parser(mode)
        q.add_argument("hyps", help="hypothesis file (.tsv or plain text)")
        q.add_argument("refs", help="reference text file")
        q.set_defaults(func=cmd_evaluate)
    q = ev.add_parser("bootstrap", parents=[seed])
    q.add_argument("hyps_a")
    q.add_argument("hyps_b")
    q.add_argument("refs")
    q.add_argument("--metric", choices=("bleu", "wer"), default="bleu")
    q.add_argument("--n-resamples", type=int, default=1000)
    q.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="degradation reports")
    an = p.add_subparsers(dest="mode",
                          metavar="{categories,buckets,lengths,histogram}",
                          required=True)
    q = an.add_parser("categories")
    q.add_argument("--small", required=True,
                   help="hypotheses from the smaller beam")
    q.add_argument("--large", required=True,
                   help="hypotheses from the larger beam")
    q.add_argument("--refs", required=True)
    q.add_argument("--metric", choices=("bleu", "wer"), default="bleu")
    q.add_argument("--format", choices=("json", "csv"), default="json")
    q.set_defaults(func=cmd_analyze_categories)

    q = an.add_parser("buckets")
    q.add_argument("--hyps", required=True)
    q.add_argument("--refs", required=True)
    q.add_argument("--edges",
                   default=",".join(str(e) for e in DEFAULT_BUCKET_EDGES),
                   help="comma-separated reference-length thresholds")
    q.add_argument("--metric", choices=("bleu", "wer"), default="bleu")
    q.add_argument("--format", choices=("json", "csv"), default="json")
    q.set_defaults(func=cmd_analyze_buckets)

    q = an.add_parser("lengths")
    q.add_argument("--hyps", action="append", required=True,
                   metavar="LABEL=PATH",
                   help="repeatable: one labelled hypothesis file per beam")
    q.set_defaults(func=cmd_analyze_lengths)

    q = an.add_parser("histogram")
    q.add_argument("source")
    q.add_argument("target")
    q.add_argument("--side", choices=("source", "target"), default="target")
    q.add_argument("--bucket-width", type=int, default=4)
    q.set_defaults(func=cmd_analyze_histogram)

    p = sub.add_parser("experiment", parents=[jobs, out],
                       help="run the full pipeline from a config file")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config's seed")
    p.add_argument("--config", required=True,
                   help="experiment config file (YAML)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else exc.code
    try:
        return args.func(args)
    except DataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
