"""Declarative experiment pipeline: config file in, report bundle out.

One config drives the whole chain: generate a synthetic parallel corpus,
build augmented training variants (multi-sentence resampling and plain
length-proportional resampling), train one model per system, decode a shared
test set across beam widths and normalizations, then emit quality curves,
category and bucket reports, and training-length histograms as CSV + JSON.
A manifest records the config snapshot, its hash, and every artifact path.
"""

import hashlib
import json
import os
import posixpath
import shutil
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import yaml

from . import __version__, analysis, augment, metrics, model as model_mod, search
from .corpus import (RESERVED, SynthConfig, generate_synthetic,
                     length_histogram, parse_length_law, save_corpus)
from .errors import DataError
from .fileio import (format_csv, write_bytes_atomic, write_json_atomic,
                     write_text_atomic)

SYSTEMS = ("baseline", "msr", "resample")

SYNTH_DEFAULTS = {
    "vocab_size": 48,
    "zipf_exponent": 1.3,
    "length_law": "negative_binomial(10, 0.35)",
    "test_length_law": "uniform(6, 44)",
    "terminal_token": ".",
    "noise_prob": 0.02,
    "train_size": 9000,
    "dev_size": 300,
    "test_size": 600,
}
_AUGMENT_DEFAULTS = {"n_max": 4, "multiplier": 10, "n_sweep": []}
_MODEL_DEFAULTS = {"order": 3, "add_k_lex": 0.1, "add_k_ngram": 0.1,
                   "lambda": 0.8, "min_count": 1}
_DECODE_DEFAULTS = {"widths": [1, 4, 32, 200],
                    "normalizations": ["none", "by_length:1.0"],
                    "max_len_a": 2.0, "max_len_b": 10, "topk": 1}
_EVALUATE_DEFAULTS = {"metric": "bleu"}
_ANALYSIS_DEFAULTS = {"category_pair": [4, 200],
                      "bucket_edges": [8, 16, 24, 32, 40, 48, 56],
                      "histogram_bucket_width": 4}
_SECTIONS = ("synth", "augment", "model", "decode", "evaluate", "analysis")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    systems: tuple
    synth: SynthConfig
    n_max: int
    multiplier: float
    n_sweep: tuple
    order: int
    add_k_lex: float
    add_k_ngram: float
    lam: float
    min_count: int
    widths: tuple
    normalizations: tuple
    max_len_a: float
    max_len_b: int
    topk: int
    metric: str
    category_pair: tuple
    bucket_edges: tuple
    histogram_bucket_width: int


def _merge_section(name, given, defaults):
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise DataError("config section '%s' must be a mapping" % name)
    unknown = sorted(str(key) for key in set(given) - set(defaults))
    if unknown:
        raise DataError("config section '%s': unknown key(s) %s"
                        % (name, ", ".join(unknown)))
    merged = dict(defaults)
    merged.update(given)
    return merged


def _require_int(name, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError("config: %s must be an integer, got %r" % (name, value))
    if minimum is not None and value < minimum:
        raise DataError("config: %s must be >= %d, got %d"
                        % (name, minimum, value))
    return value


def _require_number(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError("config: %s must be a number, got %r" % (name, value))
    return float(value)


def _parse_law(name, text):
    try:
        return parse_length_law(text)
    except (TypeError, ValueError) as exc:
        raise DataError("config: bad %s: %s" % (name, exc)) from None


def _config_from_blob(blob):
    if blob is None:
        blob = {}
    if not isinstance(blob, dict):
        raise DataError("config root must be a mapping of sections")
    known_top = set(_SECTIONS) | {"seed", "systems"}
    unknown = sorted(str(key) for key in set(blob) - known_top)
    if unknown:
        raise DataError("config: unknown top-level key(s) %s"
                        % ", ".join(unknown))
    seed = _require_int("seed", blob.get("seed", 1234))

    systems = blob.get("systems", list(SYSTEMS))
    if not isinstance(systems, list) or not systems or \
            any(s not in SYSTEMS for s in systems) or \
            len(set(systems)) != len(systems):
        raise DataError("config: systems must be a non-repeating subset of %s"
                        % (list(SYSTEMS),))

    synth = _merge_section("synth", blob.get("synth"), SYNTH_DEFAULTS)
    aug = _merge_section("augment", blob.get("augment"), _AUGMENT_DEFAULTS)
    mdl = _merge_section("model", blob.get("model"), _MODEL_DEFAULTS)
    dec = _merge_section("decode", blob.get("decode"), _DECODE_DEFAULTS)
    ev = _merge_section("evaluate", blob.get("evaluate"), _EVALUATE_DEFAULTS)
    ana = _merge_section("analysis", blob.get("analysis"), _ANALYSIS_DEFAULTS)

    test_law = synth["test_length_law"]
    try:
        synth_cfg = SynthConfig(
            vocab_size=_require_int("synth.vocab_size", synth["vocab_size"]),
            zipf_exponent=_require_number("synth.zipf_exponent",
                                          synth["zipf_exponent"]),
            length_law=_parse_law("synth.length_law", synth["length_law"]),
            noise_prob=_require_number("synth.noise_prob", synth["noise_prob"]),
            train_size=_require_int("synth.train_size", synth["train_size"]),
            dev_size=_require_int("synth.dev_size", synth["dev_size"]),
            test_size=_require_int("synth.test_size", synth["test_size"]),
            seed=seed,
            test_length_law=None if test_law is None
            else _parse_law("synth.test_length_law", test_law),
            terminal_token=synth["terminal_token"])
    except ValueError as exc:
        raise DataError("config: %s" % exc) from None

    widths = dec["widths"]
    if not isinstance(widths, list) or not widths or \
            any(isinstance(w, bool) or not isinstance(w, int) or w < 1
                for w in widths):
        raise DataError("config: decode.widths must be positive integers")
    if any(a >= b for a, b in zip(widths, widths[1:])):
        raise DataError("config: decode.widths must be strictly ascending")

    norms = dec["normalizations"]
    if not isinstance(norms, list) or not norms:
        raise DataError("config: decode.normalizations must be a "
                        "non-empty list")
    parsed_norms = []
    for text in norms:
        if not isinstance(text, str):
            raise DataError("config: bad normalization %r: not a string"
                            % (text,))
        try:
            parsed_norms.append(search.parse_normalization(text))
        except ValueError as exc:
            raise DataError("config: bad normalization %r: %s"
                            % (text, exc)) from None

    metric = ev["metric"]
    if metric not in ("bleu", "wer"):
        raise DataError("config: evaluate.metric must be 'bleu' or 'wer', "
                        "got %r" % (metric,))

    pair = ana["category_pair"]
    if not isinstance(pair, list) or len(pair) != 2 or \
            any(w not in widths for w in pair) or pair[0] >= pair[1]:
        raise DataError("config: analysis.category_pair must name two "
                        "decoded widths, small before large")

    edges = ana["bucket_edges"]
    if not isinstance(edges, list) or not edges or \
            any(isinstance(e, bool) or not isinstance(e, (int, float))
                for e in edges) or \
            edges[0] <= 0 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise DataError("config: analysis.bucket_edges must be ascending "
                        "positive thresholds")

    sweep = aug["n_sweep"]
    if not isinstance(sweep, list) or \
            any(isinstance(n, bool) or not isinstance(n, int) or n < 1
                for n in sweep):
        raise DataError("config: augment.n_sweep must be a list of "
                        "positive integers")
    n_max = _require_int("augment.n_max", aug["n_max"], minimum=1)
    multiplier = _require_number("augment.multiplier", aug["multiplier"])
    # the largest n an msr corpus of the run is drawn with
    msr_n = max(sweep + ([n_max] if "msr" in systems else []), default=1)
    try:
        size = augment.resolve_output_size(synth_cfg.train_size,
                                           augment.MsrConfig(
                                               n_max=n_max,
                                               multiplier=multiplier))
        augment.check_msr_picks(size, msr_n)
    except ValueError as exc:
        raise DataError("config: augment: %s" % exc) from None
    if size < 1 and (sweep or set(systems) - {"baseline"}):
        raise DataError("config: augment.multiplier %r gives no training "
                        "pairs" % (multiplier,))

    order = _require_int("model.order", mdl["order"], minimum=1)
    # the largest target vocabulary synth can make: its words, the reserved
    # ids and the terminal token
    largest = synth_cfg.vocab_size + len(RESERVED) + \
        (synth_cfg.terminal_token is not None)
    try:
        model_mod.check_order(largest, order)
    except ValueError as exc:
        raise DataError("config: model.%s" % exc) from None

    max_len_a = _require_number("decode.max_len_a", dec["max_len_a"])
    max_len_b = _require_int("decode.max_len_b", dec["max_len_b"])
    try:
        search.BeamConfig(width=1, max_len_a=max_len_a, max_len_b=max_len_b)
    except ValueError as exc:
        raise DataError("config: decode: %s" % exc) from None

    return ExperimentConfig(
        seed=seed,
        systems=tuple(systems),
        synth=synth_cfg,
        n_max=n_max,
        multiplier=multiplier,
        n_sweep=tuple(sweep),
        order=order,
        add_k_lex=_require_number("model.add_k_lex", mdl["add_k_lex"]),
        add_k_ngram=_require_number("model.add_k_ngram", mdl["add_k_ngram"]),
        lam=_require_number("model.lambda", mdl["lambda"]),
        min_count=_require_int("model.min_count", mdl["min_count"], minimum=1),
        widths=tuple(widths),
        normalizations=tuple(parsed_norms),
        max_len_a=max_len_a,
        max_len_b=max_len_b,
        topk=_require_int("decode.topk", dec["topk"], minimum=1),
        metric=metric,
        category_pair=tuple(pair),
        bucket_edges=tuple(edges),
        histogram_bucket_width=_require_int(
            "analysis.histogram_bucket_width",
            ana["histogram_bucket_width"], minimum=1),
    )


def _read_config_bytes(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError("cannot read config %s: %s" % (path, exc)) from None


def _parse_config(raw, path):
    try:
        blob = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise DataError("config %s is not valid YAML: %s" % (path, exc)) \
            from None
    return _config_from_blob(blob)


def load_experiment_config(path):
    """Parse and validate an experiment config file. Unknown keys anywhere
    are hard errors."""
    return _parse_config(_read_config_bytes(path), path)


# ------------------------------------------------------------------- pipeline

_QUALITY_COLUMNS = ("system", "normalization", "width", "score",
                    "mean_hyp_len")
_BUCKET_COLUMNS = ("system", "normalization", "width") \
    + analysis.BUCKET_COLUMNS
_SWEEP_COLUMNS = ("n", "width", "score", "mean_hyp_len")

# the directories the pipeline owns under the output directory
_OUTPUT_DIRS = ("data", "models", "decodes", "reports")


def _train_model(cfg, corpus):
    return model_mod.train(corpus, order=cfg.order, add_k_lex=cfg.add_k_lex,
                           add_k_ngram=cfg.add_k_ngram, lam=cfg.lam,
                           min_count=cfg.min_count)


def _augmented_corpora(cfg, base_train):
    """Training corpus per system. Augmentation seeds are fixed offsets from
    the global seed so stages stay independently reproducible."""
    corpora = {}
    for system in cfg.systems:
        if system == "baseline":
            corpora[system] = base_train
        elif system == "msr":
            corpora[system] = augment.msr(base_train, augment.MsrConfig(
                n_max=cfg.n_max, multiplier=cfg.multiplier,
                seed=cfg.seed + 1))
        else:
            size = augment.resolve_output_size(
                len(base_train),
                augment.MsrConfig(n_max=cfg.n_max, multiplier=cfg.multiplier,
                                  seed=cfg.seed + 2))
            corpora[system] = augment.simple_resample(base_train, size,
                                                      seed=cfg.seed + 2)
    return corpora


def _decodes(cfg, model, sources, jobs):
    """(width, raw results) for each width, under no normalization; the
    widths share one scorer of the model."""
    scorer = search.DenseScorer(model)
    for width in cfg.widths:
        beam = search.BeamConfig(width=width, max_len_a=cfg.max_len_a,
                                 max_len_b=cfg.max_len_b)
        yield width, search.decode_corpus(model, sources, beam, jobs=jobs,
                                          scorer=scorer)


def _top1(results, vocab):
    return [vocab.decode(list(r.hypotheses[0].tokens)) for r in results]


def _decode_grid(cfg, models, sources, jobs, listed):
    """Decode once per (system, width) and rerank per normalization; each
    decode file is written as soon as it is ranked, through `listed`, and
    only the top-1 token lists are kept."""
    top1 = {}
    for system in cfg.systems:
        vocab = models[system].target_vocab
        for width, raw in _decodes(cfg, models[system], sources, jobs):
            for norm in cfg.normalizations:
                ranked = [search.rerank(r, norm) for r in raw]
                top1[(system, width, norm)] = _top1(ranked, vocab)
                rel = "decodes/%s_w%d_%s.tsv" % (
                    system, width, search.normalization_slug(norm))
                write_text_atomic(listed("decodes", rel),
                                  search.format_decode_tsv(ranked, vocab,
                                                           topk=cfg.topk))
            # else they would live on while the next width decodes
            del raw, ranked
    return top1


def _mean_length(hyps):
    return sum(len(h) for h in hyps) / len(hyps)


def _cells(cfg):
    """The (system, width, norm) decode keys in report order."""
    return [(system, width, norm) for system in cfg.systems
            for norm in cfg.normalizations for width in cfg.widths]


def _cell_head(key):
    system, width, norm = key
    return {"system": system,
            "normalization": search.format_normalization(norm),
            "width": width}


def _quality_rows(cfg, top1, tables):
    return [dict(_cell_head(key), score=tables[key].score(),
                 mean_hyp_len=_mean_length(top1[key]))
            for key in _cells(cfg)]


def _bucket_rows(cfg, top1, refs, tables):
    """The bucket rows of every decode, for the CSV and for the JSON."""
    csv_rows, json_rows = [], []
    for key in _cells(cfg):
        report = analysis.bucket_quality(top1[key], refs,
                                         edges=cfg.bucket_edges,
                                         metric=cfg.metric, table=tables[key])
        for rows, open_high in ((csv_rows, float("inf")), (json_rows, None)):
            rows.extend(dict(_cell_head(key), **row)
                        for row in analysis.bucket_rows(report, open_high))
    return csv_rows, json_rows


def _sweep_rows(cfg, base_train, sources, refs, jobs):
    rows = []
    for n in cfg.n_sweep:
        # the augmented corpus is dropped as soon as the model is trained
        swept = _train_model(cfg, augment.msr(base_train, augment.MsrConfig(
            n_max=n, multiplier=cfg.multiplier, seed=cfg.seed + 1)))
        for width, results in _decodes(cfg, swept, sources, jobs):
            hyps = _top1(results, swept.target_vocab)
            score = metrics.sentence_table(hyps, refs, cfg.metric).score()
            rows.append({"n": n, "width": width, "score": score,
                         "mean_hyp_len": _mean_length(hyps)})
        # free this point's model before the next point trains (it would
        # otherwise add to the peak RSS); its scorer went with the loop
        del swept
    return rows


def _listed_paths(artifacts):
    """The relative paths of every artifact a manifest lists."""
    return (set(artifacts["data"].values())
            | set(artifacts["models"].values())
            | set(artifacts["decodes"]) | set(artifacts["reports"]))


def _earlier_outputs(out):
    """The paths that the manifest of an earlier run in `out` lists under
    the pipeline's directories, as its artifacts or as stale files of a run
    before it; empty when there is no readable manifest."""
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as f:
            blob = json.load(f)
        paths = _listed_paths(blob["artifacts"]) | set(blob.get("stale", ()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return set()
    # a listed path that leaves the four directories is never deleted
    return {p for p in paths if isinstance(p, str)
            and p.partition("/")[0] in _OUTPUT_DIRS
            and posixpath.normpath(p) == p}


def _utc_now():
    return datetime.now(timezone.utc).isoformat()


def run_experiment(config_path, out_dir, jobs=1, seed_override=None):
    """Run the full pipeline under out_dir and return the manifest. Any
    stage failure writes failed/error.txt naming the stage, keeps whatever
    partial outputs exist, writes a manifest of the failed run (its stage,
    the artifacts it wrote or began to write, and as `stale` what the
    earlier manifest listed and it did not) and re-raises. Each path is
    listed before its write, so no file the run wrote goes unlisted. A
    successful run removes the failed/ of an earlier one and every file
    that the earlier run's manifest lists and this run's does not. `jobs`
    goes through search.resolve_jobs."""
    raw = _read_config_bytes(config_path)
    cfg = _parse_config(raw, config_path)
    jobs = search.resolve_jobs(jobs)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override,
                      synth=replace(cfg.synth, seed=seed_override))

    out = os.fspath(out_dir)
    earlier = _earlier_outputs(out)
    for sub in _OUTPUT_DIRS:
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    config_hash = hashlib.sha256(raw).hexdigest()
    hash_line = "# config_hash=%s\n" % config_hash
    write_bytes_atomic(os.path.join(out, "config.yaml"), raw)
    created = _utc_now()

    artifacts = {"data": {}, "models": {}, "decodes": [], "reports": []}
    manifest = {
        "format": "beamlab.manifest",
        "format_version": 1,
        "tool_version": __version__,
        "created_utc": created,
        "seed": cfg.seed,
        "jobs": jobs,
        "config_hash": config_hash,
        "config_snapshot": "config.yaml",
        "systems": list(cfg.systems),
        "artifacts": artifacts,
    }

    def listed(group, rel, key=None):
        """The full path of artifact `rel`, listed under `group` (by `key`
        in a mapping group) before anything writes it."""
        if key is None:
            artifacts[group].append(rel)
        else:
            artifacts[group][key] = rel
        return os.path.join(out, rel)

    def report(stem, columns, csv_rows, **json_fields):
        write_text_atomic(listed("reports", stem + ".csv"),
                          hash_line + format_csv(columns, csv_rows))
        write_json_atomic(listed("reports", stem + ".json"),
                          dict(json_fields, config_hash=config_hash))

    stage = "gen-synth"
    try:
        splits = generate_synthetic(cfg.synth)
        for name, corpus in splits.items():
            save_corpus(corpus,
                        listed("data", "data/%s.src" % name, name + "_src"),
                        listed("data", "data/%s.tgt" % name, name + "_tgt"))

        stage = "augment"
        train_corpora = _augmented_corpora(cfg, splits["train"])
        for system in cfg.systems:
            if system == "baseline":
                continue
            stem = "train_" + system
            src, tgt, prov = (listed("data", "data/%s.%s" % (stem, ext),
                                     stem + ext)
                              for ext in ("src", "tgt", "prov"))
            save_corpus(train_corpora[system], src, tgt)
            augment.save_provenance(train_corpora[system], prov)

        stage = "train"
        models = {}
        for system in cfg.systems:
            models[system] = _train_model(cfg, train_corpora[system])
            model_mod.save_model(models[system], listed(
                "models", "models/%s.json" % system, system))

        stage = "decode"
        sources = splits["test"].side("source")
        refs = splits["test"].side("target")
        top1 = _decode_grid(cfg, models, sources, jobs, listed)

        stage = "evaluate"
        # every report below is sums over these per-sentence rows
        tables = {key: metrics.sentence_table(hyps, refs, cfg.metric)
                  for key, hyps in top1.items()}
        quality = _quality_rows(cfg, top1, tables)
        report("reports/quality_curve", _QUALITY_COLUMNS, quality,
               metric=cfg.metric, rows=quality)

        stage = "analyze"
        small_w, large_w = cfg.category_pair
        for system in cfg.systems:
            for norm in cfg.normalizations:
                small = (system, small_w, norm)
                large = (system, large_w, norm)
                pair = (tables[small], tables[large])
                cats = analysis.classify(top1[small], top1[large], refs,
                                         metric=cfg.metric, tables=pair)
                blob = analysis.category_report_blob(analysis.category_report(
                    cats, top1[small], top1[large], refs, metric=cfg.metric,
                    tables=pair))
                report("reports/categories_%s_%s"
                       % (system, search.normalization_slug(norm)),
                       analysis.CATEGORY_COLUMNS, blob["categories"],
                       system=system,
                       normalization=search.format_normalization(norm),
                       width_small=small_w, width_large=large_w, report=blob)

        bucket_csv, bucket_json = _bucket_rows(cfg, top1, refs, tables)
        report("reports/buckets", _BUCKET_COLUMNS, bucket_csv,
               metric=cfg.metric, edges=list(cfg.bucket_edges),
               rows=bucket_json)

        for system in cfg.systems:
            hist = length_histogram(train_corpora[system], "target",
                                    cfg.histogram_bucket_width)
            write_text_atomic(
                listed("reports", "reports/length_histogram_%s.csv" % system),
                hash_line + hist.to_csv())

        if cfg.n_sweep:
            stage = "n-sweep"
            sweep = _sweep_rows(cfg, splits["train"], sources, refs, jobs)
            report("reports/n_sweep", _SWEEP_COLUMNS, sweep,
                   metric=cfg.metric, multiplier=cfg.multiplier, rows=sweep)
    except BaseException as exc:
        failed_dir = os.path.join(out, "failed")
        os.makedirs(failed_dir, exist_ok=True)
        write_text_atomic(os.path.join(failed_dir, "error.txt"),
                          "stage: %s\nerror: %r\n" % (stage, exc))
        # the earlier manifest no longer describes the directory; what it
        # listed and this run did not rewrite stays listed, to be pruned
        manifest.update(failed_stage=stage, stale=sorted(
            earlier - _listed_paths(artifacts)))
        write_json_atomic(os.path.join(out, "manifest.json"), manifest)
        raise
    if os.path.isdir(os.path.join(out, "failed")):
        shutil.rmtree(os.path.join(out, "failed"))
    # what an earlier run wrote and this one did not must not pass for
    # output of this run; files the pipeline did not write are left alone
    for rel in sorted(earlier - _listed_paths(artifacts)):
        if os.path.isfile(os.path.join(out, rel)):
            os.remove(os.path.join(out, rel))

    manifest["completed_utc"] = _utc_now()
    write_json_atomic(os.path.join(out, "manifest.json"), manifest)
    return manifest
