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
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import yaml

from . import __version__, analysis, augment, metrics, model as model_mod, search
from .corpus import (RESERVED, SynthConfig, check_bucket_width,
                     generate_synthetic, length_histogram, parse_length_law,
                     save_corpus)
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
# every key of a config, with its default; a given value must have the type
# of its default (see _checked)
_DEFAULTS = {
    "seed": 1234,
    "systems": list(SYSTEMS),
    "synth": SYNTH_DEFAULTS,
    "augment": {"n_max": 4, "multiplier": 10.0, "n_sweep": []},
    "model": {"order": 3, "add_k_lex": 0.1, "add_k_ngram": 0.1,
              "lambda": 0.8, "min_count": 1},
    "decode": {"widths": [1, 4, 32, 200],
               "normalizations": ["none", "by_length:1.0"],
               "max_len_a": 2.0, "max_len_b": 10, "topk": 1},
    "evaluate": {"metric": "bleu"},
    "analysis": {"category_pair": [4, 200],
                 "bucket_edges": [8, 16, 24, 32, 40, 48, 56],
                 "histogram_bucket_width": 4},
}
# the keys that may be null: the test split draws from length_law, and
# sentences get no terminal token
_NULLABLE = ("synth.test_length_law", "synth.terminal_token")
_KINDS = {int: "an integer", float: "a number", str: "a string"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config, its sections built into the library objects that
    take them. The seeds of augmentation are offsets from `seed`, applied
    at use."""
    seed: int
    systems: tuple
    synth: SynthConfig
    msr: augment.MsrConfig
    n_sweep: tuple  # an MsrConfig per sweep point
    train: dict  # the keyword arguments of model.train
    beams: tuple  # a BeamConfig per width, ascending
    normalizations: tuple
    topk: int
    metric: str
    category_pair: tuple
    bucket_edges: tuple
    histogram_bucket_width: int


def _checked(name, value, default):
    """`value` of config key `name` (None at the root), checked against the
    type of its `default`. A mapping default is a section: null reads as
    empty, unknown keys are refused, and each key is checked in turn, its
    default taken when it is absent. A float default takes an int or a
    float and gives a float; an int or string default takes its own type;
    a list default takes a list whose items are checked against its first
    item (integers for the empty n_sweep). A bool is never a number. Ranges,
    finiteness included, are checked by the library objects."""
    if isinstance(default, dict):
        if value is None:
            value = {}
        if not isinstance(value, dict):
            raise ValueError("%s must be a mapping, got %r"
                             % (name or "the root", value))
        unknown = sorted(str(key) for key in set(value) - set(default))
        if unknown:
            raise ValueError("unknown key(s) %s" % ", ".join(
                name + "." + key if name else key for key in unknown))
        return {key: _checked(name + "." + key if name else key,
                              value.get(key, sub), sub)
                for key, sub in default.items()}
    if value is None and name in _NULLABLE:
        return None
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError("%s must be a list, got %r" % (name, value))
        return [_checked("%s[%d]" % (name, i), item,
                         default[0] if default else 0)
                for i, item in enumerate(value)]
    kind = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError("%s must be %s, got %r"
                         % (name, _KINDS[type(default)], value))
    if isinstance(default, float):
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError("%s is past the float range" % name)
        return float(value)
    return value


def _config_from_blob(blob):
    """The ExperimentConfig of a parsed config document. Each section is
    built into the library objects that check its values, and the checks
    that span sections follow; any ValueError becomes a DataError."""
    try:
        cfg = _checked(None, blob, _DEFAULTS)
        seed, systems = cfg["seed"], cfg["systems"]
        if not systems or any(s not in SYSTEMS for s in systems) or \
                len(set(systems)) != len(systems):
            raise ValueError("systems must be a non-repeating subset of %s"
                             % (list(SYSTEMS),))

        synth = cfg["synth"]
        for key in ("length_law", "test_length_law"):
            if synth[key] is not None:
                synth[key] = parse_length_law(synth[key])
        synth = SynthConfig(seed=seed, **synth)

        aug = cfg["augment"]
        msr = augment.MsrConfig(n_max=aug["n_max"],
                                multiplier=aug["multiplier"])
        sweep = tuple(replace(msr, n_max=n) for n in aug["n_sweep"])
        # the largest n an msr corpus of the run is drawn with
        msr_n = max([point.n_max for point in sweep]
                    + ([msr.n_max] if "msr" in systems else []), default=1)
        size = augment.resolve_output_size(synth.train_size, msr)
        augment.check_msr_picks(size, msr_n)
        if size < 1 and (sweep or set(systems) - {"baseline"}):
            raise ValueError("multiplier %r gives no training pairs"
                             % (msr.multiplier,))

        train = cfg["model"]
        train["lam"] = train.pop("lambda")
        model_mod.check_params(**train)
        # the largest target vocabulary synth can make: its words, the
        # reserved ids and the terminal token
        model_mod.check_order(synth.vocab_size + len(RESERVED)
                              + (synth.terminal_token is not None),
                              train["order"])

        dec = cfg["decode"]
        widths = dec["widths"]
        if any(a >= b for a, b in zip(widths, widths[1:])):
            raise ValueError("widths must be strictly ascending")
        beams = tuple(search.BeamConfig(width=width,
                                        max_len_a=dec["max_len_a"],
                                        max_len_b=dec["max_len_b"])
                      for width in widths)
        if not dec["normalizations"]:
            raise ValueError("normalizations must be a non-empty list")
        norms = tuple(map(search.parse_normalization, dec["normalizations"]))
        # a repeat would write its decode files and report rows twice
        if len(set(map(search.format_normalization, norms))) < len(norms):
            raise ValueError("normalizations must not repeat, got %s"
                             % dec["normalizations"])
        # rerank refuses it too, but only once the first search has run
        if dec["topk"] < 1:
            raise ValueError("topk must be >= 1, got %d" % dec["topk"])

        metric = cfg["evaluate"]["metric"]
        metrics.check_metric(metric)

        ana = cfg["analysis"]
        pair = ana["category_pair"]
        if len(pair) != 2 or any(w not in widths for w in pair) or \
                pair[0] >= pair[1]:
            raise ValueError("category_pair must name two decoded widths, "
                             "small before large")
        edges = analysis.check_bucket_edges(ana["bucket_edges"])
        check_bucket_width(ana["histogram_bucket_width"])
    except ValueError as exc:
        raise DataError("config: %s" % exc) from None
    return ExperimentConfig(
        seed=seed, systems=tuple(systems), synth=synth, msr=msr,
        n_sweep=sweep, train=train, beams=beams, normalizations=norms,
        topk=dec["topk"], metric=metric, category_pair=tuple(pair),
        bucket_edges=edges,
        histogram_bucket_width=ana["histogram_bucket_width"])


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


def _augmented_corpora(cfg, base_train):
    """Training corpus per system. Augmentation seeds are fixed offsets from
    the global seed so stages stay independently reproducible."""
    corpora = {}
    for system in cfg.systems:
        if system == "baseline":
            corpora[system] = base_train
        elif system == "msr":
            corpora[system] = augment.msr(base_train,
                                          replace(cfg.msr, seed=cfg.seed + 1))
        else:
            size = augment.resolve_output_size(len(base_train), cfg.msr)
            corpora[system] = augment.simple_resample(base_train, size,
                                                      seed=cfg.seed + 2)
    return corpora


def _decodes(cfg, model, sources, jobs):
    """(beam config, results) for each width, each finished set best first
    by raw logprob; the widths share one scorer of the model."""
    scorer = search.DenseScorer(model)
    for beam in cfg.beams:
        yield beam, search.decode_corpus(model, sources, beam, jobs=jobs,
                                         scorer=scorer)


def _top1(results, vocab):
    return [vocab.decode(list(r.hypotheses[0].tokens)) for r in results]


def _decode_grid(cfg, models, sources, jobs, listed):
    """Decode once per (system, width) and rank its top `topk` per
    normalization; each decode file is written as soon as it is ranked,
    through `listed`, and only the top-1 token lists are kept."""
    top1 = {}
    for system in cfg.systems:
        vocab = models[system].target_vocab
        for beam, raw in _decodes(cfg, models[system], sources, jobs):
            for norm in cfg.normalizations:
                ranked = [search.rerank(r, norm, cfg.topk) for r in raw]
                top1[(system, beam.width, norm)] = _top1(ranked, vocab)
                rel = "decodes/%s_w%d_%s.tsv" % (
                    system, beam.width, search.normalization_slug(norm))
                write_text_atomic(listed("decodes", rel),
                                  search.format_decode_tsv(ranked, vocab))
            # else they would live on while the next width decodes
            del raw, ranked
    return top1


def _mean_length(hyps):
    return sum(len(h) for h in hyps) / len(hyps)


def _cells(cfg):
    """The (system, width, norm) decode keys in report order."""
    return [(system, beam.width, norm) for system in cfg.systems
            for norm in cfg.normalizations for beam in cfg.beams]


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
    for point in cfg.n_sweep:
        # the augmented corpus is dropped as soon as the model is trained
        swept = model_mod.train(augment.msr(
            base_train, replace(point, seed=cfg.seed + 1)), **cfg.train)
        for beam, results in _decodes(cfg, swept, sources, jobs):
            hyps = _top1(results, swept.target_vocab)
            score = metrics.sentence_table(hyps, refs, cfg.metric).score()
            rows.append({"n": point.n_max, "width": beam.width,
                         "score": score,
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
            models[system] = model_mod.train(train_corpora[system],
                                             **cfg.train)
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
                   metric=cfg.metric, multiplier=cfg.msr.multiplier,
                   rows=sweep)
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
