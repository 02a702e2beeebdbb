import hashlib
import json
import math
import os
import tempfile
from dataclasses import replace

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamlab.experiment as E
from beamlab import analysis, augment, metrics, model as model_mod, search
from beamlab.errors import DataError

TINY_YAML = """\
seed: 11
systems: [baseline]
synth:
  vocab_size: 8
  zipf_exponent: 1.2
  length_law: "uniform(2, 6)"
  test_length_law: "uniform(3, 9)"
  terminal_token: "."
  noise_prob: 0.05
  train_size: 80
  dev_size: 4
  test_size: 20
augment:
  n_max: 2
  multiplier: 2
model:
  order: 2
decode:
  widths: [1, 4]
  normalizations: ["none"]
analysis:
  category_pair: [1, 4]
  bucket_edges: [4, 8]
  histogram_bucket_width: 3
"""


def write_config(tmp_path, text=TINY_YAML, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -------------------------------------------------------------- config loading

def test_minimal_config_fills_defaults(tmp_path):
    cfg = E.load_experiment_config(write_config(tmp_path, "seed: 5\n"))
    assert cfg.seed == 5
    assert cfg.systems == ("baseline", "msr", "resample")
    assert cfg.train["order"] == 3
    assert cfg.train["lam"] == 0.8
    assert cfg.metric == "bleu"
    widths = [beam.width for beam in cfg.beams]
    assert widths[0] == 1
    assert cfg.category_pair[0] in widths
    assert cfg.category_pair[1] in widths
    assert cfg.synth.seed == 5


def test_config_unknown_keys_are_hard_errors(tmp_path):
    with pytest.raises(DataError, match="vocabsize"):
        E.load_experiment_config(write_config(
            tmp_path, "synth:\n  vocabsize: 9\n"))
    with pytest.raises(DataError, match="modle"):
        E.load_experiment_config(write_config(tmp_path, "modle:\n  order: 2\n"))


def test_config_validation_errors(tmp_path):
    with pytest.raises(DataError, match="ascending"):
        E.load_experiment_config(write_config(
            tmp_path, "decode:\n  widths: [4, 1]\n"))
    with pytest.raises(DataError, match="category_pair"):
        E.load_experiment_config(write_config(
            tmp_path,
            "decode:\n  widths: [1, 4]\nanalysis:\n  category_pair: [1, 9]\n"))
    with pytest.raises(DataError, match="metric"):
        E.load_experiment_config(write_config(
            tmp_path, "evaluate:\n  metric: chrf\n"))
    with pytest.raises(DataError, match="system"):
        E.load_experiment_config(write_config(tmp_path, "systems: [msrx]\n"))
    with pytest.raises(DataError, match="normalization"):
        E.load_experiment_config(write_config(
            tmp_path, 'decode:\n  normalizations: ["by_len:1"]\n'))
    with pytest.raises(DataError):
        E.load_experiment_config(write_config(tmp_path, "seed: [3]\n"))
    with pytest.raises(DataError):
        E.load_experiment_config(tmp_path / "missing.yaml")


@pytest.mark.parametrize("text", [
    "analysis:\n  bucket_edges: [a, b]\n",
    "analysis:\n  bucket_edges: [4, null]\n",
    "analysis:\n  bucket_edges: [true, 8]\n",
    "decode:\n  normalizations: [5]\n",
    'decode:\n  normalizations: ["by_length:nan"]\n',
    'decode:\n  normalizations: ["gnmt:inf"]\n',
    "synth:\n  terminal_token: 5\n",
    "synth:\n  vocab_size: 1\n",
    "systems: [[baseline]]\n",
    "1: 2\n",
    "synth:\n  7: 8\n",
])
def test_bad_config_values_are_data_errors(tmp_path, text):
    with pytest.raises(DataError):
        E.load_experiment_config(write_config(tmp_path, text))


# each is refused at config load, from the config's numbers alone, before
# a corpus is drawn or a file is written
@pytest.mark.parametrize("text, message", [
    ("augment:\n  multiplier: .inf\n", "finite"),
    ("augment:\n  multiplier: .nan\n", "finite"),
    ("augment:\n  multiplier: 0\n", "finite"),
    ("augment:\n  multiplier: 1.0e+9\n", "more than 1000000"),
    ("augment:\n  multiplier: 1.0e-9\n", "no training pairs"),
    ("synth:\n  train_size: 1000001\n", "split sizes"),
    ("synth:\n  vocab_size: 1000001\n", "vocab_size"),
    ("decode:\n  max_len_a: .inf\n", "length-cap"),
    ("decode:\n  max_len_a: 16.5\n", "length-cap"),
    ("decode:\n  max_len_b: 1025\n", "length-cap"),
    ("decode:\n  max_len_a: 0\n  max_len_b: 0\n", "length cap"),
    ("decode:\n  widths: [1, 10000001]\n", "width must be in"),
    ("decode:\n  widths: [1, 4, 200, 192308]\n", "candidates a beam step"),
    ("model:\n  order: 40\n", "int64"),
    ("model:\n  order: 10000000000\n", "int64"),
    # 52 target ids (48 words, 3 reserved, the terminal): 52^11 < 2^63 - 1
    # < 52^12
    ("model:\n  order: 12\n", "int64"),
    ('synth:\n  length_law: "uniform(100000, 200000)"\n'
     "  train_size: 1000000\n", "tokens"),
    ('synth:\n  test_length_law: "geometric(0.000001)"\n', "tokens"),
    ("augment:\n  n_max: 100000000000\n", "pair picks"),
    ("augment:\n  n_sweep: [2, 100000000000]\n", "pair picks"),
    # each n would be trained, decoded and reported twice
    ("augment:\n  n_sweep: [2, 3, 2]\n", "augment.n_sweep repeats n = 2"),
    ('decode:\n  normalizations: ["by_length:400"]\n', "finite and in"),
    ('decode:\n  normalizations: ["gnmt:1e300"]\n', "finite and in"),
    # both would write decodes/*_by_length_1.tsv and its report rows
    ('decode:\n  normalizations: ["none", "by_length:1", "by_length:1.0"]\n',
     "must not repeat"),
    # named by_length:1 and by_length:9.99989e-321, which are not them
    ('decode:\n  normalizations: ["by_length:1.0000001"]\n',
     "six significant digits"),
    ('decode:\n  normalizations: ["by_length:1e-320"]\n',
     "six significant digits"),
    # -0 is 0
    ('decode:\n  normalizations: ["by_length:0", "by_length:-0"]\n',
     "must not repeat"),
])
def test_resource_knobs_are_refused_at_config_load(tmp_path, text, message):
    with pytest.raises(DataError, match=message):
        E.load_experiment_config(write_config(tmp_path, text))


def test_config_caps_admit_their_bounds(tmp_path):
    cfg = E.load_experiment_config(write_config(tmp_path, (
        "synth:\n  train_size: 100000\naugment:\n  multiplier: 10\n"
        "model:\n  order: 11\ndecode:\n  max_len_a: 16\n"
        "  max_len_b: 1024\n")))
    assert (cfg.train["order"], cfg.beams[0].max_len_a,
            cfg.beams[0].max_len_b) == (11, 16.0, 1024)
    # 48 words, 3 reserved ids and the terminal token: at most 52 symbols
    # a step, so 10^7 // 52 = 192307 is the widest admitted beam
    cfg = E.load_experiment_config(write_config(
        tmp_path, "decode:\n  widths: [1, 4, 200, 192307]\n"))
    assert cfg.beams[-1].width * 52 <= search.MAX_STEP_CANDIDATES
    # a baseline-only run draws no augmented corpus, so its multiplier may
    # round to zero pairs, and its n_max may be any size
    E.load_experiment_config(write_config(
        tmp_path, "systems: [baseline]\naugment:\n  multiplier: 1.0e-9\n"))
    E.load_experiment_config(write_config(
        tmp_path, "systems: [baseline]\naugment:\n  n_max: 100000000000\n"))
    # 1,000,000 pairs of mean length 50, and 1,000,000 examples of 1..19
    # pairs (10 picks each on average), are the largest admitted
    E.load_experiment_config(write_config(tmp_path, (
        'synth:\n  length_law: "uniform(1, 99)"\n  train_size: 1000000\n'
        "augment:\n  multiplier: 1\n  n_max: 19\n")))


# (section, key) of every config key, (None, key) at the top level
CONFIG_KEYS = [(None, key) for key in ("seed", "systems")] + [
    (section, key) for section in ("synth", "augment", "model", "decode",
                                   "evaluate", "analysis")
    for key in E._DEFAULTS[section]]

ODD_VALUES = st.one_of(
    st.sampled_from([0, -1, 10 ** 12, 10 ** 400, -(10 ** 400), 1.0e300,
                     math.nan, math.inf, -math.inf, True, False, None, "",
                     "none", "uniform(2, 6)"]),
    st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 300), max_size=3),
    st.lists(st.one_of(st.integers(-2, 300), st.floats(), st.booleans(),
                       st.none(), st.text(max_size=2)), max_size=3))


def _with_value(section, key, value):
    """TINY_YAML with `key` of `section` (top level when None) set."""
    blob = yaml.safe_load(TINY_YAML)
    if section is None:
        blob[key] = value
    else:
        blob.setdefault(section, {})[key] = value
    return yaml.safe_dump(blob)


@pytest.mark.parametrize("section, key", CONFIG_KEYS)
@settings(max_examples=25, deadline=None)
@given(value=ODD_VALUES)
@example(value=1.5)
@example(value=0)
@example(value=math.inf)
@example(value=math.nan)
@example(value=[4, math.nan])
def test_config_load_refuses_or_builds_objects_that_accept_it(section, key,
                                                              value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_with_value(section, key, value))
        try:
            cfg = E.load_experiment_config(path)
        except DataError:
            return
    # each check that the pipeline's stages run accepts what load built
    model_mod.check_params(**cfg.train)
    augment.MsrConfig(n_max=cfg.msr.n_max, multiplier=cfg.msr.multiplier)
    for point in cfg.n_sweep:
        replace(point)
    for beam in cfg.beams:
        replace(beam)
    analysis.check_bucket_edges(cfg.bucket_edges)


def test_config_accepts_lambda_key(tmp_path):
    cfg = E.load_experiment_config(write_config(
        tmp_path, "model:\n  lambda: 0.4\n"))
    assert cfg.train["lam"] == 0.4


# ------------------------------------------------------------------- pipeline

def test_minimal_experiment_structure(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    manifest = E.run_experiment(config, out, jobs=1)

    # config snapshot byte-identical to the input
    assert (out / "config.yaml").read_bytes() == config.read_bytes()

    blob = json.loads((out / "manifest.json").read_text())
    assert blob == manifest
    assert blob["format"] == "beamlab.manifest"
    assert blob["seed"] == 11
    assert blob["systems"] == ["baseline"]
    for section in ("data", "models", "decodes", "reports"):
        for rel in _flatten(blob["artifacts"][section]):
            assert (out / rel).exists(), rel

    # one system, two widths, one normalization
    assert len(_flatten(blob["artifacts"]["models"])) == 1
    assert len(_flatten(blob["artifacts"]["decodes"])) == 2
    assert len(_flatten(blob["artifacts"]["reports"])) >= 3

    curve = (out / "reports" / "quality_curve.csv").read_text().splitlines()
    assert curve[0].startswith("# config_hash=")
    assert curve[1] == "system,normalization,width,score,mean_hyp_len"
    assert len(curve) == 2 + 2  # two widths, one system, one normalization

    cat_json = json.loads(
        (out / "reports" / "categories_baseline_none.json").read_text())
    assert cat_json["config_hash"] == blob["config_hash"]
    fractions = [r["fraction"] for r in cat_json["report"]["categories"]]
    assert sum(fractions) == pytest.approx(1.0, abs=1e-9)


def _flatten(node):
    if isinstance(node, str):
        return [node]
    if isinstance(node, dict):
        out = []
        for v in node.values():
            out.extend(_flatten(v))
        return out
    out = []
    for v in node:
        out.extend(_flatten(v))
    return out


def test_experiment_is_deterministic_across_jobs(tmp_path):
    config = write_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    E.run_experiment(config, out1, jobs=1)
    E.run_experiment(config, out2, jobs=2)
    for rel in _comparable_files(out1):
        a = (out1 / rel).read_bytes()
        b = (out2 / rel).read_bytes()
        assert a == b, "output differs across jobs: %s" % rel


def _comparable_files(root):
    # everything except the manifest, whose timestamps legitimately differ
    out = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "manifest.json":
                continue
            full = os.path.join(dirpath, name)
            out.append(os.path.relpath(full, root))
    return sorted(out)


THREE_SYSTEM_YAML = TINY_YAML.replace(
    "systems: [baseline]", "systems: [baseline, msr, resample]").replace(
    "  multiplier: 2\n", "  multiplier: 2\n  n_sweep: [2, 3]\n")


def test_experiment_three_systems_and_n_sweep(tmp_path):
    config = write_config(tmp_path, THREE_SYSTEM_YAML)
    out = tmp_path / "run"
    manifest = E.run_experiment(config, out, jobs=1)
    assert manifest["systems"] == ["baseline", "msr", "resample"]
    assert len(_flatten(manifest["artifacts"]["models"])) == 3
    assert len(_flatten(manifest["artifacts"]["decodes"])) == 6

    # augmented training data on disk, with provenance for both resamplers
    for stem in ("train_msr", "train_resample"):
        for ext in (".src", ".tgt", ".prov"):
            assert (out / "data" / (stem + ext)).exists()

    # per-system histograms
    for system in ("baseline", "msr", "resample"):
        text = (out / "reports" /
                ("length_histogram_%s.csv" % system)).read_text()
        assert text.splitlines()[1] == "bucket_start,bucket_end,count"

    sweep = (out / "reports" / "n_sweep.csv").read_text().splitlines()
    assert sweep[1] == "n,width,score,mean_hyp_len"
    assert len(sweep) == 2 + 2 * 2  # two N values, two widths

    curve = (out / "reports" / "quality_curve.csv").read_text().splitlines()
    assert len(curve) == 2 + 3 * 2  # three systems, two widths, one norm

    buckets = (out / "reports" / "buckets.csv").read_text().splitlines()
    assert buckets[1] == ("system,normalization,width,"
                          "bucket_low,bucket_high,count,metric")
    # 3 systems x 1 norm x 2 widths x 3 buckets (two edges + open tail)
    assert len(buckets) == 2 + 3 * 2 * 3


def test_n_sweep_point_at_n_max_equals_the_main_msr_rows(tmp_path,
                                                        monkeypatch):
    # a sweep point is the main grid's msr chain under an override: at
    # n = n_max it trains on the same corpus with the same arguments and
    # decodes the same, so its rows are the msr/none rows of the curve
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tiny = open(os.path.join(repo, "configs", "tiny.yaml"),
                encoding="utf-8").read()
    text = tiny.replace("n_sweep: [2, 4]", "n_sweep: [2, 3]")
    assert text != tiny and "n_max: 3\n" in text
    real, trained = E.model_mod.train, []

    def recording_train(corpus, **kwargs):
        trained.append(([(p.source, p.target) for p in corpus], kwargs))
        return real(corpus, **kwargs)

    monkeypatch.setattr(E.model_mod, "train", recording_train)
    out = tmp_path / "run"
    E.run_experiment(write_config(tmp_path, text), out, jobs=1)
    # baseline, msr and resample, then the points n = 2 and n = 3
    assert len(trained) == 5
    assert trained[4] == trained[1] and trained[3] != trained[1]
    curve = json.loads((out / "reports" / "quality_curve.json").read_text())
    sweep = json.loads((out / "reports" / "n_sweep.json").read_text())
    msr = {row["width"]: (row["score"], row["mean_hyp_len"])
           for row in curve["rows"]
           if (row["system"], row["normalization"]) == ("msr", "none")}
    at_n_max = {row["width"]: (row["score"], row["mean_hyp_len"])
                for row in sweep["rows"] if row["n"] == 3}
    assert sorted(msr) == [1, 4, 16]
    assert at_n_max == msr


def test_failure_in_the_n_sweep_keeps_the_main_grid_reports(tmp_path,
                                                           monkeypatch):
    config = write_config(tmp_path, THREE_SYSTEM_YAML)
    complete = E.run_experiment(config, tmp_path / "complete", jobs=1)
    real, calls = E.model_mod.train, []

    def fail_at_first_sweep_point(*args, **kwargs):
        # the main grid trains one model per system before the sweep
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("injected n-sweep failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(E.model_mod, "train", fail_at_first_sweep_point)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="n-sweep failure"):
        E.run_experiment(config, out, jobs=1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "n-sweep"
    assert "stage: n-sweep" in (out / "failed" / "error.txt").read_text()
    sweep_reports = {"reports/n_sweep.csv", "reports/n_sweep.json"}
    assert sweep_reports <= set(complete["artifacts"]["reports"])
    assert set(manifest["artifacts"]["reports"]) == \
        set(complete["artifacts"]["reports"]) - sweep_reports
    assert not list((out / "reports").glob("n_sweep.*"))
    assert _files_under_pipeline_dirs(out) == \
        E._listed_paths(manifest["artifacts"])


def test_experiment_seed_override(tmp_path):
    config = write_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    m1 = E.run_experiment(config, out1, jobs=1, seed_override=99)
    m2 = E.run_experiment(config, out2, jobs=1, seed_override=99)
    assert m1["seed"] == m2["seed"] == 99
    assert (out1 / "data" / "train.tgt").read_bytes() == \
        (out2 / "data" / "train.tgt").read_bytes()
    # snapshot still mirrors the file, not the override
    assert (out1 / "config.yaml").read_bytes() == config.read_bytes()
    base = tmp_path / "c"
    E.run_experiment(config, base, jobs=1)
    assert (base / "data" / "train.tgt").read_bytes() != \
        (out1 / "data" / "train.tgt").read_bytes()


def test_experiment_stage_failure_leaves_marker(tmp_path, monkeypatch):
    import beamlab.experiment as experiment_module

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure for the marker test")

    monkeypatch.setattr(experiment_module, "_quality_rows", boom)
    config = write_config(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError):
        E.run_experiment(config, out, jobs=1)
    marker = out / "failed" / "error.txt"
    assert marker.exists()
    text = marker.read_text()
    assert "evaluate" in text
    assert "synthetic failure" in text
    # partial outputs from completed stages are retained
    assert (out / "data" / "train.src").exists()


def _files_under_pipeline_dirs(out):
    return {os.path.relpath(os.path.join(d, n), out).replace(os.sep, "/")
            for sub in ("data", "models", "decodes", "reports")
            for d, _, names in os.walk(out / sub) for n in names}


@pytest.mark.parametrize("target", ["augment.save_provenance",
                                    "model_mod.save_model"])
def test_failure_between_two_writes_leaves_no_unlisted_file(
        tmp_path, monkeypatch, target):
    # the run fails right after the second call of a writer has written
    module, name = target.split(".")
    real = getattr(getattr(E, module), name)
    calls = []

    def fail_after_second_call(*args, **kwargs):
        real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected failure after a write")

    monkeypatch.setattr(getattr(E, module), name, fail_after_second_call)
    text = TINY_YAML.replace("systems: [baseline]",
                             "systems: [baseline, msr, resample]")
    out = tmp_path / "run"
    with pytest.raises(RuntimeError):
        E.run_experiment(write_config(tmp_path, text), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert _files_under_pipeline_dirs(out) == \
        E._listed_paths(manifest["artifacts"])


def test_successful_rerun_removes_stale_failure_marker(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "run"
    (out / "failed").mkdir(parents=True)
    (out / "failed" / "error.txt").write_text("stage: decode\n")
    E.run_experiment(os.path.join(repo, "configs", "tiny.yaml"), out, jobs=1)
    assert not (out / "failed").exists()
    assert (out / "manifest.json").exists()


def test_wer_experiment_scores_each_distinct_pair_once(tmp_path, monkeypatch):
    # two systems x two widths x two normalizations, plus two sweep points x
    # two widths: twelve sentence tables of 20 pairs. Every distinct (test
    # sentence, hypothesis) pair of the run, across the cells and the sweep
    # points, reaches the row kernel exactly once
    text = TINY_YAML.replace(
        "systems: [baseline]", "systems: [baseline, msr]").replace(
        'normalizations: ["none"]', 'normalizations: ["none", "by_length:1"]'
    ).replace("  multiplier: 2\n", "  multiplier: 2\n  n_sweep: [1, 2]\n")
    text += "evaluate:\n  metric: wer\n"
    asked, scored = [], []
    real_tables, real_rows = metrics.TableMemo.tables, metrics._wer_rows

    def asking(memo, hyp_lists):
        asked.extend((i, tuple(h), tuple(memo.refs[i]))
                     for hyps in hyp_lists for i, h in enumerate(hyps))
        return real_tables(memo, hyp_lists)

    def scoring(hyps, refs):
        scored.extend(zip(map(tuple, hyps), map(tuple, refs)))
        return real_rows(hyps, refs)
    monkeypatch.setattr(metrics.TableMemo, "tables", asking)
    monkeypatch.setattr(metrics, "_wer_rows", scoring)
    E.run_experiment(write_config(tmp_path, text), tmp_path / "run")
    assert len(asked) == (2 * 2 * 2 + 2 * 2) * 20
    distinct = set(asked)
    assert sorted(scored) == sorted((h, r) for _, h, r in distinct)
    # the cells and the sweep points share pairs, so scoring every table
    # anew would score some pair twice
    assert len(distinct) < len(asked)


def test_rerun_removes_artifacts_the_config_no_longer_makes(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tiny = open(os.path.join(repo, "configs", "tiny.yaml"),
                encoding="utf-8").read()
    narrow = tiny.replace("widths: [1, 4, 16]", "widths: [1, 4]") \
        .replace("category_pair: [4, 16]", "category_pair: [1, 4]")
    assert narrow != tiny
    out = tmp_path / "run"
    E.run_experiment(os.path.join(repo, "configs", "tiny.yaml"), out, jobs=1)
    wide = sorted(p.name for p in (out / "decodes").glob("*_w16_*.tsv"))
    assert len(wide) == 6
    # files the pipeline did not write, such as a `beamlab train` output
    # in the same directory, are not its to delete
    foreign = {"reports/stray.csv", "models/model.json"}
    for rel in foreign:
        (out / rel).write_text("left by hand\n")

    manifest = E.run_experiment(write_config(tmp_path, narrow), out, jobs=1)
    assert not list((out / "decodes").glob("*_w16_*.tsv"))
    for rel in foreign:
        assert (out / rel).read_text() == "left by hand\n"
    listed = set(manifest["artifacts"]["data"].values()) | \
        set(manifest["artifacts"]["models"].values()) | \
        set(manifest["artifacts"]["decodes"]) | \
        set(manifest["artifacts"]["reports"])
    on_disk = {os.path.relpath(os.path.join(d, n), out).replace(os.sep, "/")
               for sub in ("data", "models", "decodes", "reports")
               for d, _, names in os.walk(out / sub) for n in names}
    assert on_disk == listed | foreign


def test_rerun_deletes_nothing_outside_the_pipeline_directories(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "run"
    E.run_experiment(os.path.join(repo, "configs", "tiny.yaml"), out, jobs=1)
    (tmp_path / "keep.txt").write_text("x\n")
    (out / "decodes" / "keep.tsv").write_text("x\n")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["artifacts"]["reports"] += [
        "../keep.txt", "decodes/../decodes/keep.tsv",
        str(tmp_path / "keep.txt")]
    (out / "manifest.json").write_text(json.dumps(manifest))
    E.run_experiment(os.path.join(repo, "configs", "tiny.yaml"), out, jobs=1)
    assert (tmp_path / "keep.txt").exists()
    assert (out / "decodes" / "keep.tsv").exists()


def test_failed_rerun_replaces_the_manifest_and_keeps_pruning(
        tmp_path, monkeypatch):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tiny_path = os.path.join(repo, "configs", "tiny.yaml")
    tiny = open(tiny_path, encoding="utf-8").read()
    out = tmp_path / "run"
    first = E.run_experiment(tiny_path, out, jobs=1)
    assert first["seed"] == 7
    first_train = (out / "data" / "train.tgt").read_bytes()

    def boom(*args, **kwargs):
        raise RuntimeError("injected decode failure")

    with monkeypatch.context() as patch:
        patch.setattr(E, "_ranked_cells", boom)
        with pytest.raises(RuntimeError):
            E.run_experiment(tiny_path, out, jobs=1, seed_override=99)
    failed = json.loads((out / "manifest.json").read_text())
    # the manifest is the failed run's, matching the corpus now on disk
    assert failed["seed"] == 99
    assert failed["failed_stage"] == "decode"
    assert "completed_utc" not in failed
    assert (out / "data" / "train.tgt").read_bytes() != first_train
    assert set(failed["artifacts"]["data"].values()) == \
        set(first["artifacts"]["data"].values())
    assert failed["artifacts"]["decodes"] == []
    # the first run's decodes and reports were not rewritten: still listed
    assert set(failed["stale"]) == \
        set(first["artifacts"]["decodes"]) | set(first["artifacts"]["reports"])
    assert (out / "decodes" / "msr_w16_none.tsv").exists()

    narrow = tiny.replace("widths: [1, 4, 16]", "widths: [1, 4]") \
        .replace("category_pair: [4, 16]", "category_pair: [1, 4]")
    manifest = E.run_experiment(write_config(tmp_path, narrow), out, jobs=1)
    assert "stale" not in manifest and "failed_stage" not in manifest
    assert not (out / "failed").exists()
    assert not list((out / "decodes").glob("*_w16_*.tsv"))
    listed = set(manifest["artifacts"]["data"].values()) | \
        set(manifest["artifacts"]["models"].values()) | \
        set(manifest["artifacts"]["decodes"]) | \
        set(manifest["artifacts"]["reports"])
    on_disk = {os.path.relpath(os.path.join(d, n), out).replace(os.sep, "/")
               for sub in ("data", "models", "decodes", "reports")
               for d, _, names in os.walk(out / sub) for n in names}
    assert on_disk == listed


def test_each_decode_file_is_written_before_the_next_decode(
        tmp_path, monkeypatch):
    text = TINY_YAML.replace(
        "systems: [baseline]", "systems: [baseline, msr]").replace(
        'normalizations: ["none"]', 'normalizations: ["none", "by_length:1"]')
    out = tmp_path / "run"
    on_disk = []
    real = E.search.decode_corpus

    def recording_decode(model, sources, config, **kwargs):
        on_disk.append(sorted(p.name for p in (out / "decodes").iterdir()))
        return real(model, sources, config, **kwargs)

    monkeypatch.setattr(E.search, "decode_corpus", recording_decode)
    E.run_experiment(write_config(tmp_path, text), out)
    cells = [(system, width) for system in ("baseline", "msr")
             for width in (1, 4)]
    assert len(on_disk) == len(cells)
    # the files of every (system, width) decoded so far, and no others
    for k, files in enumerate(on_disk):
        assert files == sorted("%s_w%d_%s.tsv" % (system, width, slug)
                               for system, width in cells[:k]
                               for slug in ("none", "by_length_1"))


def _digest(root):
    """The artifact digest of an output directory: sha256 over the
    `sha256sum` lines of every file but the manifest, in byte order of
    their ./-relative paths; the first 16 hex digits."""
    paths = sorted("./" + os.path.relpath(os.path.join(d, n), root)
                   .replace(os.sep, "/")
                   for d, _, names in os.walk(root) for n in names
                   if n != "manifest.json")
    lines = "".join("%s  %s\n" % (hashlib.sha256(
        (root / p).read_bytes()).hexdigest(), p) for p in paths)
    return len(paths), hashlib.sha256(lines.encode()).hexdigest()[:16]


@pytest.mark.parametrize("jobs", [1, 2])
def test_tiny_config_reproduces_the_pinned_digest(tmp_path, jobs):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "run"
    E.run_experiment(os.path.join(repo, "configs", "tiny.yaml"), out,
                     jobs=jobs)
    assert _digest(out) == (55, "a9ff690eff33576e")


@pytest.mark.parametrize("jobs", [1, 2])
def test_tiny_wer_config_reproduces_the_pinned_digest(tmp_path, jobs):
    # the tiny config scored by WER, its n-sweep included: every WER report
    # of the pipeline, byte for byte
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tiny = open(os.path.join(repo, "configs", "tiny.yaml"),
                encoding="utf-8").read()
    text = tiny.replace("  metric: bleu\n", "  metric: wer\n")
    assert text != tiny and "n_sweep: [2, 4]" in text
    out = tmp_path / "run"
    E.run_experiment(write_config(tmp_path, text), out, jobs=jobs)
    assert _digest(out) == (55, "a0742ee37a4cbb52")
