"""The benchmark's workloads: inputs made from the seed, one round of timed
calls into beamlab, and the checks of that round's outputs.

A workload object is used in three steps: `setup()` writes its `inputs`
input sets and imports the library, `run_round(out, k)` makes the timed
calls on input set k into a fresh output directory and returns one
(operation, ok, stdout) triple per call, and `check(out)` returns the list
of ways the outputs are wrong.
"""

import contextlib
import io
import json
import os

import checks

# Sizes of the generated corpora. "bench" keeps a round to about two seconds
# so that a run holds several rounds of each input set; "full" is the size
# of the reference config, whose digest at seed 1234 is the one ROADMAP
# records.
SCALES = {
    "bench": {"train_size": 450, "dev_size": 10, "test_size": 8,
              "multiplier": 4},
    "full": {"train_size": 9000, "dev_size": 300, "test_size": 600,
             "multiplier": 10},
}
# cli-parallel decodes one model at two widths, so it takes more sentences
CLI_SCALES = {
    "bench": {"train_size": 3000, "dev_size": 30, "test_size": 60},
    "full": {"train_size": 9000, "dev_size": 300, "test_size": 600},
}

# configs/reference.yaml with its seed and sizes left open; at full scale
# and seed 1234 it is that file byte for byte.
REFERENCE_YAML = """\
# Reference desk-scale run: training lengths biased short of the test
# lengths, three training regimes, log-spaced beam widths, raw and
# length-normalized ranking. Finishes in a few minutes on one core.
seed: %(seed)d
systems: [baseline, msr, resample]
synth:
  vocab_size: 48
  zipf_exponent: 1.3
  length_law: "negative_binomial(10, 0.35)"
  test_length_law: "uniform(6, 44)"
  terminal_token: "."
  noise_prob: 0.02
  train_size: %(train_size)d
  dev_size: %(dev_size)d
  test_size: %(test_size)d
augment:
  n_max: 4
  multiplier: %(multiplier)d
model:
  order: 3
  add_k_lex: 0.1
  add_k_ngram: 0.1
  lambda: 0.8
  min_count: 1
decode:
  widths: [1, 4, 32, 200]
  normalizations: ["none", "by_length:1.0"]
  max_len_a: 2.0
  max_len_b: 10
  topk: 1
evaluate:
  metric: bleu
analysis:
  category_pair: [4, 200]
  bucket_edges: [8, 16, 24, 32, 40, 48, 56]
  histogram_bucket_width: 4
"""

# The reference corpus and augmentation, scored by WER at small widths,
# with an MSR n-sweep: training and WER dominate, search does little.
SWEEP_EDITS = (
    ("  multiplier: %(multiplier)d\n",
     "  multiplier: %(multiplier)d\n  n_sweep: [2, 8]\n"),
    ("  widths: [1, 4, 32, 200]\n", "  widths: [1, 4]\n"),
    ("  metric: bleu\n", "  metric: wer\n"),
    ("  category_pair: [4, 200]\n", "  category_pair: [1, 4]\n"),
)

# input sets per experiment workload
INPUTS = {"bench": 4, "full": 1}

MAX_LEN_A, MAX_LEN_B = 2.0, 10
TOL = 1e-9


def _close(a, b):
    return a is not None and b is not None and abs(a - b) <= TOL


def _check_model_totals(errors, model_path, model, train_tgt):
    targets = checks.read_lines(train_tgt)
    expected = sum(len(t) for t in targets) + len(targets)
    got = model.count_totals()
    if got != (expected, expected):
        errors.append("%s: lexical/n-gram count totals %r, %d target tokens "
                      "plus EOS in %s"
                      % (model_path, got, expected, train_tgt))


def _check_decodes(errors, path, model, sources, norm):
    """Every logprob equals its rescoring, every normalized score follows
    from its logprob. Returns the rank-1 rows."""
    rows = checks.read_decode_tsv(path)
    if len(rows) != len(sources):
        errors.append("%s: %d rank-1 lines for %d sources"
                      % (path, len(rows), len(sources)))
        return rows
    for i, (source, (score, logprob, tokens)) in enumerate(zip(sources,
                                                                rows)):
        rescored = model.logprob(source, tokens)
        if not _close(logprob, rescored):
            errors.append("%s:%d: logprob %r, rescored %r"
                          % (path, i + 1, logprob, rescored))
        expected = checks.normalized(logprob, len(tokens) + 1, norm)
        if not _close(score, expected):
            errors.append("%s:%d: normalized score %r, expected %r under %s"
                          % (path, i + 1, score, expected, norm))
    return rows


def _check_greedy(errors, path, model, sources, rows):
    for i, (source, (_, logprob, tokens)) in enumerate(zip(sources, rows)):
        cap = checks.length_cap(len(source), MAX_LEN_A, MAX_LEN_B)
        greedy, greedy_lp = model.greedy(source, cap)
        if greedy != tokens or not _close(logprob, greedy_lp):
            errors.append("%s:%d: width-1 decode %r (%r) differs from greedy "
                          "%r (%r)" % (path, i + 1, tokens, logprob, greedy,
                                       greedy_lp))


def _check_categories(errors, where, report, small, large, refs):
    rows = report["categories"]
    if sum(r["count"] for r in rows) != len(refs):
        errors.append("%s: category counts sum to %d, test size %d"
                      % (where, sum(r["count"] for r in rows), len(refs)))
    shift = (sum(map(len, large)) - sum(map(len, small))) / len(refs)
    got = sum(r["length_contribution"] for r in rows)
    if not _close(got, shift):
        errors.append("%s: length contributions sum to %r, mean length "
                      "moved by %r" % (where, got, shift))


def _bucket_members(refs, low, high):
    return [i for i, r in enumerate(refs)
            if low < len(r) and (high is None or len(r) <= high)]


def _check_bucket(errors, where, bucket, hyps, refs, metric):
    members = _bucket_members(refs, bucket["low"], bucket["high"])
    if bucket["count"] != len(members):
        errors.append("%s: bucket (%r, %r] counts %d, expected %d"
                      % (where, bucket["low"], bucket["high"],
                         bucket["count"], len(members)))
    elif members:
        expected = checks.corpus_metric(metric, [hyps[i] for i in members],
                                        [refs[i] for i in members])
        if not _close(bucket["metric"], expected):
            errors.append("%s: bucket (%r, %r] %s %r, expected %r"
                          % (where, bucket["low"], bucket["high"], metric,
                             bucket["metric"], expected))


def _check_provenance(errors, data, system):
    base_src = checks.read_lines(data + "/train.src")
    base_tgt = checks.read_lines(data + "/train.tgt")
    src = checks.read_lines("%s/train_%s.src" % (data, system))
    tgt = checks.read_lines("%s/train_%s.tgt" % (data, system))
    with open("%s/train_%s.prov" % (data, system), encoding="utf-8") as handle:
        prov = [[int(i) for i in line.split()] for line in handle]
    if not len(src) == len(tgt) == len(prov):
        errors.append("%s: %d source, %d target and %d provenance lines"
                      % (system, len(src), len(tgt), len(prov)))
        return
    for j, picks in enumerate(prov):
        if src[j] != [t for i in picks for t in base_src[i]] or \
                tgt[j] != [t for i in picks for t in base_tgt[i]]:
            errors.append("train_%s:%d is not the concatenation of pairs %r"
                          % (system, j + 1, picks))
            return


def input_seeds(seed, count):
    """The seeds of a workload's input sets; the first is the seed itself."""
    return [seed + 1000003 * k for k in range(count)]


class ExperimentWorkload:
    """`run_experiment` with jobs=1 on configs generated from the seed.

    Rounds cycle through `inputs` configs, each with its own corpus seed:
    one small corpus is quick enough to repeat, and cycling several spreads
    the run over more sentences, so that the time of a round depends less
    on the lengths that one seed happens to draw."""

    systems = ("baseline", "msr", "resample")
    norms = ("none", "by_length:1")

    def __init__(self, name, seed, work, scale):
        self.name = name
        self.inputs = INPUTS[scale]
        text = REFERENCE_YAML
        if name == "train-wer-sweep":
            for old, new in SWEEP_EDITS:
                text = text.replace(old, new)
            self.widths, self.metric, self.pair = (1, 4), "wer", (1, 4)
        else:
            self.widths, self.metric = (1, 4, 32, 200), "bleu"
            self.pair = (4, 200)
        self.configs = [(os.path.join(work, "config%d.yaml" % k),
                         text % dict(SCALES[scale], seed=input_seed))
                        for k, input_seed in enumerate(
                            input_seeds(seed, self.inputs))]

    def setup(self):
        for path, text in self.configs:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        from beamlab import experiment
        self._experiment = experiment

    def run_round(self, out, k):
        try:
            # looked up on each call, so that the tracer's wrapper is seen
            self._experiment.run_experiment(self.configs[k][0], out, jobs=1)
        except Exception as exc:  # a failed operation is counted, not fatal
            return [("run_experiment", False, repr(exc))]
        return [("run_experiment", True, "")]

    def check(self, out):
        errors = []
        data = os.path.join(out, "data")
        sources = checks.read_lines(data + "/test.src")
        refs = checks.read_lines(data + "/test.tgt")
        top1 = {}
        for system in self.systems:
            model_path = os.path.join(out, "models", system + ".json")
            train = "train" if system == "baseline" else "train_" + system
            model = checks.CountModel.load(model_path)
            _check_model_totals(errors, model_path, model,
                                os.path.join(data, train + ".tgt"))
            for width in self.widths:
                for norm in self.norms:
                    path = os.path.join(out, "decodes", "%s_w%d_%s.tsv" % (
                        system, width, norm.replace(":", "_")))
                    rows = _check_decodes(errors, path, model, sources, norm)
                    top1[system, width, norm] = [r[2] for r in rows]
                    if width == 1 and norm == "none":
                        _check_greedy(errors, path, model, sources, rows)
        if errors:
            return errors

        reports = os.path.join(out, "reports")
        with open(os.path.join(reports, "quality_curve.json")) as handle:
            quality = json.load(handle)["rows"]
        if len(quality) != len(top1):
            errors.append("quality_curve.json has %d rows for %d decodes"
                          % (len(quality), len(top1)))
        for row in quality:
            hyps = top1[row["system"], row["width"], row["normalization"]]
            expected = checks.corpus_metric(self.metric, hyps, refs)
            if not _close(row["score"], expected):
                errors.append("quality_curve %s w%d %s: %s %r, recomputed %r"
                              % (row["system"], row["width"],
                                 row["normalization"], self.metric,
                                 row["score"], expected))
            mean_len = sum(len(h) for h in hyps) / len(hyps)
            if not _close(row["mean_hyp_len"], mean_len):
                errors.append("quality_curve %s w%d %s: mean_hyp_len %r, "
                              "recomputed %r"
                              % (row["system"], row["width"],
                                 row["normalization"], row["mean_hyp_len"],
                                 mean_len))

        small, large = self.pair
        for system in self.systems:
            for norm in self.norms:
                path = os.path.join(reports, "categories_%s_%s.json"
                                    % (system, norm.replace(":", "_")))
                with open(path) as handle:
                    report = json.load(handle)["report"]
                _check_categories(errors, path, report,
                                  top1[system, small, norm],
                                  top1[system, large, norm], refs)

        with open(os.path.join(reports, "buckets.json")) as handle:
            buckets = json.load(handle)["rows"]
        for key in top1:
            system, width, norm = key
            rows = [b for b in buckets if (b["system"], b["width"],
                                           b["normalization"]) == key]
            if sum(b["count"] for b in rows) != len(refs):
                errors.append("buckets %s w%d %s: counts sum to %d, test "
                              "size %d" % (system, width, norm,
                                           sum(b["count"] for b in rows),
                                           len(refs)))
            for b in rows:
                bucket = {"low": b["bucket_low"], "high": b["bucket_high"],
                          "count": b["count"], "metric": b["metric"]}
                _check_bucket(errors, "buckets %s w%d %s" % key, bucket,
                              top1[key], refs, self.metric)

        for system in self.systems[1:]:
            _check_provenance(errors, data, system)
        return errors


class CliParallelWorkload:
    """`beamlab.cli.main` in-process: decode with two workers at widths 4
    and 200 from a saved model, bootstrap, category and bucket analysis."""

    name = "cli-parallel"
    widths = (4, 200)
    serial_subset = 6
    inputs = 1

    def __init__(self, name, seed, work, scale):
        sizes = CLI_SCALES[scale]
        self.seed = seed
        self.data = os.path.join(work, "inputs")
        self.model_path = os.path.join(self.data, "baseline.json")
        self.serial_dir = os.path.join(work, "serial")
        self.setup_calls = [
            ["gen-synth", "--vocab-size", "48", "--zipf", "1.3",
             "--length-law", "negative_binomial(10, 0.35)",
             "--test-length-law", "uniform(6, 44)", "--terminal-token", ".",
             "--noise", "0.02", "--train-size", str(sizes["train_size"]),
             "--dev-size", str(sizes["dev_size"]),
             "--test-size", str(sizes["test_size"]),
             "--seed", str(seed), "--out", self.data],
            ["train", self.data + "/train.src", self.data + "/train.tgt",
             "--order", "3", "--lambda", "0.8", "--name", "baseline",
             "--out", self.data],
        ]

    def _call(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self._cli.main(argv)
        return code, buffer.getvalue()

    def setup(self):
        from beamlab import cli
        self._cli = cli
        for argv in self.setup_calls:
            code, _ = self._call(argv)
            if code != 0:
                raise RuntimeError("set-up call %r exited %d" % (argv, code))
        with open(self.data + "/test.src", encoding="utf-8") as handle:
            subset = handle.readlines()[:self.serial_subset]
        with open(self.data + "/subset.src", "w", encoding="utf-8") as handle:
            handle.writelines(subset)

    def _decode_args(self, width, source, jobs, out):
        return ["decode", self.model_path, source, "--beam", str(width),
                "--jobs", str(jobs), "--out", out, "--name", "w%d.tsv" % width]

    def run_round(self, out, _k):
        test_src, test_tgt = self.data + "/test.src", self.data + "/test.tgt"
        w4, w200 = out + "/w4.tsv", out + "/w200.tsv"
        calls = [("decode_w%d" % w, self._decode_args(w, test_src, 2, out))
                 for w in self.widths]
        calls += [("bootstrap_%s" % metric,
                   ["evaluate", "bootstrap", w4, w200, test_tgt,
                    "--metric", metric, "--n-resamples", "1000",
                    "--seed", str(self.seed)]) for metric in ("bleu", "wer")]
        calls += [("categories", ["analyze", "categories", "--small", w4,
                                  "--large", w200, "--refs", test_tgt]),
                  ("buckets", ["analyze", "buckets", "--hyps", w200,
                               "--refs", test_tgt])]
        results = []
        for op, argv in calls:
            code, text = self._call(argv)
            # a decode prints only the path it wrote
            report = "" if op.startswith("decode") else text
            results.append((op, code == 0, report))
        return results

    def check(self, out):
        errors = []
        sources = checks.read_lines(self.data + "/test.src")
        refs = checks.read_lines(self.data + "/test.tgt")
        model = checks.CountModel.load(self.model_path)
        _check_model_totals(errors, self.model_path, model,
                            self.data + "/train.tgt")
        hyps = {}
        for width in self.widths:
            path = "%s/w%d.tsv" % (out, width)
            hyps[width] = [r[2] for r in _check_decodes(errors, path, model,
                                                        sources, "none")]
            os.makedirs(self.serial_dir, exist_ok=True)
            code, _ = self._call(self._decode_args(
                width, self.data + "/subset.src", 1, self.serial_dir))
            with open(path, encoding="utf-8") as handle:
                parallel = handle.readlines()[:self.serial_subset]
            with open("%s/w%d.tsv" % (self.serial_dir, width),
                      encoding="utf-8") as handle:
                serial = handle.readlines()
            if code != 0 or serial != parallel:
                errors.append("w%d: --jobs 2 decode differs from the serial "
                              "decode of its first %d lines"
                              % (width, self.serial_subset))
        if errors:
            return errors

        for metric in ("bleu", "wer"):
            with open("%s/bootstrap_%s.out" % (out, metric)) as handle:
                result = json.load(handle)
            if result["wins_a"] + result["wins_b"] + result["ties"] != \
                    result["n_resamples"] or result["n_resamples"] != 1000:
                errors.append("bootstrap %s: wins and ties %r do not sum to "
                              "1000 resamples" % (metric, result))
            for side, width in (("score_a", 4), ("score_b", 200)):
                expected = checks.corpus_metric(metric, hyps[width], refs)
                if not _close(result[side], expected):
                    errors.append("bootstrap %s: %s %r, recomputed %r"
                                  % (metric, side, result[side], expected))

        with open(out + "/categories.out") as handle:
            _check_categories(errors, "categories", json.load(handle),
                              hyps[4], hyps[200], refs)
        with open(out + "/buckets.out") as handle:
            report = json.load(handle)
        if sum(b["count"] for b in report["buckets"]) != len(refs):
            errors.append("buckets: counts do not sum to the test size")
        for bucket in report["buckets"]:
            _check_bucket(errors, "buckets", bucket, hyps[200], refs, "bleu")
        return errors


WORKLOADS = {
    "reference": ExperimentWorkload,
    "train-wer-sweep": ExperimentWorkload,
    "cli-parallel": CliParallelWorkload,
}


def make(name, seed, work, scale):
    return WORKLOADS[name](name, seed, work, scale)
