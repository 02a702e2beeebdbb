"""Acceptance suite: one test per shipped criterion, each printing a PASS
line with the measured numbers and asserting its own runtime budget. Run
with -s (or read the captured stdout) to see the lines."""

import json
import os
import time
from collections import Counter

import numpy as np
import pytest

from beamlab import cli
from beamlab.analysis import contribution
from beamlab.augment import MsrConfig, msr
from beamlab.corpus import SynthConfig, generate_synthetic
from beamlab.experiment import run_experiment
from beamlab.metrics import corpus_bleu, corpus_wer, sentence_table, wer
from beamlab.model import train
from beamlab.search import BeamConfig, DenseScorer, beam_search, exact_search

from helpers import corpus_from_token_pairs, saturating_width
from oracles import bleu_corpus_reference, levenshtein_reference

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(name, detail):
    print("\n%s: PASS  %s" % (name, detail))


# -----------------------------------------------------------------------------

def test_ac1_contribution_arithmetic():
    t0 = time.perf_counter()
    cases = [
        # (metric at small beam, at large beam, category fraction, expected)
        (38.71, 0.13, 0.03, -1.16),
        (36.70, 30.75, 0.07, -0.42),
        (22.9, 86.5, 0.009, +0.57),
        (17.6, 26.6, 0.015, +0.13),
        (53.8, 8.72, 0.03, -1.35),
        (67.17, 10.65, 0.009, -0.51),
    ]
    got = [contribution(small, large, frac) for small, large, frac, _ in cases]
    for value, (_, _, _, want) in zip(got, cases):
        assert value == pytest.approx(want, abs=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    _report("AC1", "6/6 reference contributions within 0.01: %s (%.1f ms)"
            % (["%.4f" % v for v in got], elapsed * 1e3))


def test_ac2_msr_statistical_properties():
    t0 = time.perf_counter()
    base = generate_synthetic(SynthConfig(
        vocab_size=20, zipf_exponent=1.2, length_law=("uniform", 3, 12),
        noise_prob=0.0, train_size=1000, dev_size=1, test_size=1,
        seed=42))["train"]
    mean_len = sum(len(p.target) for p in base) / len(base)

    size = 100_000
    out = msr(base, MsrConfig(n_max=4, size=size, seed=9))
    assert len(out) == size

    for pair in out:
        want_src = [t for i in pair.provenance for t in base[i].source]
        want_tgt = [t for i in pair.provenance for t in base[i].target]
        assert pair.source == want_src and pair.target == want_tgt

    counts = Counter(len(p.provenance) for p in out)
    sigma = (size * 0.25 * 0.75) ** 0.5
    for k in (1, 2, 3, 4):
        assert abs(counts[k] - size / 4) <= 3 * sigma, (k, counts[k])

    got_mean = sum(len(p.target) for p in out) / size
    want_mean = mean_len * (4 + 1) / 2
    assert abs(got_mean - want_mean) / want_mean < 0.03

    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report("AC2", "size %d exact, provenance 100%%, per-k max dev %.0f "
            "(3 sigma %.0f), mean len %.2f vs %.2f (%.1f s)"
            % (size, max(abs(counts[k] - size / 4) for k in (1, 2, 3, 4)),
               3 * sigma, got_mean, want_mean, elapsed))


def test_ac3_search_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    src_vocab = ["a", "b"]
    tgt_vocab = ["u", "v", "w"]
    cap = 6
    checked = 0
    for _ in range(200):
        n_pairs = int(rng.integers(4, 9))
        pairs = []
        for _ in range(n_pairs):
            n = int(rng.integers(1, 4))
            src = [src_vocab[i] for i in rng.integers(0, 2, size=n)]
            tgt = [tgt_vocab[i] for i in rng.integers(0, 3, size=n)]
            pairs.append((src, tgt))
        model = train(corpus_from_token_pairs(pairs),
                      order=int(rng.integers(1, 4)),
                      add_k_lex=float(rng.uniform(0.01, 1.0)),
                      add_k_ngram=float(rng.uniform(0.01, 1.0)),
                      lam=float(rng.uniform(0.0, 1.0)))
        assert len(model.support) <= 5
        scorer = DenseScorer(model)
        source = [src_vocab[i]
                  for i in rng.integers(0, 2, size=int(rng.integers(1, 4)))]

        exact = exact_search(model, source, cap, scorer=scorer)
        sat = saturating_width(len(model.support), cap)
        full = beam_search(model, source,
                           BeamConfig(width=sat, max_len_a=0.0, max_len_b=cap),
                           scorer=scorer)
        top = full.hypotheses[0]
        assert top.tokens == exact.tokens
        assert top.logprob == exact.logprob
        for width in (1, 2, 5):
            narrow = beam_search(model, source,
                                 BeamConfig(width=width, max_len_a=0.0,
                                            max_len_b=cap), scorer=scorer)
            assert narrow.hypotheses[0].logprob <= exact.logprob + 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report("AC3", "%d models: saturating beam == exhaustive argmax "
            "(tokens and logprob), narrower widths never exceed it (%.1f s)"
            % (checked, elapsed))


def test_ac4_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    vocab = list("abcdefgh")

    def sentence(lo=1, hi=12):
        return [vocab[i]
                for i in rng.integers(0, len(vocab),
                                      size=int(rng.integers(lo, hi)))]

    for _ in range(50):
        refs = [sentence() for _ in range(int(rng.integers(2, 30)))]
        hyps = []
        for ref in refs:
            hyp = list(ref)
            for _ in range(int(rng.integers(0, 4))):
                if hyp and rng.random() < 0.5:
                    hyp.pop(int(rng.integers(0, len(hyp))))
                else:
                    hyp.insert(int(rng.integers(0, len(hyp) + 1)),
                               vocab[int(rng.integers(0, len(vocab)))])
            hyps.append(hyp)

        got = sentence_table(hyps, refs, "bleu").report()
        want_score, want_prec, want_bp, want_hyp, want_ref = \
            bleu_corpus_reference(hyps, refs)
        assert got["score"] == corpus_bleu(hyps, refs)
        assert got["score"] == pytest.approx(want_score, abs=1e-9)
        breakdown = got["breakdown"]
        assert breakdown["brevity_penalty"] == pytest.approx(want_bp,
                                                             abs=1e-9)
        for g, w in zip(breakdown["precisions"], want_prec):
            assert g == pytest.approx(w, abs=1e-9)
        assert (breakdown["hyp_len"], breakdown["ref_len"]) == \
            (want_hyp, want_ref)

        for hyp, ref in zip(hyps, refs):
            if not ref:
                continue
            subs, ins, dels, _ = wer(hyp, ref)
            assert subs + ins + dels == levenshtein_reference(hyp, ref)

    ident = [["a", "b", "c", "d", "e"], ["f", "g"]]
    assert corpus_bleu(ident, ident) == 100.0
    assert corpus_bleu([[], []], ident) == 0.0
    assert corpus_wer([["a", "b"]], [["a", "b"]]) == 0.0
    assert corpus_wer([[]], [["a", "b"]]) == 1.0
    assert wer(["a", "b"], ["b", "a"])[:3] == (2, 0, 0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report("AC4", "50 corpora: BLEU and WER match brute-force references "
            "at 1e-9; identity/zero cases exact (%.1f s)" % elapsed)


def test_ac5_directional_degradation(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "reference"
    run_experiment(os.path.join(REPO, "configs", "reference.yaml"), out,
                   jobs=1)

    curve = json.loads((out / "reports" / "quality_curve.json").read_text())
    rows = {(r["system"], r["normalization"], r["width"]): r
            for r in curve["rows"]}

    # (a) raw ranking degrades quality and shortens output as width grows
    raw4 = rows[("baseline", "none", 4)]
    raw200 = rows[("baseline", "none", 200)]
    assert raw200["score"] < raw4["score"]
    assert raw200["mean_hyp_len"] < raw4["mean_hyp_len"]

    # (b) early-stopped prefixes dominate the degradation
    cats = json.loads(
        (out / "reports" / "categories_baseline_none.json").read_text())
    contrib = {c["category"]: c["contribution"]
               for c in cats["report"]["categories"]}
    assert contrib["Prefix"] < 0
    assert contrib["Prefix"] < contrib["Improved"]
    assert contrib["Prefix"] < contrib["OtherDrop"]

    # (c) the deficit concentrates past the training length mode
    hist = (out / "reports" /
            "length_histogram_baseline.csv").read_text().splitlines()
    mode_start, best = None, -1
    for line in hist[2:]:
        if line.startswith("#"):
            continue
        lo, _, count = line.split(",")
        if int(count) > best:
            mode_start, best = int(lo), int(count)
    buckets = json.loads((out / "reports" / "buckets.json").read_text())
    per_bucket = {}
    for r in buckets["rows"]:
        if r["system"] == "baseline" and r["normalization"] == "none" \
                and r["width"] in (4, 200):
            per_bucket.setdefault(r["bucket_low"], {})[r["width"]] = r["metric"]
    early = late = 0.0
    for lo, by_w in per_bucket.items():
        if by_w.get(4) is None or by_w.get(200) is None:
            continue
        deficit = max(by_w[4] - by_w[200], 0.0)
        if lo >= mode_start:
            late += deficit
        else:
            early += deficit
    assert late > early

    # (d) msr closes more of the width-4 -> width-200 gap than resampling
    gap = {system: rows[(system, "none", 4)]["score"]
           - rows[(system, "none", 200)]["score"]
           for system in ("baseline", "msr", "resample")}
    assert gap["msr"] < gap["baseline"]
    assert gap["msr"] < gap["resample"]

    # (e) length normalization removes the degradation
    norms = {r["normalization"] for r in curve["rows"]}
    by_len = next(n for n in norms if n.startswith("by_length"))
    margin = rows[("baseline", by_len, 200)]["score"] \
        - rows[("baseline", by_len, 4)]["score"]
    assert margin >= -0.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report("AC5", "(a) %.2f->%.2f BLEU, len %.2f->%.2f; (b) Prefix %.2f vs "
            "%.2f/%.2f; (c) deficit late %.1f vs early %.1f past mode %d; "
            "(d) gaps base %.2f msr %.2f resample %.2f; (e) margin %.3f "
            "under %s (%.0f s)"
            % (raw4["score"], raw200["score"], raw4["mean_hyp_len"],
               raw200["mean_hyp_len"], contrib["Prefix"], contrib["Improved"],
               contrib["OtherDrop"], late, early, mode_start, gap["baseline"],
               gap["msr"], gap["resample"], margin, by_len, elapsed))


def _tree_bytes(root, skip=("manifest.json",)):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


def test_ac6_determinism_suite(tmp_path, capsys):
    t0 = time.perf_counter()
    checked = []

    def cli_ok(*argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    # gen-synth
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    args = ["gen-synth", "--vocab-size", "10", "--length-law",
            "uniform(2, 8)", "--noise", "0.05", "--train-size", "50",
            "--dev-size", "5", "--test-size", "20", "--seed", "13"]
    cli_ok(*args, "--out", str(g1))
    cli_ok(*args, "--out", str(g2))
    assert _tree_bytes(g1) == _tree_bytes(g2)
    checked.append("gen-synth")

    # msr
    a1, a2 = tmp_path / "a1", tmp_path / "a2"
    src, tgt = str(g1 / "train.src"), str(g1 / "train.tgt")
    for out in (a1, a2):
        cli_ok("augment", "msr", src, tgt, "--n", "3", "--multiplier", "2",
               "--seed", "5", "--out", str(out))
    assert _tree_bytes(a1) == _tree_bytes(a2)
    checked.append("msr")

    # train
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    for out in (m1, m2):
        cli_ok("train", src, tgt, "--out", str(out))
    assert _tree_bytes(m1) == _tree_bytes(m2)
    checked.append("train")

    # decode, including jobs 1 vs 8
    d1, d2, d8 = tmp_path / "d1", tmp_path / "d2", tmp_path / "d8"
    model = str(m1 / "model.json")
    test_src = str(g1 / "test.src")
    cli_ok("decode", model, test_src, "--beam", "4", "--out", str(d1))
    cli_ok("decode", model, test_src, "--beam", "4", "--out", str(d2))
    cli_ok("decode", model, test_src, "--beam", "4", "--out", str(d8),
           "--jobs", "8")
    assert _tree_bytes(d1) == _tree_bytes(d2) == _tree_bytes(d8)
    checked.append("decode")

    # bootstrap (stdout JSON)
    hyps = str(d1 / "decode_w4_none.tsv")
    refs = str(g1 / "test.tgt")
    b1 = cli_ok("evaluate", "bootstrap", hyps, hyps, refs,
                "--n-resamples", "300", "--seed", "11")
    b2 = cli_ok("evaluate", "bootstrap", hyps, hyps, refs,
                "--n-resamples", "300", "--seed", "11")
    assert b1 == b2
    checked.append("bootstrap")

    # experiment, including jobs 1 vs 8
    e1, e2, e8 = tmp_path / "e1", tmp_path / "e2", tmp_path / "e8"
    config = os.path.join(REPO, "configs", "tiny.yaml")
    run_experiment(config, e1, jobs=1)
    run_experiment(config, e2, jobs=1)
    run_experiment(config, e8, jobs=8)
    assert _tree_bytes(e1) == _tree_bytes(e2) == _tree_bytes(e8)
    checked.append("experiment")

    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report("AC6", "byte-identical outputs across reruns and jobs 1 vs 8 "
            "for %s (%.1f s)" % (", ".join(checked), elapsed))
