import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import beamlab
from beamlab import cli, experiment, fileio, metrics, search
from beamlab.corpus import load_corpus
from beamlab.model import load_model
from beamlab.search import parse_decode_tsv, parse_normalization
from oracles import load_provenance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lines(path, sentences):
    path.write_text("".join(" ".join(s) + "\n" for s in sentences),
                    encoding="utf-8")
    return str(path)


TOY_PAIRS = [
    (["s0", "s1", "s2", "."], ["t0", "t1", "t2", "."]),
    (["s1", "s0", "."], ["t1", "t0", "."]),
    (["s2", "s2", "s0", "s1", "."], ["t2", "t2", "t0", "t1", "."]),
    (["s0", "."], ["t0", "."]),
]


def toy_corpus_files(tmp_path, reps=6):
    pairs = TOY_PAIRS * reps
    src = write_lines(tmp_path / "toy.src", [p[0] for p in pairs])
    tgt = write_lines(tmp_path / "toy.tgt", [p[1] for p in pairs])
    return src, tgt


# ------------------------------------------------------------------- exit codes

def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_unknown_flag_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "gen-synth", "--bogus", "3")
    assert code == 1


def test_missing_input_is_data_error(capsys, tmp_path):
    refs = write_lines(tmp_path / "refs.txt", [["a", "b"]])
    code, _, err = run(capsys, "evaluate", "bleu",
                       str(tmp_path / "nope.txt"), refs)
    assert code == 2
    assert "nope.txt" in err


# each subcommand takes only the shared flags its handler reads
@pytest.mark.parametrize("argv", [
    ("evaluate", "bleu", "h.txt", "r.txt", "--jobs", "2"),
    ("evaluate", "wer", "h.txt", "r.txt", "--seed", "3"),
    ("evaluate", "bootstrap", "a.txt", "b.txt", "r.txt", "--out", "d"),
    ("analyze", "buckets", "--hyps", "h.txt", "--refs", "r.txt",
     "--out", "d"),
    ("train", "a.src", "a.tgt", "--jobs", "8"),
    ("decode", "m.json", "a.src", "--seed", "3"),
    ("gen-synth", "--config", "c.yaml"),
])
def test_flag_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments: " + argv[-2] in err
    assert stdout == ""


# OK, BAD, MODEL and DEC stand for paths the test makes
@pytest.mark.parametrize("name, argv", [
    ("bad.txt", ("evaluate", "bleu", "OK", "BAD")),
    ("bad.tsv", ("evaluate", "bleu", "BAD", "OK")),
    ("bad.src", ("decode", "MODEL", "BAD", "--out", "DEC")),
])
def test_input_that_is_not_utf8_is_data_error(capsys, tmp_path, name, argv):
    bad = tmp_path / name
    bad.write_bytes(b"s0 s1\n\xff\xfe s2\n")
    paths = {"OK": write_lines(tmp_path / "ok.txt", [["s0", "s1"], ["s2"]]),
             "BAD": str(bad), "DEC": str(tmp_path / "dec")}
    if "MODEL" in argv:
        paths["MODEL"] = train_toy_model(capsys, tmp_path)[0]
    code, _, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert err.startswith("error: %s is not valid UTF-8" % bad)
    assert "Traceback" not in err
    assert not (tmp_path / "dec").exists()


def test_bad_flag_value_is_usage_error(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    code, _, err = run(capsys, "analyze", "histogram", src, tgt,
                       "--bucket-width", "0")
    assert code == 1
    assert err


# -------------------------------------------------------------------- gen-synth

def test_gen_synth_writes_splits_and_is_deterministic(capsys, tmp_path):
    args = ["gen-synth", "--vocab-size", "6", "--zipf", "1.2",
            "--length-law", "uniform(2, 5)", "--noise", "0.0",
            "--train-size", "30", "--dev-size", "5", "--test-size", "10",
            "--terminal-token", ".", "--seed", "3"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, stdout, _ = run(capsys, *args, "--out", str(out1))
    assert code == 0
    for split, n in (("train", 30), ("dev", 5), ("test", 10)):
        for ext in (".src", ".tgt"):
            path = out1 / (split + ext)
            assert path.exists()
            assert len(path.read_text().splitlines()) == n
    assert "train.src" in stdout

    corpus = load_corpus(out1 / "train.src", out1 / "train.tgt")
    assert all(p.source[-1] == "." and p.target[-1] == "." for p in corpus)

    code, _, _ = run(capsys, *args, "--out", str(out2))
    assert code == 0
    for name in ("train.src", "train.tgt", "test.src", "test.tgt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_written_files_take_their_mode_from_the_umask(capsys, tmp_path,
                                                      umask, mode):
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "gen-synth", "--vocab-size", "5",
                         "--length-law", "uniform(2, 4)", "--train-size",
                         "8", "--dev-size", "2", "--test-size", "2",
                         "--out", str(tmp_path))
        fileio.write_bytes_atomic(tmp_path / "raw.bin", b"x")
        # a failed write leaves no temporary file, and the old file as is
        with pytest.raises(TypeError):
            fileio.write_bytes_atomic(tmp_path / "raw.bin", "not bytes")
    finally:
        os.umask(old)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["dev.src", "dev.tgt", "raw.bin", "test.src", "test.tgt",
                     "train.src", "train.tgt"]
    assert (tmp_path / "raw.bin").read_bytes() == b"x"
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_gen_synth_honors_out_env_var(capsys, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("BEAMLAB_OUT", str(target))
    code, _, _ = run(capsys, "gen-synth", "--vocab-size", "5",
                     "--length-law", "uniform(2, 4)", "--noise", "0.0",
                     "--train-size", "8", "--dev-size", "2",
                     "--test-size", "2", "--seed", "1")
    assert code == 0
    assert (target / "train.src").exists()


def test_gen_synth_bad_length_law_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "gen-synth", "--length-law", "trapezoid(2)",
                       "--out", str(tmp_path))
    assert code == 1
    assert err


# ---------------------------------------------------------------------- augment

def test_augment_msr_multiplier_size_and_provenance(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)  # 24 pairs
    out = tmp_path / "aug"
    code, stdout, _ = run(capsys, "augment", "msr", src, tgt,
                          "--n", "2", "--multiplier", "3", "--seed", "7",
                          "--out", str(out))
    assert code == 0
    assert "toy_msr.src" in stdout
    augmented = load_corpus(out / "toy_msr.src", out / "toy_msr.tgt")
    assert len(augmented) == 72

    base = load_corpus(src, tgt)
    prov = load_provenance(out / "toy_msr.prov")
    assert len(prov) == 72
    for pair, ids in zip(augmented, prov):
        assert 1 <= len(ids) <= 2
        want_src = [tok for i in ids for tok in base[i].source]
        want_tgt = [tok for i in ids for tok in base[i].target]
        assert pair.source == want_src
        assert pair.target == want_tgt


def test_augment_msr_explicit_size(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    out = tmp_path / "aug"
    code, _, _ = run(capsys, "augment", "msr", src, tgt,
                     "--n", "3", "--size", "17", "--seed", "1",
                     "--out", str(out))
    assert code == 0
    assert len((out / "toy_msr.src").read_text().splitlines()) == 17


def test_augment_msr_multiplier_and_size_conflict(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    code, _, _ = run(capsys, "augment", "msr", src, tgt,
                     "--multiplier", "2", "--size", "9")
    assert code == 1


def test_augment_resample_size_and_no_prov(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    out = tmp_path / "aug"
    code, _, _ = run(capsys, "augment", "resample", src, tgt,
                     "--size", "30", "--seed", "3", "--no-prov",
                     "--out", str(out))
    assert code == 0
    resampled = load_corpus(out / "toy_resample.src", out / "toy_resample.tgt")
    assert len(resampled) == 30
    assert not (out / "toy_resample.prov").exists()
    originals = {tuple(p.source) for p in load_corpus(src, tgt)}
    assert all(tuple(p.source) in originals for p in resampled)


@pytest.mark.parametrize("flags", [
    ("msr", "--multiplier", "inf"),
    ("msr", "--multiplier", "nan"),
    ("resample", "--multiplier", "inf"),
    ("resample", "--multiplier", "nan"),
    ("msr", "--multiplier", "1e9"),
    ("resample", "--multiplier", "1e300"),
    ("msr", "--size", "1000001"),
    ("resample", "--size", "-1"),
])
def test_augment_refuses_sizes_past_the_cap(capsys, tmp_path, flags):
    src, tgt = toy_corpus_files(tmp_path)
    out = tmp_path / "aug"
    mode, *rest = flags
    code, stdout, err = run(capsys, "augment", mode, src, tgt, *rest,
                            "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert stdout == "" and not out.exists()


def test_length_caps_and_split_sizes_are_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "gen-synth", "--train-size", "1000001",
                       "--out", str(tmp_path / "data"))
    assert code == 1 and "split sizes" in err
    assert not (tmp_path / "data").exists()
    src, tgt = toy_corpus_files(tmp_path)
    assert run(capsys, "train", src, tgt, "--out", str(tmp_path))[0] == 0
    for flag, value in (("--max-len-a", "inf"), ("--max-len-a", "nan"),
                        ("--max-len-a", "17"), ("--max-len-b", "1025")):
        code, _, err = run(capsys, "decode", str(tmp_path / "model.json"),
                           src, flag, value, "--out", str(tmp_path / "dec"))
        assert code == 1 and "length-cap" in err
    assert not (tmp_path / "dec").exists()


# the expected token count of a split and msr's expected pick count are
# refused from the flags, before anything is drawn or allocated
def test_token_and_pick_caps_are_usage_errors(capsys, tmp_path):
    code, stdout, err = run(capsys, "gen-synth", "--length-law",
                            "uniform(100000, 200000)", "--train-size",
                            "1000000", "--out", str(tmp_path / "data"))
    assert code == 1 and "expects more than 50000000 tokens" in err
    assert stdout == "" and not (tmp_path / "data").exists()
    src, tgt = toy_corpus_files(tmp_path)
    code, stdout, err = run(capsys, "augment", "msr", src, tgt,
                            "--n", "100000000000", "--size", "3",
                            "--out", str(tmp_path / "aug"))
    assert code == 1 and "more than 10000000 pair picks" in err
    assert "Traceback" not in err
    assert stdout == "" and not (tmp_path / "aug").exists()


# sha256 of every file the chain below writes, as written by the list-based
# corpus code that preceded the id arrays
CHAIN_SHA256 = {
    "baseline.json": "0bd4bf27a760bd6fd40562c8dfafc9f61ea1850f3f304c18402aace517380a47",
    "dev.src": "c11683c93b97340276296ca436678c5a9cda65729e5424182439891791ff88bd",
    "dev.tgt": "2bd5641ef786c6d44dc4e0a7d56d766fd1d3bbd87aa32d41a72d13cb9fb7000b",
    "msr.json": "f649c1175e4cc1086a33ec74d0ddb33968956c9668be857b6bdb68f9d075a340",
    "resample.json": "a592c158566e4f382efec9bea287779623c9fcd303616ed303b355cb96a22479",
    "test.src": "20681de1af2237d5eea2da7817408c1b80433d1e74ed8ead6a95325eeb71252f",
    "test.tgt": "2ed364a1836f1833383a9a57ca6aa06b3efce7853838a3a26c67031652ceb236",
    "train.src": "e0e92983c01f1186acb2846d01fc52e058b88a439a1d866563ccfb58ce085bf5",
    "train.tgt": "6ac9eb18f4b452c1d1cf8c02ff999259927a4f3316196968094a5c7556d4c605",
    "train_msr.prov": "2a881e66703a00a9a458dfe815343851ebcb5781d927f9310895f29edb7695be",
    "train_msr.src": "64119692cff59758bf83e26ce550e0793efefb98102edc99cc55694b291a07cb",
    "train_msr.tgt": "ce9c281286851e04af5ebcdda0b0eba0bcccd77db898f6c04a5a2dd1cf578bf0",
    "train_resample.prov": "2232fd55fffb423ab9f2e79657ed85973e1cb288d41db99a66ee16c5e8ba5dfc",
    "train_resample.src": "3ede4a28cf2e425ecce5bacbc71e71c90da2bbe093bb8561ee86faf537f5e8eb",
    "train_resample.tgt": "2b3ebf9dd1a403f597c6b02a478ca8d5598a4f7feec0e2f7d4ecb13338cefc03",
}


def test_corpus_chain_outputs_are_byte_pinned(capsys, tmp_path):
    d = str(tmp_path)
    steps = [
        ("gen-synth", "--vocab-size", "20", "--train-size", "60",
         "--dev-size", "5", "--test-size", "7", "--seed", "11"),
        ("augment", "msr", d + "/train.src", d + "/train.tgt", "--n", "3",
         "--multiplier", "2.5", "--seed", "5"),
        ("augment", "resample", d + "/train.src", d + "/train.tgt",
         "--size", "90", "--seed", "6"),
        ("train", d + "/train.src", d + "/train.tgt", "--name", "baseline"),
        # these min counts map the rarest tokens to UNK
        ("train", d + "/train_msr.src", d + "/train_msr.tgt", "--order", "2",
         "--min-count", "30", "--name", "msr"),
        ("train", d + "/train_resample.src", d + "/train_resample.tgt",
         "--min-count", "20", "--name", "resample"),
    ]
    for argv in steps:
        assert run(capsys, *argv, "--out", d)[0] == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in os.listdir(d)}
    assert got == CHAIN_SHA256
    assert len(load_model(tmp_path / "msr.json").source_vocab) == 23
    assert 2 in load_model(tmp_path / "resample.json").support


def test_augment_missing_corpus_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "augment", "msr",
                       str(tmp_path / "no.src"), str(tmp_path / "no.tgt"),
                       "--multiplier", "2")
    assert code == 2
    assert err


# ------------------------------------------------------------------------ train

def test_train_writes_loadable_model(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "train", src, tgt, "--order", "2",
                          "--lambda", "0.5", "--out", str(out))
    assert code == 0
    assert "model.json" in stdout
    model = load_model(out / "model.json")
    assert model.order == 2
    assert model.lam == 0.5


def test_train_custom_name(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    code, _, _ = run(capsys, "train", src, tgt, "--name", "msr",
                     "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "msr.json").exists()


# ----------------------------------------------------------------------- decode

def train_toy_model(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path)
    run(capsys, "train", src, tgt, "--out", str(tmp_path))
    return str(tmp_path / "model.json"), src


def test_decode_writes_tsv(capsys, tmp_path):
    model, src = train_toy_model(capsys, tmp_path)
    out = tmp_path / "dec"
    code, stdout, _ = run(capsys, "decode", model, src, "--beam", "4",
                          "--topk", "2", "--out", str(out))
    assert code == 0
    assert "decode_w4_none.tsv" in stdout
    entries = parse_decode_tsv((out / "decode_w4_none.tsv").read_text())
    assert len(entries) == 24
    assert all(1 <= len(group) <= 2 for group in entries)
    assert all(group[0][0] == 1 for group in entries)


def test_decode_normalization_slug_and_jobs_determinism(capsys, tmp_path):
    model, src = train_toy_model(capsys, tmp_path)
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    base = ["decode", model, src, "--beam", "2", "--norm", "by_length:1.0"]
    assert run(capsys, *base, "--out", str(out1), "--jobs", "1")[0] == 0
    assert run(capsys, *base, "--out", str(out2), "--jobs", "2")[0] == 0
    name = "decode_w2_by_length_1.tsv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_decode_refuses_a_width_above_the_candidate_cap(capsys, tmp_path,
                                                       monkeypatch):
    model, src = train_toy_model(capsys, tmp_path)
    calls = []
    monkeypatch.setattr(search.DenseScorer, "mixed_log_rows",
                        lambda *args: calls.append(args))
    # no scorer is built for a width that is refused
    monkeypatch.setattr(search.DenseScorer, "__init__",
                        lambda *args: calls.append(args))
    size = len(load_model(model).support)
    for width in (search.MAX_STEP_CANDIDATES + 1,
                  search.MAX_STEP_CANDIDATES // size + 1):
        code, _, err = run(capsys, "decode", model, src, "--beam",
                           str(width), "--out", str(tmp_path / "dec"))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "dec").exists() or \
        not any((tmp_path / "dec").iterdir())


def test_decode_bad_normalization_is_usage_error(capsys, tmp_path):
    model, src = train_toy_model(capsys, tmp_path)
    code, _, err = run(capsys, "decode", model, src, "--norm", "by_len:1")
    assert code == 1
    assert err


@pytest.mark.parametrize("norm", ["by_length:nan", "by_length:inf",
                                  "gnmt:inf", "gnmt:-inf", "gnmt:nan"])
def test_decode_rejects_non_finite_alpha(capsys, tmp_path, norm):
    model, src = train_toy_model(capsys, tmp_path)
    out = tmp_path / "dec"
    code, _, err = run(capsys, "decode", model, src, "--norm", norm,
                       "--out", str(out))
    assert code == 1
    assert "finite" in err
    assert "Traceback" not in err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("norm", ["by_length:1.0000001", "by_length:1e-320"])
def test_decode_refuses_an_alpha_its_file_name_would_change(capsys, tmp_path,
                                                            norm):
    model, src = train_toy_model(capsys, tmp_path)
    out = tmp_path / "dec"
    code, _, err = run(capsys, "decode", model, src, "--norm", norm,
                       "--out", str(out))
    assert code == 1
    assert "six significant digits" in err
    assert not out.exists() or not os.listdir(out)


def test_decode_writes_negative_zero_alpha_as_zero(capsys, tmp_path):
    model, src = train_toy_model(capsys, tmp_path)
    code, stdout, _ = run(capsys, "decode", model, src, "--norm",
                          "by_length:-0", "--out", str(tmp_path / "dec"))
    assert code == 0
    assert stdout.strip().endswith("decode_w4_by_length_0.tsv")


@pytest.mark.parametrize("topk", ["0", "-1"])
def test_decode_rejects_topk_below_one(capsys, tmp_path, topk):
    model, src = train_toy_model(capsys, tmp_path)
    out = tmp_path / "dec"
    code, _, err = run(capsys, "decode", model, src, "--topk", topk,
                       "--out", str(out))
    assert code == 1
    assert "--topk" in err
    assert not out.exists() or not os.listdir(out)


@pytest.fixture(scope="module")
def toy_decode_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("norm")
    src, tgt = toy_corpus_files(tmp_path, reps=1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", src, tgt, "--out", str(tmp_path)]) == 0
    return str(tmp_path / "model.json"), src, str(tmp_path / "dec")


ALPHA_TEXT = st.one_of(
    st.floats(0, 1e308).map(repr), st.integers(0, 500).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e309", "-0", "1e-400", ""]),
    st.text(max_size=6))


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["by_length", "gnmt"]),
              ALPHA_TEXT),
    st.sampled_from(["none", "None", ":", "gnmt", "by_length:1:2"]),
    st.text(max_size=12)))
def test_decode_norm_text_exits_0_or_1(toy_decode_inputs, text):
    # any alpha from 0 to 1e308, non-finite ones and junk: a usage error
    # or a decode file, never a traceback
    model, src, out = toy_decode_inputs
    try:
        parse_normalization(text)
        want = 0
    except ValueError:
        want = 1
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["decode", model, src, "--beam", "2",
                         "--norm=" + text, "--out", out])
    assert code == want
    if code:
        assert err.getvalue().startswith("error: ")


def test_decode_rejects_blank_source_line(capsys, tmp_path):
    model, _ = train_toy_model(capsys, tmp_path)
    bad = tmp_path / "bad.src"
    bad.write_text("s0 s1\n\ns2\n", encoding="utf-8")
    code, _, _ = run(capsys, "decode", model, str(bad),
                     "--out", str(tmp_path))
    assert code == 2


def _first_row(table):
    return table[min(table)]


def _edit_first_count(value):
    def edit(blob):
        row = _first_row(blob["lex_counts"])
        row[min(row)] = value
    return edit


def _add_ngram_key(key_fn):
    def edit(blob):
        base = 3 + len(blob["target_vocab"])
        blob["ngram_counts"][key_fn(base)] = {"1": 1}
    return edit


def _set_first_lex_row(row):
    def edit(blob):
        blob["lex_counts"][min(blob["lex_counts"])] = row
    return edit


# each edit makes a model file that `beamlab decode` must refuse with exit 2
MALFORMED_MODELS = {
    "row_is_a_list": _set_first_lex_row([1, 2]),
    "negative_count": _edit_first_count(-1),
    "float_count": _edit_first_count(2.0),
    "boolean_count": _edit_first_count(True),
    "support_id_outside_vocabulary": lambda blob: blob["support"].append(
        3 + len(blob["target_vocab"])),
    "counted_token_outside_support": _set_first_lex_row({"0": 1}),
    "context_key_too_short": _add_ngram_key(lambda base: "0"),
    "context_key_too_long": _add_ngram_key(lambda base: "0 0 0"),
    "context_id_outside_vocabulary": _add_ngram_key(
        lambda base: "0 %d" % base),
    "negative_context_id": _add_ngram_key(lambda base: "0 -1"),
    "source_key_outside_vocabulary": lambda blob: blob["lex_counts"].update(
        {str(3 + len(blob["source_vocab"])): {"1": 1}}),
    "lambda_is_a_bool": lambda blob: blob.update({"lambda": True}),
    "add_k_lex_is_a_bool": lambda blob: blob.update({"add_k_lex": True}),
    "source_vocab_is_a_string": lambda blob: blob.update(
        {"source_vocab": "".join(blob["source_vocab"])}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_decode_refuses_malformed_model(capsys, tmp_path, case):
    model, src = train_toy_model(capsys, tmp_path)
    blob = json.loads(Path(model).read_text())
    assert blob["order"] == 3
    MALFORMED_MODELS[case](blob)
    Path(model).write_text(json.dumps(blob))
    out = tmp_path / "dec"
    code, stdout, err = run(capsys, "decode", model, src, "--out", str(out))
    assert code == 2
    assert err.startswith("error: bad model file")
    assert "Traceback" not in err
    assert not out.exists() or not os.listdir(out)


def test_decode_refuses_a_model_file_that_is_not_utf8(capsys, tmp_path):
    model, src = train_toy_model(capsys, tmp_path)
    data = bytearray(Path(model).read_bytes())
    data[100] = 0xc9
    Path(model).write_bytes(bytes(data))
    out = tmp_path / "dec"
    code, _, err = run(capsys, "decode", model, src, "--out", str(out))
    assert code == 2
    assert err.startswith("error: corrupt model file %s: " % model)
    assert not out.exists() or not os.listdir(out)


# --------------------------------------------------------------------- evaluate

def test_evaluate_bleu_identity(capsys, tmp_path):
    sents = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
    hyps = write_lines(tmp_path / "hyps.txt", sents)
    refs = write_lines(tmp_path / "refs.txt", sents)
    code, stdout, _ = run(capsys, "evaluate", "bleu", hyps, refs)
    assert code == 0
    blob = json.loads(stdout)
    assert blob["metric"] == "bleu"
    assert blob["score"] == pytest.approx(100.0)
    assert blob["n_sentences"] == 2
    assert blob["breakdown"]["precisions"] == [1.0, 1.0, 1.0, 1.0]
    assert blob["breakdown"]["brevity_penalty"] == 1.0


def test_evaluate_reads_rank1_from_decode_tsv(capsys, tmp_path):
    tsv = tmp_path / "hyps.tsv"
    tsv.write_text("1\t-0.5\t-0.5\ta b c d\n"
                   "2\t-0.9\t-0.9\twrong one\n"
                   "1\t-0.1\t-0.1\te f\n", encoding="utf-8")
    refs = write_lines(tmp_path / "refs.txt", [["a", "b", "c", "d"], ["e", "f"]])
    code, stdout, _ = run(capsys, "evaluate", "bleu", str(tsv), refs)
    assert code == 0
    assert json.loads(stdout)["score"] == pytest.approx(100.0)


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_lines_end_only_at_line_breaks(capsys, tmp_path, char):
    # each character inside a line of the references, of a decode file and
    # of a corpus: it separates tokens, and the files keep two lines
    refs = tmp_path / "refs.txt"
    refs.write_text("a%sb c d\ne f g h\n" % char, encoding="utf-8")
    tsv = tmp_path / "hyps.tsv"
    tsv.write_text("1\t-0.5\t-0.5\ta b%sc d\n1\t-0.1\t-0.1\te f g h\n"
                   % char, encoding="utf-8")
    assert parse_decode_tsv(tsv.read_text(encoding="utf-8"))[0] == [
        (1, -0.5, -0.5, ["a", "b", "c", "d"])]
    hyps = write_lines(tmp_path / "hyps.txt", [["a", "b", "c", "d"],
                                               ["e", "f", "g", "h"]])
    for path in (hyps, str(tsv)):
        code, stdout, _ = run(capsys, "evaluate", "bleu", path, str(refs))
        assert code == 0
        blob = json.loads(stdout)
        assert blob["n_sentences"] == 2
        assert blob["score"] == pytest.approx(100.0)
    code, stdout, _ = run(capsys, "analyze", "histogram", str(refs), hyps,
                          "--side", "source", "--bucket-width", "1")
    assert code == 0
    # both sources hold 4 tokens
    assert stdout.splitlines()[-2:] == ["4,5,2", "# mean=4.0 total=2"]


# decode files whose ranks do not run 1, 2, 3, ... within each input, with
# the line that breaks the order
BAD_RANKS = {
    "lines_reversed": (["2\t-0.9\t-0.9\twrong", "1\t-0.5\t-0.5\ta b",
                        "2\t-0.8\t-0.8\tc", "1\t-0.1\t-0.1\te f"], 1),
    "rank_skipped": (["1\t-0.5\t-0.5\ta b", "5\t-0.8\t-0.8\tc",
                      "3\t-0.9\t-0.9\td"], 2),
    "rank_zero": (["1\t-0.5\t-0.5\ta b", "0\t-0.8\t-0.8\tc"], 2),
    "rank_negative": (["1\t-0.5\t-0.5\ta b", "-3\t-0.8\t-0.8\tc"], 2),
    "rank_repeated": (["1\t-0.5\t-0.5\ta b", "2\t-0.8\t-0.8\tc",
                       "2\t-0.9\t-0.9\td"], 3),
}


@pytest.mark.parametrize("case", sorted(BAD_RANKS))
def test_evaluate_refuses_decode_ranks_out_of_order(capsys, tmp_path, case):
    lines, bad = BAD_RANKS[case]
    tsv = tmp_path / "hyps.tsv"
    tsv.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    refs = write_lines(tmp_path / "refs.txt", [["a", "b"], ["e", "f"]])
    code, _, err = run(capsys, "evaluate", "bleu", str(tsv), refs)
    assert code == 2
    assert err.startswith("error: %s is not a decode file: line %d: rank "
                          % (tsv, bad))


def test_evaluate_wer_counts(capsys, tmp_path):
    hyps = write_lines(tmp_path / "h.txt", [["a", "x", "c"]])
    refs = write_lines(tmp_path / "r.txt", [["a", "b", "c"]])
    code, stdout, _ = run(capsys, "evaluate", "wer", hyps, refs)
    assert code == 0
    blob = json.loads(stdout)
    assert blob["metric"] == "wer"
    assert blob["score"] == pytest.approx(1 / 3)
    assert blob["breakdown"] == {"substitutions": 1, "insertions": 0,
                                 "deletions": 0, "ref_len": 3}


def test_evaluate_misaligned_is_data_error(capsys, tmp_path):
    hyps = write_lines(tmp_path / "h.txt", [["a"], ["b"]])
    refs = write_lines(tmp_path / "r.txt", [["a"]])
    code, _, _ = run(capsys, "evaluate", "bleu", hyps, refs)
    assert code == 2


def test_evaluate_bootstrap_ties_and_determinism(capsys, tmp_path):
    sents = [["a", "b", "c", "d"], ["e", "f", "g", "h"]] * 3
    hyps = write_lines(tmp_path / "h.txt", sents)
    refs = write_lines(tmp_path / "r.txt", sents)
    args = ("evaluate", "bootstrap", hyps, hyps, refs,
            "--n-resamples", "200", "--seed", "5")
    code, first, _ = run(capsys, *args)
    assert code == 0
    blob = json.loads(first)
    assert blob["metric"] == "bleu"
    assert blob["ties"] == 200
    assert blob["p_value"] == pytest.approx(1.0)
    assert blob["score_a"] == blob["score_b"]
    assert blob["seed"] == 5
    code, second, _ = run(capsys, *args)
    assert first == second


def test_evaluate_bootstrap_wer_direction(capsys, tmp_path):
    refs_sents = [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]] * 2
    bad = [s[:1] for s in refs_sents]
    hyps_a = write_lines(tmp_path / "a.txt", refs_sents)
    hyps_b = write_lines(tmp_path / "b.txt", bad)
    refs = write_lines(tmp_path / "r.txt", refs_sents)
    code, stdout, _ = run(capsys, "evaluate", "bootstrap", hyps_a, hyps_b,
                          refs, "--metric", "wer", "--n-resamples", "100")
    assert code == 0
    blob = json.loads(stdout)
    assert blob["wins_a"] == 100
    assert blob["p_value"] == pytest.approx(0.0)
    assert blob["score_a"] < blob["score_b"]


def test_evaluate_bootstrap_refuses_a_draw_above_the_cap(capsys, tmp_path,
                                                       monkeypatch):
    # six references: 166 resamples fill 996 cells of the draw, 167 ask
    # for 1002
    monkeypatch.setattr(metrics, "MAX_BOOTSTRAP_CELLS", 1000)
    sents = [["a", "b", "c", "d"], ["e", "f", "g", "h"]] * 3
    hyps = write_lines(tmp_path / "h.txt", sents)
    refs = write_lines(tmp_path / "r.txt", sents)
    args = ("evaluate", "bootstrap", hyps, hyps, refs, "--n-resamples")
    code, _, err = run(capsys, *args, "167")
    assert code == 1
    assert "more than 1000" in err and "Traceback" not in err
    code, stdout, _ = run(capsys, *args, "166")
    assert code == 0
    assert json.loads(stdout)["n_resamples"] == 166


@pytest.mark.parametrize("metric", ["bleu", "wer"])
def test_a_pair_both_decodes_share_is_scored_once(capsys, tmp_path,
                                                  monkeypatch, metric):
    refs_sents = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "i"], ["j"]]
    small_sents = [["a", "b", "c"], ["d"], ["f", "g", "x"], ["j"]]
    large_sents = [["a", "b", "c"], ["d", "e", "e"], ["f", "g", "x"], ["k"]]
    refs = write_lines(tmp_path / "r.txt", refs_sents)
    small = write_lines(tmp_path / "s.txt", small_sents)
    large = write_lines(tmp_path / "l.txt", large_sents)
    # sentences 0 and 2 are the same in both decodes
    distinct = sorted(set(
        (tuple(h), tuple(r)) for hyps in (small_sents, large_sents)
        for h, r in zip(hyps, refs_sents)))
    assert len(distinct) == 6
    scored, batches = [], []
    real_stats, real_rows = metrics._bleu_stats, metrics._wer_rows

    def stats(hyp, ref):
        scored.append((tuple(hyp), tuple(ref)))
        return real_stats(hyp, ref)

    def rows(hyps, refs):
        batches.append(len(hyps))
        scored.extend(zip(map(tuple, hyps), map(tuple, refs)))
        return real_rows(hyps, refs)

    monkeypatch.setattr(metrics, "_bleu_stats", stats)
    monkeypatch.setattr(metrics, "_wer_rows", rows)
    for argv in (("evaluate", "bootstrap", small, large, refs,
                  "--n-resamples", "100"),
                 ("analyze", "categories", "--small", small, "--large",
                  large, "--refs", refs)):
        del scored[:], batches[:]
        assert run(capsys, *argv, "--metric", metric)[0] == 0
        assert sorted(scored) == distinct
        assert batches == ([6] if metric == "wer" else [])


# ---------------------------------------------------------------------- analyze

def test_analyze_categories_json(capsys, tmp_path):
    refs_sents = [["a", "b", "c", "d"], ["e", "f", "g"], ["h", "i"]]
    small = write_lines(tmp_path / "small.txt", refs_sents)
    large = write_lines(tmp_path / "large.txt",
                        [["a", "b"], ["e", "f", "g"], ["x", "y"]])
    refs = write_lines(tmp_path / "refs.txt", refs_sents)
    code, stdout, _ = run(capsys, "analyze", "categories",
                          "--small", small, "--large", large, "--refs", refs)
    assert code == 0
    blob = json.loads(stdout)
    by_name = {row["category"]: row for row in blob["categories"]}
    assert by_name["Improved"]["count"] == 1
    assert by_name["Prefix"]["count"] == 1
    assert by_name["OtherDrop"]["count"] == 1
    assert sum(r["fraction"] for r in blob["categories"]) == pytest.approx(1.0)


def test_analyze_categories_csv(capsys, tmp_path):
    sents = [["a", "b", "c"]]
    small = write_lines(tmp_path / "s.txt", sents)
    large = write_lines(tmp_path / "l.txt", sents)
    refs = write_lines(tmp_path / "r.txt", sents)
    code, stdout, _ = run(capsys, "analyze", "categories", "--small", small,
                          "--large", large, "--refs", refs, "--format", "csv")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("category,count,fraction")
    assert len(lines) == 4


def test_analyze_buckets(capsys, tmp_path):
    refs_sents = [["a"] * 3, ["b"] * 5, ["c"] * 9]
    hyps = write_lines(tmp_path / "h.txt", refs_sents)
    refs = write_lines(tmp_path / "r.txt", refs_sents)
    code, stdout, _ = run(capsys, "analyze", "buckets", "--hyps", hyps,
                          "--refs", refs, "--edges", "4,8")
    assert code == 0
    blob = json.loads(stdout)
    assert [b["count"] for b in blob["buckets"]] == [1, 1, 1]
    assert blob["buckets"][-1]["high"] is None
    code, stdout, _ = run(capsys, "analyze", "buckets", "--hyps", hyps,
                          "--refs", refs, "--edges", "4,8", "--format", "csv")
    assert stdout.splitlines()[0] == "bucket_low,bucket_high,count,metric"


@pytest.mark.parametrize("metric", ["bleu", "wer"])
def test_analyze_buckets_refuses_an_empty_reference(capsys, tmp_path, metric):
    # length 0 lies in no (low, high] bucket: the pair used to be dropped
    # from every count, with exit 0
    hyps = write_lines(tmp_path / "h.txt", [["a", "b", "c"], ["d"]])
    refs = write_lines(tmp_path / "r.txt", [["a", "b", "c"], []])
    code, stdout, err = run(capsys, "analyze", "buckets", "--hyps", hyps,
                            "--refs", refs, "--edges", "4,8",
                            "--metric", metric)
    assert (code, stdout) == (2, "")
    assert "reference sentence is empty" in err
    code, _, err = run(capsys, "analyze", "categories", "--small", hyps,
                       "--large", hyps, "--refs", refs, "--metric", metric)
    assert code == 2 and "reference sentence is empty" in err


def test_analyze_lengths(capsys, tmp_path):
    a = write_lines(tmp_path / "a.txt", [["x"] * 4, ["y"] * 6])
    b = write_lines(tmp_path / "b.txt", [["x"] * 2, ["y"] * 2])
    code, stdout, _ = run(capsys, "analyze", "lengths",
                          "--hyps", "w4=%s" % a, "--hyps", "w200=%s" % b)
    assert code == 0
    blob = json.loads(stdout)
    assert blob["means"] == {"w4": 5.0, "w200": 2.0}


def test_analyze_lengths_needs_label(capsys, tmp_path):
    a = write_lines(tmp_path / "a.txt", [["x"]])
    code, _, _ = run(capsys, "analyze", "lengths", "--hyps", a)
    assert code == 1


def test_analyze_lengths_refuses_a_repeated_label(capsys, tmp_path):
    # the second file would replace the first under the same key
    a = write_lines(tmp_path / "a.txt", [["x"] * 4])
    b = write_lines(tmp_path / "b.txt", [["x"] * 2])
    code, stdout, err = run(capsys, "analyze", "lengths",
                            "--hyps", "w4=%s" % a, "--hyps", "w4=%s" % b)
    assert code == 1
    assert stdout == ""
    assert err == "error: --hyps repeats the label 'w4'\n"


def test_analyze_histogram_stdout(capsys, tmp_path):
    src, tgt = toy_corpus_files(tmp_path, reps=1)
    code, stdout, _ = run(capsys, "analyze", "histogram", src, tgt,
                          "--side", "target", "--bucket-width", "2")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "bucket_start,bucket_end,count"
    assert lines[-1].startswith("# mean=")
    # target lengths 4, 3, 5, 2 -> buckets [2,4):2 [4,6):2
    assert lines[2] == "2,4,2"
    assert lines[3] == "4,6,2"


# damaged copies of a decode file and its references: the analysis and
# evaluate commands end with exit 0, 1 or 2, never with an exception

@pytest.fixture(scope="module")
def analysis_inputs(tmp_path_factory):
    """A working directory, and the bytes of a top-2 decode file of the toy
    corpus and of its references."""
    tmp_path = tmp_path_factory.mktemp("damaged")
    src, tgt = toy_corpus_files(tmp_path, reps=2)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", src, tgt, "--out", str(tmp_path)]) == 0
        assert cli.main(["decode", str(tmp_path / "model.json"), src,
                         "--topk", "2", "--name", "good.tsv",
                         "--out", str(tmp_path)]) == 0
    return (tmp_path, (tmp_path / "good.tsv").read_bytes(),
            Path(tgt).read_bytes())


def _damaged(draw, data, numbers_grow=True):
    """A truncated, byte-flipped or line-shuffled copy of `data`. Unless
    `numbers_grow`, the flipped byte is no digit and becomes none, so that no
    number of the copy is larger than in `data`."""
    how = draw(st.sampled_from(["truncate", "flip", "shuffle"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        digits = b"" if numbers_grow else b"0123456789"
        i = draw(st.sampled_from([i for i, b in enumerate(data)
                                  if b not in digits]))
        flip = draw(st.integers(1, 255).filter(
            lambda x: data[i] ^ x not in digits))
        return data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
    return b"".join(draw(st.permutations(data.splitlines(keepends=True))))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_damaged_analysis_inputs_never_raise(analysis_inputs, data):
    tmp_path, tsv, refs = analysis_inputs
    which = data.draw(st.sampled_from(["hyps", "refs", "both"]))
    if which != "refs":
        tsv = _damaged(data.draw, tsv)
    if which != "hyps":
        refs = _damaged(data.draw, refs)
    (tmp_path / "hyps.tsv").write_bytes(tsv)
    (tmp_path / "refs.txt").write_bytes(refs)
    hyps, good, refs = (str(tmp_path / name)
                        for name in ("hyps.tsv", "good.tsv", "refs.txt"))
    for argv in (["evaluate", "bleu", hyps, refs],
                 ["evaluate", "wer", hyps, refs],
                 ["evaluate", "bootstrap", hyps, good, refs,
                  "--n-resamples", "100"],
                 ["analyze", "categories", "--small", good, "--large", hyps,
                  "--refs", refs],
                 ["analyze", "categories", "--small", hyps, "--large", good,
                  "--refs", refs, "--metric", "wer", "--format", "csv"],
                 ["analyze", "buckets", "--hyps", hyps, "--refs", refs,
                  "--edges", "2,4"],
                 ["analyze", "buckets", "--hyps", hyps, "--refs", refs,
                  "--metric", "wer", "--format", "csv"],
                 ["analyze", "lengths", "--hyps", "a=" + hyps,
                  "--hyps", "b=" + good]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        assert code == 0 or err.getvalue().startswith("error: "), argv


# damaged copies of the inputs of train, augment, decode and experiment:
# the flags are valid, so each command ends with exit 0 or 2, never with an
# exception

TINY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tiny.yaml"


def _tiny_defaults():
    """experiment._DEFAULTS with the tiny config's values, so that a damaged
    config that loses a key falls back to its tiny value."""
    def merged(default, value):
        if isinstance(default, dict):
            return {key: merged(sub, value[key]) if key in value else sub
                    for key, sub in default.items()}
        return float(value) if isinstance(default, float) else value
    return merged(experiment._DEFAULTS,
                  yaml.safe_load(TINY_CONFIG.read_text()))


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    """A working directory, and the bytes of the toy corpus sides, of a
    model trained on them and of the tiny config."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    src, tgt = toy_corpus_files(tmp_path, reps=1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", src, tgt, "--order", "2",
                         "--out", str(tmp_path)]) == 0
    return tmp_path, {"src": Path(src).read_bytes(),
                      "tgt": Path(tgt).read_bytes(),
                      "model": (tmp_path / "model.json").read_bytes(),
                      "config": TINY_CONFIG.read_bytes()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_pipeline_inputs_never_raise(pipeline_inputs, data):
    tmp_path, inputs = pipeline_inputs
    which = data.draw(st.sampled_from(sorted(inputs)))
    files = dict(inputs)
    # no config grows past the tiny sizes
    files[which] = _damaged(data.draw, files[which],
                            numbers_grow=which != "config")
    paths = {}
    for name, blob in files.items():
        paths[name] = str(tmp_path / ("damaged." + name))
        Path(paths[name]).write_bytes(blob)
    out = str(tmp_path / "out")
    commands = {
        "src": [["train", paths["src"], paths["tgt"], "--out", out],
                ["augment", "msr", paths["src"], paths["tgt"], "--n", "2",
                 "--size", "12", "--out", out],
                ["augment", "resample", paths["src"], paths["tgt"],
                 "--size", "12", "--out", out],
                ["decode", paths["model"], paths["src"], "--beam", "2",
                 "--topk", "2", "--out", out]],
        "model": [["decode", paths["model"], paths["src"], "--beam", "2",
                   "--out", out]],
        "config": [["experiment", "--config", paths["config"],
                    "--out", str(tmp_path / "exp")]],
    }
    commands["tgt"] = commands["src"][:3]
    with mock.patch.object(experiment, "_DEFAULTS", _tiny_defaults()):
        for argv in commands[which]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2), argv
            assert code == 0 or err.getvalue().startswith("error: "), argv


# the exact CSV bytes of the analyze subcommands, pinned cell by cell

def test_analyze_categories_csv_bytes(capsys, tmp_path):
    refs_sents = [list("abcde"), list("fghij"), list("klmn")]
    small = write_lines(tmp_path / "s.txt", refs_sents)
    large = write_lines(tmp_path / "l.txt",
                        [list("abcde"), list("fghij"), list("kl")])
    refs = write_lines(tmp_path / "r.txt", refs_sents)
    code, stdout, _ = run(capsys, "analyze", "categories", "--small", small,
                          "--large", large, "--refs", refs, "--format", "csv")
    assert code == 0
    assert stdout == (
        "category,count,fraction,metric_small,metric_large,mean_len_small,"
        "mean_len_large,contribution,length_contribution\n"
        "Improved,2,0.6666666666666666,100.0,100.0,5.0,5.0,0.0,0.0\n"
        "Prefix,1,0.3333333333333333,100.0,0.0,4.0,2.0,-33.33333333333333,"
        "-0.6666666666666666\n"
        "OtherDrop,0,0.0,,,,,0.0,0.0\n")


def test_analyze_buckets_csv_bytes(capsys, tmp_path):
    hyps = write_lines(tmp_path / "h.txt",
                       [list("abcde"), list("fghijklm"), list("opq")])
    refs = write_lines(tmp_path / "r.txt",
                       [list("abcde"), list("fghijklmn"), list("opq")])
    code, stdout, _ = run(capsys, "analyze", "buckets", "--hyps", hyps,
                          "--refs", refs, "--edges", "2,4,8", "--format", "csv")
    assert code == 0
    assert stdout == ("bucket_low,bucket_high,count,metric\n"
                      "0,2,0,\n"
                      "2,4,1,0.0\n"
                      "4,8,1,100.0\n"
                      "8,inf,1,88.24969025845955\n")


def test_analyze_histogram_bytes(capsys, tmp_path):
    src = write_lines(tmp_path / "h.src", [["s"], ["s"], ["s"]])
    tgt = write_lines(tmp_path / "h.tgt", [["t"], ["t"] * 2, ["t"] * 7])
    code, stdout, _ = run(capsys, "analyze", "histogram", src, tgt,
                          "--bucket-width", "3")
    assert code == 0
    assert stdout == ("bucket_start,bucket_end,count\n"
                      "0,3,2\n"
                      "3,6,0\n"
                      "6,9,1\n"
                      "# mean=3.3333333333333335 total=3\n")


# CLI outputs on a small fixed corpus, pinned byte for byte (the three
# categories and an empty bucket all occur); the command line is split on
# spaces

PIN_REFS = ["a b c d e f g .", "h i j k .", "l m n o p q r s t u v w .",
            "x y z .", "a c e g i k m o q s u w y .", "b d f h ."]
PIN_SMALL = ["a b c d e f g .", "h i x k .", "l m n o p q r s t u v .",
             "x y z z .", "a c e g i k m o q s u w y .", "b d h ."]
PIN_LARGE = ["a b c d", "h i j k .", "l m n o p", "x .", "a c e x i k m o q",
             "b d f h . ."]

PINNED_OUTPUTS = {
    "evaluate_wer": (
        'evaluate wer large.txt refs.txt',
        '{\n'
        ' "breakdown": {\n'
        '  "deletions": 19,\n'
        '  "insertions": 1,\n'
        '  "ref_len": 49,\n'
        '  "substitutions": 1\n'
        ' },\n'
        ' "metric": "wer",\n'
        ' "n_sentences": 6,\n'
        ' "score": 0.42857142857142855\n'
        '}\n'),
    "evaluate_bleu": (
        'evaluate bleu large.txt refs.txt',
        '{\n'
        ' "breakdown": {\n'
        '  "brevity_penalty": 0.5595372583118381,\n'
        '  "hyp_len": 31,\n'
        '  "precisions": [\n'
        '   0.9354838709677419,\n'
        '   0.84,\n'
        '   0.7894736842105263,\n'
        '   0.6428571428571429\n'
        '  ],\n'
        '  "ref_len": 49\n'
        ' },\n'
        ' "metric": "bleu",\n'
        ' "n_sentences": 6,\n'
        ' "score": 44.465270741516626\n'
        '}\n'),
    "bootstrap_bleu": (
        'evaluate bootstrap small.txt large.txt refs.txt --metric bleu '
        '--n-resamples 200 --seed 3',
        '{\n'
        ' "metric": "bleu",\n'
        ' "n_resamples": 200,\n'
        ' "n_sentences": 6,\n'
        ' "p_value": 0.07999999999999996,\n'
        ' "score_a": 83.37883729809055,\n'
        ' "score_b": 44.465270741516626,\n'
        ' "seed": 3,\n'
        ' "ties": 0,\n'
        ' "wins_a": 184,\n'
        ' "wins_b": 16\n'
        '}\n'),
    "bootstrap_wer": (
        'evaluate bootstrap small.txt large.txt refs.txt --metric wer '
        '--n-resamples 200 --seed 3',
        '{\n'
        ' "metric": "wer",\n'
        ' "n_resamples": 200,\n'
        ' "n_sentences": 6,\n'
        ' "p_value": 0.0050000000000000044,\n'
        ' "score_a": 0.08163265306122448,\n'
        ' "score_b": 0.42857142857142855,\n'
        ' "seed": 3,\n'
        ' "ties": 0,\n'
        ' "wins_a": 199,\n'
        ' "wins_b": 1\n'
        '}\n'),
    "categories_wer_json": (
        'analyze categories --small small.txt --large large.txt --refs '
        'refs.txt --metric wer',
        '{\n'
        ' "categories": [\n'
        '  {\n'
        '   "category": "Improved",\n'
        '   "contribution": -0.03333333333333333,\n'
        '   "count": 2,\n'
        '   "fraction": 0.3333333333333333,\n'
        '   "length_contribution": 0.3333333333333333,\n'
        '   "mean_len_large": 5.5,\n'
        '   "mean_len_small": 4.5,\n'
        '   "metric_large": 0.1,\n'
        '   "metric_small": 0.2\n'
        '  },\n'
        '  {\n'
        '   "category": "Prefix",\n'
        '   "contribution": 0.24000000000000002,\n'
        '   "count": 3,\n'
        '   "fraction": 0.5,\n'
        '   "length_contribution": -2.333333333333334,\n'
        '   "mean_len_large": 3.6666666666666665,\n'
        '   "mean_len_small": 8.333333333333334,\n'
        '   "metric_large": 0.56,\n'
        '   "metric_small": 0.08\n'
        '  },\n'
        '  {\n'
        '   "category": "OtherDrop",\n'
        '   "contribution": 0.07142857142857142,\n'
        '   "count": 1,\n'
        '   "fraction": 0.16666666666666666,\n'
        '   "length_contribution": -0.8333333333333333,\n'
        '   "mean_len_large": 9.0,\n'
        '   "mean_len_small": 14.0,\n'
        '   "metric_large": 0.42857142857142855,\n'
        '   "metric_small": 0.0\n'
        '  }\n'
        ' ],\n'
        ' "metric": "wer",\n'
        ' "n_sentences": 6\n'
        '}\n'),
    "categories_wer_csv": (
        'analyze categories --small small.txt --large large.txt --refs '
        'refs.txt --metric wer --format csv',
        'category,count,fraction,metric_small,metric_large,mean_len_small,'
        'mean_len_large,contribution,length_contribution\n'
        'Improved,2,0.3333333333333333,0.2,0.1,4.5,5.5,'
        '-0.03333333333333333,0.3333333333333333\n'
        'Prefix,3,0.5,0.08,0.56,8.333333333333334,3.6666666666666665,'
        '0.24000000000000002,-2.333333333333334\n'
        'OtherDrop,1,0.16666666666666666,0.0,0.42857142857142855,14.0,9.0,'
        '0.07142857142857142,-0.8333333333333333\n'),
    "buckets_wer_json": (
        'analyze buckets --hyps large.txt --refs refs.txt --edges 4,8,12 '
        '--metric wer',
        '{\n'
        ' "buckets": [\n'
        '  {\n'
        '   "count": 1,\n'
        '   "high": 4,\n'
        '   "low": 0,\n'
        '   "metric": 0.5\n'
        '  },\n'
        '  {\n'
        '   "count": 3,\n'
        '   "high": 8,\n'
        '   "low": 4,\n'
        '   "metric": 0.2777777777777778\n'
        '  },\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": 12,\n'
        '   "low": 8,\n'
        '   "metric": null\n'
        '  },\n'
        '  {\n'
        '   "count": 2,\n'
        '   "high": null,\n'
        '   "low": 12,\n'
        '   "metric": 0.5185185185185185\n'
        '  }\n'
        ' ],\n'
        ' "edges": [\n'
        '  4,\n'
        '  8,\n'
        '  12\n'
        ' ],\n'
        ' "metric": "wer"\n'
        '}\n'),
    "buckets_wer_csv": (
        'analyze buckets --hyps large.txt --refs refs.txt --edges 4,8,12 '
        '--metric wer --format csv',
        'bucket_low,bucket_high,count,metric\n'
        '0,4,1,0.5\n'
        '4,8,3,0.2777777777777778\n'
        '8,12,0,\n'
        '12,inf,2,0.5185185185185185\n'),
    "categories_bleu_json": (
        'analyze categories --small small.txt --large large.txt --refs '
        'refs.txt',
        '{\n'
        ' "categories": [\n'
        '  {\n'
        '   "category": "Improved",\n'
        '   "contribution": 28.759295469634715,\n'
        '   "count": 2,\n'
        '   "fraction": 0.3333333333333333,\n'
        '   "length_contribution": 0.3333333333333333,\n'
        '   "mean_len_large": 5.5,\n'
        '   "mean_len_small": 4.5,\n'
        '   "metric_large": 86.27788640890415,\n'
        '   "metric_small": 0.0\n'
        '  },\n'
        '  {\n'
        '   "category": "Prefix",\n'
        '   "contribution": -30.40927047768775,\n'
        '   "count": 3,\n'
        '   "fraction": 0.5,\n'
        '   "length_contribution": -2.333333333333334,\n'
        '   "mean_len_large": 3.6666666666666665,\n'
        '   "mean_len_small": 8.333333333333334,\n'
        '   "metric_large": 27.08716677818548,\n'
        '   "metric_small": 87.90570773356097\n'
        '  },\n'
        '  {\n'
        '   "category": "OtherDrop",\n'
        '   "contribution": -10.958306107107834,\n'
        '   "count": 1,\n'
        '   "fraction": 0.16666666666666666,\n'
        '   "length_contribution": -0.8333333333333333,\n'
        '   "mean_len_large": 9.0,\n'
        '   "mean_len_small": 14.0,\n'
        '   "metric_large": 34.25016335735299,\n'
        '   "metric_small": 100.0\n'
        '  }\n'
        ' ],\n'
        ' "metric": "bleu",\n'
        ' "n_sentences": 6\n'
        '}\n'),
    "categories_bleu_csv": (
        'analyze categories --small small.txt --large large.txt --refs '
        'refs.txt --format csv',
        'category,count,fraction,metric_small,metric_large,'
        'mean_len_small,mean_len_large,contribution,length_contribution\n'
        'Improved,2,0.3333333333333333,0.0,86.27788640890415,4.5,5.5,'
        '28.759295469634715,0.3333333333333333\n'
        'Prefix,3,0.5,87.90570773356097,27.08716677818548,'
        '8.333333333333334,3.6666666666666665,-30.40927047768775,'
        '-2.333333333333334\n'
        'OtherDrop,1,0.16666666666666666,100.0,34.25016335735299,'
        '14.0,9.0,-10.958306107107834,-0.8333333333333333\n'),
    "buckets_bleu_json": (
        'analyze buckets --hyps large.txt --refs refs.txt',
        '{\n'
        ' "buckets": [\n'
        '  {\n'
        '   "count": 4,\n'
        '   "high": 10,\n'
        '   "low": 0,\n'
        '   "metric": 65.30748889720752\n'
        '  },\n'
        '  {\n'
        '   "count": 2,\n'
        '   "high": 20,\n'
        '   "low": 10,\n'
        '   "metric": 28.50375531563209\n'
        '  },\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": 30,\n'
        '   "low": 20,\n'
        '   "metric": null\n'
        '  },\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": 40,\n'
        '   "low": 30,\n'
        '   "metric": null\n'
        '  },\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": 50,\n'
        '   "low": 40,\n'
        '   "metric": null\n'
        '  },\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": 60,\n'
        '   "low": 50,\n'
        '   "metric": null\n'
        '  },\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": null,\n'
        '   "low": 60,\n'
        '   "metric": null\n'
        '  }\n'
        ' ],\n'
        ' "edges": [\n'
        '  10,\n'
        '  20,\n'
        '  30,\n'
        '  40,\n'
        '  50,\n'
        '  60\n'
        ' ],\n'
        ' "metric": "bleu"\n'
        '}\n'),
    "buckets_bleu_csv": (
        'analyze buckets --hyps large.txt --refs refs.txt --format csv',
        'bucket_low,bucket_high,count,metric\n'
        '0,10,4,65.30748889720752\n'
        '10,20,2,28.50375531563209\n'
        '20,30,0,\n'
        '30,40,0,\n'
        '40,50,0,\n'
        '50,60,0,\n'
        '60,inf,0,\n'),
    "buckets_bleu_edges_json": (
        'analyze buckets --hyps small.txt --refs refs.txt --edges 3,6',
        '{\n'
        ' "buckets": [\n'
        '  {\n'
        '   "count": 0,\n'
        '   "high": 3,\n'
        '   "low": 0,\n'
        '   "metric": null\n'
        '  },\n'
        '  {\n'
        '   "count": 3,\n'
        '   "high": 6,\n'
        '   "low": 3,\n'
        '   "metric": 0.0\n'
        '  },\n'
        '  {\n'
        '   "count": 3,\n'
        '   "high": null,\n'
        '   "low": 6,\n'
        '   "metric": 94.46822701526305\n'
        '  }\n'
        ' ],\n'
        ' "edges": [\n'
        '  3,\n'
        '  6\n'
        ' ],\n'
        ' "metric": "bleu"\n'
        '}\n'),
    "buckets_bleu_edges_csv": (
        'analyze buckets --hyps small.txt --refs refs.txt --edges 3,6 '
        '--format csv',
        'bucket_low,bucket_high,count,metric\n'
        '0,3,0,\n'
        '3,6,3,0.0\n'
        '6,inf,3,94.46822701526305\n'),
    "lengths": (
        'analyze lengths --hyps w4=small.txt --hyps w200=large.txt '
        '--hyps refs=refs.txt',
        '{\n'
        ' "means": {\n'
        '  "refs": 8.166666666666666,\n'
        '  "w200": 5.166666666666667,\n'
        '  "w4": 8.0\n'
        ' }\n'
        '}\n'),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_cli_output_bytes_pinned(capsys, tmp_path, monkeypatch, case):
    for name, lines in (("refs", PIN_REFS), ("small", PIN_SMALL),
                        ("large", PIN_LARGE)):
        write_lines(tmp_path / (name + ".txt"), [s.split() for s in lines])
    monkeypatch.chdir(tmp_path)
    command, expected = PINNED_OUTPUTS[case]
    code, stdout, _ = run(capsys, *command.split())
    assert code == 0
    assert stdout == expected


# ------------------------------------------------------------------- experiment

EXPERIMENT_YAML = """\
seed: 11
systems: [baseline]
synth:
  vocab_size: 8
  length_law: "uniform(2, 6)"
  noise_prob: 0.05
  train_size: 60
  dev_size: 4
  test_size: 12
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


def test_experiment_subcommand(capsys, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(EXPERIMENT_YAML, encoding="utf-8")
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "experiment", "--config", str(config),
                          "--out", str(out))
    assert code == 0
    assert (out / "manifest.json").exists()
    assert "manifest.json" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11


def test_experiment_requires_config(capsys, tmp_path):
    code, _, err = run(capsys, "experiment", "--out", str(tmp_path))
    assert code == 1
    assert "config" in err


def test_experiment_missing_config_is_data_error(capsys, tmp_path):
    code, _, _ = run(capsys, "experiment", "--config",
                     str(tmp_path / "ghost.yaml"), "--out", str(tmp_path))
    assert code == 2


def test_experiment_bad_config_value_is_data_error(capsys, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(EXPERIMENT_YAML.replace(
        'normalizations: ["none"]', "normalizations: [5]"), encoding="utf-8")
    out = tmp_path / "run"
    code, _, err = run(capsys, "experiment", "--config", str(config),
                       "--out", str(out))
    assert code == 2
    assert err.startswith(
        "error: config: decode.normalizations[0] must be a string, got 5")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("old, new", [
    ("  multiplier: 2\n", "  multiplier: .inf\n"),
    ("  multiplier: 2\n", "  multiplier: .nan\n"),
    ("  order: 2\n", "  order: 40\n"),
    ("  train_size: 60\n", "  train_size: 5000000\n"),
    # each of these passed config load and failed at a later stage
    ("  order: 2\n", "  order: 2\n  lambda: 1.5\n"),
    ("  order: 2\n", "  order: 2\n  add_k_lex: 0\n"),
    ("  order: 2\n", "  order: 2\n  add_k_lex: .inf\n"),
    ("  vocab_size: 8\n", "  vocab_size: 8\n  zipf_exponent: .nan\n"),
    ("  bucket_edges: [4, 8]\n", "  bucket_edges: [4, .nan]\n"),
    ('["none"]', '["by_length:400"]'),
    ('["none"]', '["gnmt:1e300"]'),
    ("  widths: [1, 4]\n", "  widths: [1, 4, 10000001]\n"),
    ('["none"]', '["none", "by_length:1", "by_length:1.0"]'),
    ('["none"]', '["by_length:1.0000001"]'),
    ("  multiplier: 2\n", "  multiplier: 2\n  n_sweep: [2, 2]\n"),
])
def test_experiment_resource_knob_is_data_error_before_any_write(
        capsys, tmp_path, old, new):
    config = tmp_path / "exp.yaml"
    assert old in EXPERIMENT_YAML
    config.write_text(EXPERIMENT_YAML.replace(old, new), encoding="utf-8")
    out = tmp_path / "run"
    code, _, err = run(capsys, "experiment", "--config", str(config),
                       "--out", str(out))
    assert code == 2
    assert err.startswith("error: config: ") and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_experiment_non_finite_alpha_is_data_error(capsys, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(EXPERIMENT_YAML.replace(
        'normalizations: ["none"]', 'normalizations: ["by_length:nan"]'),
        encoding="utf-8")
    out = tmp_path / "run"
    code, _, err = run(capsys, "experiment", "--config", str(config),
                       "--out", str(out))
    assert code == 2
    assert err.startswith("error: config: bad normalization 'by_length:nan'")
    assert "finite" in err
    assert not out.exists() or not any(out.iterdir())


def test_experiment_seed_override_via_flag(capsys, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(EXPERIMENT_YAML, encoding="utf-8")
    out = tmp_path / "run"
    code, _, _ = run(capsys, "experiment", "--config", str(config),
                     "--out", str(out), "--seed", "42")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


# --------------------------------------------------------------- console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_help(tmp_path):
    # Run the declared `beamlab` entry point the way the installed wrapper
    # does, against the beamlab package this suite imported; the wrapper
    # itself exists on PATH only after an install.
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["beamlab"]
    module, _, func = target.partition(":")
    code = "import sys; from {0} import {1}; sys.exit({1}())".format(module,
                                                                    func)
    package_root = str(Path(beamlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 0
    assert "experiment" in proc.stdout
