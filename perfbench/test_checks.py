"""Hand-computed cases for the benchmark's checkers, layer accounting and
round statistic.

    python3 -m pytest -q perfbench
"""

import math
import shutil
import subprocess

import pytest

import checks
import run
import tracing


def test_bleu_precisions_of_one_sentence():
    # p1..p4 = 4/5, 3/4, 2/3, 1/2, product 1/5, no brevity penalty
    score = checks.corpus_bleu([["a", "b", "c", "d", "e"]],
                               [["a", "b", "c", "d", "f"]])
    assert score == pytest.approx(100 * 0.2 ** 0.25, abs=1e-12)


def test_bleu_brevity_penalty():
    score = checks.corpus_bleu([["a", "b", "c", "d"]],
                               [["a", "b", "c", "d", "e", "f", "g", "h"]])
    assert score == pytest.approx(100 * math.exp(-1.0), abs=1e-12)


def test_bleu_sums_counts_over_the_corpus_before_dividing():
    # 4+0 / 8, 3+0 / 6, 2+0 / 4, 1+0 / 2: every precision is 1/2
    score = checks.corpus_bleu([["a", "b", "c", "d"], ["w", "x", "y", "z"]],
                               [["a", "b", "c", "d"], ["a", "b", "c", "d"]])
    assert score == pytest.approx(50.0, abs=1e-12)


def test_bleu_is_zero_without_a_four_gram():
    assert checks.corpus_bleu([["a", "b", "c"]], [["a", "b", "c"]]) == 0.0
    assert checks.corpus_bleu([[]], [["a"]]) == 0.0


def test_levenshtein_and_corpus_wer():
    assert checks.levenshtein(list("kitten"), list("sitting")) == 3
    assert checks.levenshtein(["a", "b", "c"], []) == 3
    assert checks.levenshtein([], ["a"]) == 1
    # one substitution, one deletion over four reference tokens
    assert checks.corpus_wer([["a", "b"], ["c"]],
                             [["a", "c"], ["c", "d"]]) == 0.5


# source "s" -> target "x" once, order 2, lambda 0.5, add-k 1, support
# {EOS, x, y}: lexical row of s is {x: 1, EOS: 1}, bigram rows are
# BOS -> x and x -> EOS
TINY_MODEL = {
    "format": "beamlab.model", "format_version": 1, "order": 2,
    "add_k_lex": 1.0, "add_k_ngram": 1.0, "lambda": 0.5,
    "source_vocab": ["s"], "target_vocab": ["x", "y"], "support": [1, 3, 4],
    "lex_counts": {"3": {"1": 1, "3": 1}},
    "ngram_counts": {"0": {"3": 1}, "3": {"1": 1}},
}


def test_rescoring_follows_the_model_formula():
    model = checks.CountModel(TINY_MODEL)
    assert model.count_totals() == (2, 2)
    # p(x | s, BOS) = .5 * 2/5 + .5 * 2/4 and p(EOS | s, x) the same
    assert model.logprob(["s"], ["x"]) == pytest.approx(2 * math.log(0.45),
                                                        abs=1e-12)
    # unknown source token: no lexical row, so p_lex = 1/3 everywhere
    assert model.logprob(["q"], []) == pytest.approx(
        math.log(0.5 / 3 + 0.5 * 0.25), abs=1e-12)


def test_greedy_stops_when_eos_ranks_first():
    model = checks.CountModel(TINY_MODEL)
    tokens, logprob = model.greedy(["s"], cap=5)
    assert tokens == ["x"]
    assert logprob == pytest.approx(2 * math.log(0.45), abs=1e-12)


def test_greedy_breaks_ties_toward_the_smaller_id():
    blob = dict(TINY_MODEL, lex_counts={}, ngram_counts={})
    # every id has probability 1/3; EOS has the smallest id
    assert checks.CountModel(blob).greedy(["s"], cap=5) == \
        ([], pytest.approx(math.log(1 / 3), abs=1e-12))
    # x and y tie above EOS at every step: x wins, then the cap forces EOS
    blob = dict(TINY_MODEL, lex_counts={"3": {"3": 1, "4": 1}},
                ngram_counts={})
    tokens, logprob = checks.CountModel(blob).greedy(["s"], cap=2)
    assert tokens == ["x", "x"]
    assert logprob == pytest.approx(
        2 * math.log(0.5 * 0.4 + 0.5 / 3) + math.log(0.5 * 0.2 + 0.5 / 3),
        abs=1e-12)


def test_normalized_scores_and_length_cap():
    assert checks.normalized(-6.0, 3, "none") == -6.0
    assert checks.normalized(-6.0, 3, "by_length:1") == -2.0
    assert checks.normalized(-6.0, 3, "gnmt:1") == pytest.approx(-4.5)
    assert checks.length_cap(7, 2.0, 10) == 24
    assert checks.length_cap(3, 1.5, 0) == 5


def test_decode_tsv_reads_rank_one_lines(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("1\t-0.5\t-1.0\tt1 t2\n"
                    "2\t-0.7\t-1.4\tt1\n"
                    "1\t-2.0\t-2.0\t\n")
    assert checks.read_decode_tsv(str(path)) == [(-0.5, -1.0, ["t1", "t2"]),
                                                 (-2.0, -2.0, [])]


@pytest.mark.skipif(not all(shutil.which(tool) for tool in
                            ("bash", "find", "sort", "xargs", "sha256sum",
                             "cut")),
                    reason="needs the coreutils of the shell digest command")
def test_artifact_digest_matches_the_shell_command(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.txt").write_text("beta\n")
    (tmp_path / "a.txt").write_text("alpha\n")
    (tmp_path / "B.txt").write_text("upper\n")
    (tmp_path / "manifest.json").write_text("{}\n")
    shell = subprocess.run(
        ["bash", "-c", "find . -type f ! -name manifest.json | LC_ALL=C sort"
         " | xargs sha256sum | sha256sum | cut -c1-16"],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    assert checks.artifact_digest(str(tmp_path)) == shell.stdout.strip()


def test_layer_metrics_self_time_and_nested_calls():
    spans = [
        ("experiment.run_experiment", 0.0, 10.0, -1, None),
        ("metrics.corpus_wer", 1.0, 4.0, 0, {"pairs": 2}),
        ("metrics.wer", 1.5, 2.5, 1, {"pairs": 1}),
        ("metrics.wer", 2.5, 3.5, 1, {"pairs": 1}),
        ("fileio.write_json_atomic", 5.0, 6.0, 0, {"bytes": 10}),
        ("fileio.write_text_atomic", 5.2, 5.8, 4, {"bytes": 10}),
        ("search.decode_corpus", 6.0, 9.0, 0,
         {"width": 200, "sentences": 6, "hyp_tokens": 30}),
        ("search.mixed_log_rows", 6.5, 7.0, 6, {"rows": 4}),
        ("search.mixed_log_rows", 7.0, 8.0, 6, {"rows": 8}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["metrics.wer_s"] == 3.0
    assert m["metrics.wer_pairs"] == 2
    assert m["fileio.writes"] == 1
    assert m["fileio.write_bytes"] == 10
    assert m["fileio.write_s"] == 1.0
    assert m["search.decode_s.w200"] == 3.0
    assert m["search.score_s"] == 1.5
    assert m["search.select_s"] == 1.5
    assert m["search.steps"] == 2
    assert m["search.rows_scored"] == 12
    assert m["search.sent_per_s.w200"] == 2.0
    assert m["search.hyp_tokens"] == 30
    assert m["experiment.self_s"] == 10.0 - 3.0 - 1.0 - 3.0


def test_round_time_is_the_slowest_round_of_each_input_set():
    # input 0: max 3.0 of three rounds; input 1: max 1.0 of one round
    rounds = [{"input": 0, "wall": 2.0}, {"input": 1, "wall": 1.0},
              {"input": 0, "wall": 3.0}, {"input": 0, "wall": 1.0}]
    assert run.per_round(rounds, "wall") == pytest.approx(2.0, abs=1e-12)
