"""The benchmark's tracer patches beamlab functions by name: a hooked name
that no longer resolves breaks `perfbench/run.py --trace 1` with an
AttributeError at install time, and a count function that no longer fits
the result it reads breaks it at the first traced call. This reads the hook
tables only; nothing is installed."""

import importlib
import importlib.util
import os

import pytest

from beamlab import corpus, model, search

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked_names():
    tracing = _tracing()
    module, cls, method = tracing.SCORER
    return [(m, attr) for m, attr, _ in tracing.HOOKS] + \
        [(module, cls + "." + method)]


@pytest.mark.parametrize("module, name", _hooked_names())
def test_every_traced_name_resolves(module, name):
    owner = importlib.import_module("beamlab." + module)
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_decode_corpus_counts_read_a_real_result():
    # the count function reads the result's shape: one DecodeResult per
    # sentence, best first
    counts_of = {(m, attr): fn for m, attr, fn in _tracing().HOOKS}[
        ("search", "decode_corpus")]
    trained = model.train(corpus.corpus_from_token_pairs(
        [(["a", "b"], ["x", "y"]), (["b"], ["y"]), (["a"], ["x", "x"])]),
        order=2)
    sources = [["a", "b"], ["b"], ["a", "a", "b"]]
    config = search.BeamConfig(width=3)
    result = search.decode_corpus(trained, sources, config)
    want = {"width": 3, "sentences": 3,
            "hyp_tokens": sum(len(r.hypotheses[0].tokens) for r in result)}
    assert want["hyp_tokens"] > 0
    assert counts_of((trained, sources, config), {}, result) == want
    assert counts_of((trained, sources), {"config": config}, result) == want
