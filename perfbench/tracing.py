"""Outside-in tracing of beamlab's public functions.

The tracer patches public functions of each module with wrappers that record
a span (name, start, end, parent) and the counts of the call, and restores
them on uninstall. A function imported by name into another module is
patched there too, so calls through that name are seen. Spans stay in
memory; the caller writes them out when the run ends.

Worker processes of a fork pool inherit the wrappers, but their spans stay in
the workers, so only the parent's calls are recorded.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(args, kwargs, _result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _target_tokens(corpus):
    return sum(len(pair.target) for pair in corpus)


# module, function, counts taken from (args, kwargs, result)
HOOKS = (
    ("corpus", "generate_synthetic",
     lambda a, k, r: {"tokens": sum(_target_tokens(c) for c in r.values())}),
    ("corpus", "save_corpus", None),
    ("augment", "msr", lambda a, k, r: {"tokens": _target_tokens(r)}),
    ("augment", "simple_resample",
     lambda a, k, r: {"tokens": _target_tokens(r)}),
    ("model", "train", lambda a, k, r: {
        "tokens": sum(len(p.target) + 1 for p in _arg(a, k, 0, "corpus"))}),
    ("model", "save_model", lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("model", "load_model", None),
    ("search", "decode_corpus", lambda a, k, r: {
        "width": _arg(a, k, 2, "config").width,
        "sentences": len(r),
        "hyp_tokens": sum(len(res.hypotheses[0].tokens) for res in r)}),
    ("search", "rerank", None),
    ("search", "format_decode_tsv", None),
    ("search", "parse_decode_tsv", None),
    ("metrics", "corpus_bleu",
     lambda a, k, r: {"pairs": len(_arg(a, k, 0, "hyps"))}),
    ("metrics", "sentence_bleu", lambda a, k, r: {"pairs": 1}),
    ("metrics", "corpus_wer",
     lambda a, k, r: {"pairs": len(_arg(a, k, 0, "hyps"))}),
    ("metrics", "wer", lambda a, k, r: {"pairs": 1}),
    ("metrics", "paired_bootstrap", None),
    ("analysis", "classify", None),
    ("analysis", "category_report", None),
    ("analysis", "bucket_quality", None),
    ("fileio", "write_text_atomic", _file_size),
    ("fileio", "write_bytes_atomic", _file_size),
    ("fileio", "write_json_atomic", _file_size),
    ("experiment", "run_experiment", None),
    ("cli", "main", None),
)

# the scoring call of one beam step, patched on its class
SCORER = ("search", "DenseScorer", "mixed_log_rows")

WIDTHS = (1, 4, 32, 200)

# per-layer metric -> unit, in the order the benchmark reports them
LAYER_METRICS = dict(
    [("search.decode_s.w%d" % w, "s") for w in WIDTHS] + [
        ("search.sent_per_s.w200", "1/s"),
        ("search.score_s", "s"),
        ("search.select_s", "s"),
        ("search.steps", "count"),
        ("search.rows_scored", "count"),
        ("search.rerank_s", "s"),
        ("search.tsv_s", "s"),
        ("search.hyp_tokens", "count"),
        ("model.train_s", "s"),
        ("model.train_tokens", "count"),
        ("model.train_tokens_per_s", "1/s"),
        ("model.save_s", "s"),
        ("model.save_bytes", "bytes"),
        ("model.load_s", "s"),
        ("augment.msr_s", "s"),
        ("augment.resample_s", "s"),
        ("augment.tokens_out", "count"),
        ("metrics.bleu_s", "s"),
        ("metrics.bleu_pairs", "count"),
        ("metrics.wer_s", "s"),
        ("metrics.wer_pairs", "count"),
        ("metrics.bootstrap_s", "s"),
        ("analysis.classify_s", "s"),
        ("analysis.category_report_s", "s"),
        ("analysis.bucket_quality_s", "s"),
        ("corpus.generate_s", "s"),
        ("corpus.tokens", "count"),
        ("corpus.save_s", "s"),
        ("fileio.writes", "count"),
        ("fileio.write_bytes", "bytes"),
        ("fileio.write_s", "s"),
        ("experiment.self_s", "s"),
        ("cli.self_s", "s"),
        ("trace.overhead_s", "s"),
    ])


class Tracer:
    """Records spans while installed. `spans` holds tuples
    (name, start, end, parent index or -1, counts or None)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, count_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent, None)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            counts = count_fn(args, kwargs, result) if count_fn else None
            spans[index] = (name, start, end, parent, counts)
            return result
        return wrapper

    def install(self):
        for module_name, _attr, _count_fn in HOOKS:
            importlib.import_module("beamlab." + module_name)
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "beamlab" or key.startswith("beamlab.")]
        for module_name, attr, count_fn in HOOKS:
            home = sys.modules["beamlab." + module_name]
            original = getattr(home, attr)
            wrapper = self._wrap(original, "%s.%s" % (module_name, attr),
                                 count_fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        module_name, cls_name, method = SCORER
        cls = getattr(sys.modules["beamlab." + module_name], cls_name)
        original = cls.__dict__[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self._wrap(
            original, "search.mixed_log_rows",
            lambda a, k, r: {"rows": len(_arg(a, k, 2, "contexts"))}))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def take_spans(self):
        """The spans recorded so far; the next span gets index 0 again."""
        taken = list(self.spans)
        del self.spans[:]
        return taken


def layer_metrics(spans):
    """Per-layer metrics of one traced round (see LAYER_METRICS). A layer's
    self time excludes the time of child spans; a call nested in another
    call of the same layer (corpus_wer calling wer, write_json_atomic calling
    write_text_atomic) is counted once, through the outer call."""
    child_time = [0.0] * len(spans)
    score_time = [0.0] * len(spans)
    has_score = [False] * len(spans)
    layers_above = []
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "search.mixed_log_rows":
                score_time[parent] += end - start
                has_score[parent] = True
            parent_name = spans[parent][0]
            layers_above.append(layers_above[parent]
                                | {parent_name.split(".")[0]})
        else:
            layers_above.append(frozenset())

    total = defaultdict(float)   # inclusive time of outermost calls per layer
    calls = defaultdict(int)
    self_time = defaultdict(float)
    counts = defaultdict(float)
    m = defaultdict(float)
    for i, (name, start, end, _parent, info) in enumerate(spans):
        layer = name.split(".")[0]
        duration = end - start
        self_time[name] += duration - child_time[i]
        if name == "search.mixed_log_rows":
            # a beam step, always inside a decode_corpus call
            m["search.score_s"] += duration
            m["search.steps"] += 1
            m["search.rows_scored"] += (info or {}).get("rows", 0)
            continue
        if layer in layers_above[i]:
            continue
        total[name] += duration
        calls[name] += 1
        for key, value in (info or {}).items():
            if key != "width":
                counts[name + "." + key] += value
        if name == "search.decode_corpus" and info:
            width = info["width"]
            m["search.decode_s.w%d" % width] += duration
            counts["search.sentences.w%d" % width] += info["sentences"]
            if has_score[i]:
                m["search.select_s"] += duration - score_time[i]

    decode_w200 = m["search.decode_s.w200"]
    m["search.sent_per_s.w200"] = (
        counts["search.sentences.w200"] / decode_w200 if decode_w200 else 0.0)
    m["search.rerank_s"] = total["search.rerank"]
    m["search.tsv_s"] = (total["search.format_decode_tsv"]
                         + total["search.parse_decode_tsv"])
    m["search.hyp_tokens"] = counts["search.decode_corpus.hyp_tokens"]
    m["model.train_s"] = total["model.train"]
    m["model.train_tokens"] = counts["model.train.tokens"]
    m["model.train_tokens_per_s"] = (
        m["model.train_tokens"] / m["model.train_s"] if m["model.train_s"]
        else 0.0)
    m["model.save_s"] = total["model.save_model"]
    m["model.save_bytes"] = counts["model.save_model.bytes"]
    m["model.load_s"] = total["model.load_model"]
    m["augment.msr_s"] = total["augment.msr"]
    m["augment.resample_s"] = total["augment.simple_resample"]
    m["augment.tokens_out"] = (counts["augment.msr.tokens"]
                               + counts["augment.simple_resample.tokens"])
    m["metrics.bleu_s"] = (total["metrics.corpus_bleu"]
                           + total["metrics.sentence_bleu"])
    m["metrics.bleu_pairs"] = (counts["metrics.corpus_bleu.pairs"]
                               + counts["metrics.sentence_bleu.pairs"])
    m["metrics.wer_s"] = total["metrics.corpus_wer"] + total["metrics.wer"]
    m["metrics.wer_pairs"] = (counts["metrics.corpus_wer.pairs"]
                              + counts["metrics.wer.pairs"])
    m["metrics.bootstrap_s"] = total["metrics.paired_bootstrap"]
    for fn in ("classify", "category_report", "bucket_quality"):
        m["analysis.%s_s" % fn] = self_time["analysis." + fn]
    m["corpus.generate_s"] = total["corpus.generate_synthetic"]
    m["corpus.tokens"] = counts["corpus.generate_synthetic.tokens"]
    m["corpus.save_s"] = total["corpus.save_corpus"]
    writers = ("fileio.write_text_atomic", "fileio.write_bytes_atomic",
               "fileio.write_json_atomic")
    m["fileio.writes"] = sum(calls[w] for w in writers)
    m["fileio.write_bytes"] = sum(counts[w + ".bytes"] for w in writers)
    m["fileio.write_s"] = sum(total[w] for w in writers)
    m["experiment.self_s"] = self_time["experiment.run_experiment"]
    m["cli.self_s"] = self_time["cli.main"]
    return {name: m[name] for name in LAYER_METRICS if name in m}
