"""One run of one benchmark workload, in the fresh process run.py starts.

Sets the workload up, then makes whole rounds of its timed calls until the
rounds have taken --seconds, each round in a fresh, empty output directory
that is checked and removed before the next. The first output of each input
set is checked against independent computations; a later round on the same
input must reproduce its artifact digest. With --setup-only it stops
after set-up. The result goes to --result as JSON.

With --trace 1 each round with the tracer installed is followed by one on
the same input without it, so the run also measures what tracing costs.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checks
import tracing
import workloads


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest
    # reaped descendant, such as a decode worker
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _write_json(path, blob):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(blob, handle)


def _layer_means(rounds, inputs):
    """Per-layer metrics per round, averaged over the first traced round of
    each input set, so that counts repeat exactly from run to run; and the
    tracing overhead, the median of traced minus untraced wall time over
    pairs of rounds on the same input."""
    first = rounds[:2 * inputs:2]
    metrics = {name: statistics.fmean(r["layers"].get(name, 0.0)
                                      for r in first)
               for name in tracing.LAYER_METRICS}
    metrics["trace.overhead_s"] = statistics.median(
        traced["wall"] - plain["wall"]
        for traced, plain in zip(rounds[::2], rounds[1::2]))
    return metrics


def run(args):
    workload = workloads.make(args.workload, args.seed, args.work, args.scale)
    tracer = tracing.Tracer() if args.trace and not args.setup_only else None
    if tracer:
        tracer.install()
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    import numpy
    span_log = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take_spans()
        span_log.append({"round": "setup",
                         "spans": [s[:4] for s in setup_spans]})
    out = os.path.join(args.work, "out")
    rounds, errors = [], []
    digests = {}
    attempted = failed = 0
    measured = 0.0
    peak_rss_mb = None
    # untraced: rounds cycle through the input sets until --seconds is
    # spent; traced: each input set runs twice in a row, traced then not,
    # and at least one whole cycle runs
    while measured < args.seconds or (tracer and (
            len(rounds) < 2 * workload.inputs or len(rounds) % 2)):
        n = len(rounds)
        k = (n // 2 if tracer else n) % workload.inputs
        traced = tracer is not None and n % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if traced:
            tracer.install()
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        results = workload.run_round(out, k)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_start
        measured += wall
        layers = None
        if traced:
            tracer.uninstall()
            spans = tracer.take_spans()
            # set-up calls (cli-parallel's gen-synth and train) count in
            # every traced round
            shift = len(setup_spans)
            layers = tracing.layer_metrics(setup_spans + [
                (name, begin, end, parent + shift if parent >= 0 else -1, info)
                for name, begin, end, parent, info in spans])
            span_log.append({"round": n, "input": k, "wall": wall,
                             "spans": [s[:4] for s in spans],
                             "counts": layers})
        if peak_rss_mb is None:
            # before any check runs in this process, so that the checkers'
            # memory does not count
            peak_rss_mb = _peak_rss_mb()
        rounds.append({"wall": wall, "cpu": cpu, "traced": traced,
                       "input": k, "layers": layers})

        attempted += len(results)
        failed += sum(1 for _op, ok, _text in results if not ok)
        for op, ok, text in results:
            if ok and text:
                with open(os.path.join(out, op + ".out"), "w",
                          encoding="utf-8") as handle:
                    handle.write(text)
        if all(ok for _op, ok, _text in results):
            # the first output of each input set is checked in full; later
            # ones must be the same bytes
            digest = checks.artifact_digest(out)
            if k not in digests:
                digests[k] = digest
                try:
                    errors.extend(workload.check(out)[:10])
                except (OSError, LookupError, ValueError) as exc:
                    errors.append("input set %d: outputs unreadable: %r"
                                  % (k, exc))
            elif digests[k] != digest:
                errors.append("input set %d: artifact digest %s, earlier %s"
                              % (k, digest, digests[k]))
        shutil.rmtree(out)

    result = {
        "ready": ready,
        "rounds": [{key: r[key] for key in ("wall", "cpu", "traced", "input")}
                   for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digests.get(0),
        "peak_rss_mb": peak_rss_mb,
        "env": {"nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__},
    }
    if tracer:
        result["layers"] = _layer_means(rounds, workload.inputs)
        trace_file = args.trace_file
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        _write_json(trace_file, {"workload": args.workload, "seed": args.seed,
                                 "env": result["env"], "rounds": span_log})
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="bench")
    parser.add_argument("--work", required=True,
                        help="empty directory the run may write under")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _write_json(args.result, run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
