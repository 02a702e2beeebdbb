"""The beamlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload reference --seed 1234 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; the library is imported from src/ with
PYTHONPATH, so nothing needs installing. Each run starts fresh processes:
one that sets up and makes whole rounds of the workload's calls for
--seconds, and SETUP_SAMPLES - 1 around it that only set the workload up.
With --trace 0 the result holds the end-to-end metrics (times per round:
the slowest round of each input set, averaged over the input sets), with
--trace 1 the per-layer metrics from outside wrappers (see tracing.py).
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reference", "train-wer-sweep", "cli-parallel")
SETUP_SAMPLES = 7
# a run must end within 180 s; a full-scale run is a one-off digest check
TIME_LIMIT = {"bench": 170.0, "full": 1800.0}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class RunError(Exception):
    pass


def per_round(rounds, key):
    """The slowest round of each input set, averaged over the input sets.

    The shared host runs a round up to twice as fast in spells that last
    from seconds to minutes; a run that falls mostly in such a spell has a
    fast median, so the median of a run's rounds spreads from run to run
    by as much. The slowest round of each set is taken at the host's usual
    speed in nearly every run. Every input set weighs the same, however
    many rounds it had."""
    by_input = {}
    for r in rounds:
        by_input.setdefault(r["input"], []).append(r[key])
    return statistics.fmean(max(times) for times in by_input.values())


def _child(args, work, result_path, deadline, setup_only):
    os.makedirs(work)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--work", work, "--result", result_path,
            "--trace-file", os.path.join(
                ROOT, ".bench_traces", "%s-seed%d.json"
                % (args.workload, args.seed))]
    if setup_only:
        argv.append("--setup-only")
    start = time.monotonic()
    # the child's own output is diagnostics; stdout here carries the result
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("%s run did not end in time" % args.workload) from None
    if code != 0:
        raise RunError("%s run exited with code %d" % (args.workload, code))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["ready"] - start
    return result


def run_workload(args):
    """Run one workload in fresh processes; returns the result object."""
    deadline = time.monotonic() + TIME_LIMIT[args.scale]
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload,
                                                        os.getpid()))
    shutil.rmtree(work, ignore_errors=True)

    def setup_only(i):
        return _child(args, os.path.join(work, "setup%d" % i),
                      os.path.join(work, "setup%d.json" % i), deadline,
                      setup_only=True)["setup_s"]

    # set-up samples before and after the measuring process, so that they
    # span the same stretch of time as its rounds
    before = (SETUP_SAMPLES - 1) // 2
    try:
        setups = [setup_only(i) for i in range(before)]
        main = _child(args, os.path.join(work, "run"),
                      os.path.join(work, "run.json"), deadline,
                      setup_only=False)
        setups.append(main["setup_s"])
        setups += [setup_only(i) for i in range(before, SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass

    rounds = [r for r in main["rounds"] if not r["traced"]]
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": tracing.LAYER_METRICS[name]}
                   for name, value in main["layers"].items()}
    else:
        values = {"wall_s": per_round(rounds, "wall"),
                  "cpu_s": per_round(rounds, "cpu"),
                  "peak_rss_mb": main["peak_rss_mb"],
                  # the upper quartile, for the reason per_round gives
                  "setup_s": statistics.quantiles(setups, n=4)[2]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    env = main["env"]
    print("workload %s  seed %d  scale %s  trace %d  rounds %d  nproc %s  "
          "python %s  numpy %s" % (args.workload, args.seed, args.scale,
                                   args.trace, len(main["rounds"]),
                                   env["nproc"], env["python"], env["numpy"]))
    print("artifact digest %s" % main["digest"])
    print("set-up s: %s" % " ".join("%.3f" % t for t in setups))
    print("rounds (input: wall s / cpu s): %s" % "  ".join(
        "%d%s: %.3f/%.3f" % (r["input"], "t" if r["traced"] else "",
                             r["wall"], r["cpu"]) for r in main["rounds"]))
    for error in main["errors"]:
        print("CHECK FAILED: %s" % error)
    for name, metric in metrics.items():
        print("  %-28s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print("  attempted %d  failed %d" % (main["attempted"], main["failed"]))
    return {"correct": not main["errors"], "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1234,
                        help="workload seed (default: 1234)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the rounds of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(TIME_LIMIT),
                        default="bench",
                        help="full: the reference config's own sizes, to "
                             "reproduce its artifact digest")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "beamlab", "__init__.py")):
        print("error: no beamlab sources at %s; run from the root of a "
              "checkout" % os.path.join(ROOT, "src", "beamlab"),
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(
                **dict(vars(args), workload=name)))
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
