"""Benchmark of the sampled-ocp package: one command, three workloads.

    python3 perfbench/run.py --workload solve|converge|check --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One caller issues the workload's
operations one after another (a closed loop), in whole passes over a
fixed list, and checks every output against the references in refs.py.
Passes repeat while the next one is expected to end within S seconds;
there is always at least one.

Every operation is timed in calibrated seconds (see calib.py).  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics setup_s, pass_s, cpu_s and peak_rss_mb.  With
--trace 1 the run makes one untraced pass and then one traced pass, and
reports the per-layer metrics of the traced pass (see tracing.py); spans
go to perfbench/_runs/trace-<workload>-s<seed>.json.
"""

import time

T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from calib import Calibrator  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
PACKAGE = "sampled_ocp"

# Fresh processes that repeat the set-up, so set-up time is a median.
SETUP_PROBES = 3


def import_package():
    """Import the package from this checkout's src, or stop."""
    pkg_dir = os.path.join(SRC, PACKAGE)
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        sys.exit(f"benchmark: no package source at {pkg_dir}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != pkg_dir:
        sys.exit(f"benchmark: {PACKAGE} imported from {pkg.__file__}, "
                 f"not from {pkg_dir}")
    return pkg


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("solve", "converge", "check"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the raw set-up seconds, exit")
    return p.parse_args(argv)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Pass:
    def __init__(self):
        self.wall = self.cpu = self.wall_raw = self.cpu_raw = 0.0
        self.attempted = 0
        self.failures: list = []   # operations that raised
        self.wrong: list = []      # operations whose output is wrong


def run_pass(wl, cal, tracer=None) -> Pass:
    """One pass over the workload's operations, each timed by `cal`."""
    rec = Pass()
    for op in wl.ops:
        cal.start()
        span = tracer.open(f"{op.layer}.op") if tracer else None
        c0, t0, stolen0 = cpu_seconds(), cal.clock(), cal.stolen_cpu
        try:
            result, failure = op.call(), None
        except Exception as exc:  # an operation failing is a counted outcome
            result, failure = None, exc
        t1, c1 = cal.clock(), cpu_seconds() - (cal.stolen_cpu - stolen0)
        if tracer:
            tracer.close(span)
        scale = cal.stop()
        if tracer:
            tracer.op_done(scale)
        rec.attempted += 1
        rec.wall_raw += t1 - t0
        rec.cpu_raw += c1 - c0
        rec.wall += (t1 - t0) * scale
        rec.cpu += (c1 - c0) * scale
        if failure is not None:
            rec.failures.append(f"{op.name}: failed with " + traceback
                                .format_exception_only(failure)[-1].strip())
            continue
        problem = op.check(result)
        if problem is not None:
            rec.wrong.append(f"{op.name}: wrong output: {problem}")
    return rec


def setup_probe(workload: str, seed: int) -> tuple:
    """Raw and calibrated set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_raw_s"], probe["setup_s"]


def main(argv=None) -> int:
    # Set-up is timed like an operation, from the first line on; only
    # the import of numpy, which the kernel needs, precedes the samples.
    cal = Calibrator()
    cal.start()
    try:
        args = parse_args(argv)
        pkg = import_package()
        import workloads
    except BaseException:
        cal.stop()
        raise
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir = os.path.join(RUNS, ("probe-" if args.setup_probe else "") + tag)
    os.makedirs(run_dir)
    try:
        try:
            wl = workloads.SETUP[args.workload](pkg, args.seed, run_dir)
            setup_raw = cal.clock() - T_ENTRY
        finally:
            scale = cal.stop()
        setup = (setup_raw, setup_raw * scale)
        if args.setup_probe:
            print(json.dumps({"setup_raw_s": setup[0], "setup_s": setup[1]}))
            return 0
        return measure(args, cal, wl, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, cal, wl, setup) -> int:
    passes, traced = [], None
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass(wl, cal))
        now = time.perf_counter()
        if args.trace or now - start + (now - t_pass) > args.seconds:
            break
    if args.trace:
        import tracing
        tracer = tracing.Tracer(PACKAGE, cal.clock)
        tracer.install()
        wl.instrument(tracer)
        try:
            traced = run_pass(wl, cal, tracer)
        finally:
            wl.restore()
            tracer.uninstall()

    setups = [setup]
    if not args.trace:
        setups += [setup_probe(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]

    everything = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.failures) for p in everything)
    wrong = [e for p in everything for e in p.wrong]
    for line in dict.fromkeys(e for p in everything
                              for e in p.failures + p.wrong):
        print(line, file=sys.stderr)

    med = statistics.median
    raw = {"setup_s": med(s[0] for s in setups),
           "pass_s": med(p.wall_raw for p in passes),
           "cpu_s": med(p.cpu_raw for p in passes)}
    calibrated = {"setup_s": med(s[1] for s in setups),
                  "pass_s": med(p.wall for p in passes),
                  "cpu_s": med(p.cpu for p in passes)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"pass(es), {attempted} operations attempted, {failed} failed"
          f"{', traced' if traced else ''}")
    for name in ("setup_s", "pass_s", "cpu_s"):
        print(f"  {name:12s} {calibrated[name]:10.4f} s calibrated  "
              f"{raw[name]:10.4f} s raw")
    print(f"  {'peak_rss_mb':12s} {peak_rss_mb:10.1f} MB")
    print("RAW " + json.dumps(raw))

    if traced:
        metrics, ok = trace_metrics(args, tracer, traced, passes)
    else:
        metrics, ok = {name: {"value": calibrated[name], "unit": "s"}
                       for name in ("setup_s", "pass_s", "cpu_s")}, True
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": ok and not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(args, tracer, traced, passes):
    """Per-layer metrics of the traced pass, and whether the layers' self
    times account for the whole traced pass."""
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracer.metrics().items()}
    untraced = statistics.median(p.wall for p in passes)
    self_sum = sum(tracer.self_times().values())
    metrics["trace.pass_s"] = {"value": traced.wall, "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced.wall - untraced,
                                   "unit": "s"}
    ok = abs(self_sum - traced.wall) <= 1e-4 * traced.wall
    if not ok:
        print(f"layer self times sum to {self_sum:.6f} s, traced pass "
              f"{traced.wall:.6f} s", file=sys.stderr)
    for what in tracer.absent:
        print(f"absent: {what}")
    os.makedirs(RUNS, exist_ok=True)
    tracer.dump(os.path.join(RUNS, f"trace-{args.workload}-s{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "self_s": tracer.self_times(),
                 "metrics": {k: v["value"] for k, v in metrics.items()}})
    for name in ("trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s"):
        print(f"  {name:24s} {metrics[name]['value']:10.4f} s")
    return metrics, ok


if __name__ == "__main__":
    sys.exit(main())
